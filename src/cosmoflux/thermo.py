"""Thermal initial states and work bookkeeping for the squeeze channel.

Energies use H = omega (n_a + n_b + 1): the pair carries one unit of
zero-point energy, which cancels inside thermal weights but not in work
differences, so the work decomposition keeps the explicit (omega_out -
omega_in) shift. All kernel averages carry a truncation bound equal to the
largest in-box energy times the initial-weighted mass lost to the box.
A Gibbs weight depends on a state's total alone: a Gibbs state holds the
2N+1 weights per total, and gathers from them the weights of every
occupied sector state, one sector-major buffer (fock.state_totals). Every
kernel average the work bookkeeping reads (the weighted leakage, <n_f>,
<n_i> and <n_c>) comes from one work pass (_work_pass); inner_friction
reads that pass and reports every average in its WorkReport. At T > 0 the
pass contracts the kernel's total table (fock.TransitionKernel) with the
per-total weights, O(N^2) work whatever the box's O(N^3) entries, and
takes the weighted leakage from the kernel's column leakage; it agrees
with per-sector loops to the rounding of its sums
(tests/dense_reference.py). At T = 0 the vacuum (0, 0) carries all the
weight, and the pass reads only column 0 of block d = 0 and its leakage,
in O(N) work, from a vacuum kernel or a full one alike. Every stage that
pairs a kernel with an initial state, here and in fluctuation, first
checks that the two fit (_require_pairing): one cutoff, and a vacuum
kernel only for the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LeakageError, NumericError, VerificationError
from .fock import TransitionKernel, TruncationSpec, cell_changes, state_totals

# Slack added to truncation-bound comparisons to absorb pure rounding noise.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class ThermalDistribution:
    """Diagonal Gibbs weights over the joint basis, renormalized to the box.

    total_weights[t] is the weight of every box state of total t, for
    t = 0..2N. flat_weights holds the weights of the sector states of
    every occupied sector, sector-major in sector_layout order
    (fock.state_totals), gathered from total_weights (thermal_distribution),
    so every state's weight is its total's, as the contractions of a
    kernel's total table need; mirrored states share them, and fock.sector_views gives one read-only
    view per sector. Every sector of the box is occupied at T > 0, and
    only d = 0 at temperature = 0, which marks the vacuum path: a point
    mass on (0, 0) with no entropy scale, served by a vacuum kernel or a
    full one (_require_pairing). renorm_defect is the Gibbs mass outside
    the box.
    """

    temperature: float
    omega: float
    spec: TruncationSpec
    flat_weights: np.ndarray
    renorm_defect: float
    total_weights: np.ndarray

    @property
    def is_vacuum(self) -> bool:
        return self.temperature == 0.0


@dataclass(frozen=True)
class WorkReport:
    mean_work: float
    adiabatic_work: float
    inner_friction: float
    mean_created: float
    adiabatic_temperature: float
    truncation_bound: float
    weighted_leakage: float
    omega_out: float


def _require_pairing(kernel: TransitionKernel, thermal: ThermalDistribution) -> None:
    """ValueError unless the kernel can serve the initial state: both must
    share one cutoff, and a vacuum kernel, which holds the vacuum column
    alone, serves only the vacuum (T = 0). A full kernel serves every
    state; at T = 0 the sectors past d = 0 carry weight exactly 0, and the
    sums over the initial state skip them."""
    if kernel.spec.cutoff != thermal.spec.cutoff:
        raise ValueError(
            f"kernel cutoff {kernel.spec.cutoff} does not match the initial "
            f"state's cutoff {thermal.spec.cutoff}"
        )
    if kernel.vacuum and not thermal.is_vacuum:
        raise ValueError(
            "a vacuum kernel holds the vacuum column alone and cannot serve "
            f"the Gibbs state at T = {thermal.temperature}"
        )


def _gibbs_weights(
    temperature: float, omega: float, cutoff: int
) -> tuple[np.ndarray, float]:
    """Box-renormalized Gibbs weights of a state of each total 0..2N, and
    the mass outside the box.

    The weight of n is (1-x)^2 x^total(n) with x = exp(-omega/T). Each mode
    keeps 1 - t of its mass in the box, t = x^(cutoff+1), so the weights
    are divided by (1-t)^2 and the escaped mass is t(2-t), both in closed
    form. At T = 0, x = 0 gives the point mass on (0, 0) through 0^0 = 1.
    When T >> omega rounds x to 1, the box holds none of the mass.
    """
    x = 0.0 if temperature == 0.0 else float(np.exp(-omega / temperature))
    t = x ** (cutoff + 1)
    scale = ((1.0 - x) / (1.0 - t)) ** 2 if t < 1.0 else 0.0
    weights = scale * x ** np.arange(2 * cutoff + 1)
    weights.flags.writeable = False
    return weights, t * (2.0 - t)


def thermal_distribution(
    temperature: float, omega: float, spec: TruncationSpec
) -> ThermalDistribution:
    """Gibbs weights (1-x)^2 x^total with x = exp(-omega/T), renormalized.

    Raises ValueError unless the temperature is finite and >= 0 and omega
    is finite and > 0: a NaN would pass the tail gate below, and an
    infinite omega would give a point mass that is not the vacuum path.
    Raises LeakageError when the untruncated tail mass exceeds the leakage
    budget: the box is too small to hold this temperature.
    """
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and > 0, got {omega}")
    weights, defect = _gibbs_weights(temperature, omega, spec.cutoff)
    if defect > spec.leakage_tolerance:
        raise LeakageError(
            f"thermal tail mass {defect:.3e} > tolerance "
            f"{spec.leakage_tolerance:.3e}: cutoff {spec.cutoff} too small "
            f"for T/omega = {temperature / omega:.3g}"
        )
    # the occupied sector states' weights, each its total's: the float
    # operations per state are x ** total and one product, as one pass over
    # the states would take them; at T = 0 sector 0 alone
    totals = state_totals(spec.cutoff)
    flat = weights[totals[: spec.cutoff + 1] if temperature == 0.0 else totals]
    flat.flags.writeable = False
    return ThermalDistribution(
        temperature=temperature,
        omega=omega,
        spec=spec,
        flat_weights=flat,
        renorm_defect=defect,
        total_weights=weights,
    )


def mean_initial_closed_form(temperature: float, omega: float) -> float:
    """Untruncated <n_a + n_b> = 2x/(1-x) for the two-mode Gibbs state."""
    if temperature == 0.0:
        return 0.0
    x = np.exp(-omega / temperature)
    return float(2.0 * x / (1.0 - x))


def adiabatic_work(temperature: float, omega_in: float, omega_out: float) -> float:
    """(omega_out - omega_in)(<n_i> + 1) with the untruncated <n_i>."""
    return (omega_out - omega_in) * (
        mean_initial_closed_form(temperature, omega_in) + 1.0
    )


def truncation_bound(
    spec: TruncationSpec, omega_out: float, weighted_leakage: float
) -> float:
    """Largest in-box energy times the initial-weighted escaped mass."""
    return omega_out * (2 * spec.cutoff + 1) * weighted_leakage


class _WorkSums(NamedTuple):
    """The kernel averages of one work pass (_work_pass)."""

    leakage: float  # initial-weighted kernel leakage plus the thermal tail
    final: float  # <total(m)> under p(m|n) p_th(n), in-box
    initial: float  # <total(n)> under the renormalized weights
    created: float  # <total(m) - total(n)> under p(m|n) p_th(n), in-box


def _work_pass(kernel: TransitionKernel, thermal: ThermalDistribution) -> _WorkSums:
    """Every kernel average of the work bookkeeping, in one pass: over the
    vacuum column at T = 0, over the kernel's total table at T > 0.

    At T = 0 the initial state is the vacuum, state 0 of sector d = 0 with
    weight exactly 1, so only column 0 of block d = 0 counts: the leakage
    is that column's plus the thermal tail, <n_i> = 0, and <n_f> = <n_c> =
    sum_p 2p A[p, 0]^2, summed correctly rounded (math.fsum), so in no
    order a BLAS build picks. A vacuum kernel and a full one hold that
    column with the same bits, so the averages do not depend on which of
    them serves the point.

    At T > 0 the masses R[t_f, t_i] w(t_i) of the kernel's total table give
    <n_f> as their sum times t_f, and <n_c> as their sum per total change
    t_f - t_i times that change, so <n_c> never subtracts two sums of
    totals, which would cancel its digits as z -> 0. <n_i> weighs each
    total by its number of box states, which R holds on its diagonal at
    z = 0, where <n_f> then has the same bits. The weighted leakage is a
    dot of the kernel's column leakage with the sector states' weights: a
    leakage taken as the box's multiplicity less R's column sums would
    keep no digit past eps / leakage.
    """
    _require_pairing(kernel, thermal)
    cutoff = kernel.spec.cutoff
    if thermal.is_vacuum:
        column = kernel.amplitudes[0][:, 0]
        created = math.fsum((state_totals(cutoff)[: cutoff + 1] * column**2).tolist())
        leakage = float(kernel.column_leakage[0][0]) + thermal.renorm_defect
        return _WorkSums(leakage, created, 0.0, created)
    w = 2.0 * thermal.flat_weights  # a sector d > 0 counts its mirror too
    w[: cutoff + 1] = thermal.flat_weights[: cutoff + 1]
    leakage = float(kernel.flat_column_leakage @ w) + thermal.renorm_defect
    totals, w_t = np.arange(2 * cutoff + 1), thermal.total_weights
    masses = kernel.total_table * w_t  # [t_f, t_i]
    per_change = np.bincount(cell_changes(cutoff), weights=masses.ravel(), minlength=4 * cutoff + 1)
    created = float(np.arange(-2 * cutoff, 2 * cutoff + 1) @ per_change)
    states = np.minimum(totals, 2 * cutoff - totals) + 1  # box states of each total
    initial = float(totals @ (states * w_t))
    return _WorkSums(leakage, float(totals @ masses.sum(axis=1)), initial, created)


def mean_created_closed_form(z: float, temperature: float, omega: float) -> float:
    """Untruncated pair-creation count 2 sinh^2(z) (<n_i> + 1)."""
    s = np.sinh(z)
    return float(
        2.0 * s * s * (mean_initial_closed_form(temperature, omega) + 1.0)
    )


def inner_friction(
    kernel: TransitionKernel,
    thermal: ThermalDistribution,
    omega_in: float,
    omega_out: float,
) -> WorkReport:
    """Full work decomposition with the friction/creation consistency check.

    The identity W_fric = omega_out <n_c> holds untruncated; in the box the
    two sides differ by exactly the leaked-mass terms the truncation bound
    covers, so exceeding the bound signals an implementation bug rather
    than truncation. Raises NumericError when any of the numbers is not
    finite, as when omega_out near the float64 limit overflows the work:
    a NaN would otherwise pass every comparison.
    """
    sums = _work_pass(kernel, thermal)
    leakage, n_c = sums.leakage, sums.created
    bound = truncation_bound(kernel.spec, omega_out, leakage)
    # omega_out(<n_f> + 1) - omega_in(<n_i> + 1), in-box
    mean_work = omega_out * (sums.final + 1.0) - omega_in * (sums.initial + 1.0)
    w_ad = adiabatic_work(thermal.temperature, omega_in, omega_out)
    w_fric = mean_work - w_ad
    if not all(map(math.isfinite, (leakage, bound, mean_work, w_ad, w_fric, n_c))):
        raise NumericError(
            f"work is not finite in double precision: <W> = {mean_work}, "
            f"W_ad = {w_ad}, W_fric = {w_fric}, <n_c> = {n_c}, "
            f"bound = {bound} at omega_in = {omega_in}, omega_out = {omega_out}"
        )
    scale = max(1.0, abs(w_fric))
    if not abs(w_fric - omega_out * n_c) <= bound + FLOAT_SLACK * scale:
        raise VerificationError(
            f"friction/creation mismatch {abs(w_fric - omega_out * n_c):.3e} "
            f"exceeds truncation bound {bound:.3e}"
        )
    t_ad = (
        0.0
        if thermal.temperature == 0.0
        else thermal.temperature * omega_out / omega_in
    )
    return WorkReport(
        mean_work=mean_work,
        adiabatic_work=w_ad,
        inner_friction=w_fric,
        mean_created=n_c,
        adiabatic_temperature=t_ad,
        truncation_bound=bound,
        weighted_leakage=leakage,
        omega_out=omega_out,
    )
