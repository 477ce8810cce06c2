"""Thermal initial states and work bookkeeping for the squeeze channel.

Energies use H = omega (n_a + n_b + 1): the pair carries one unit of
zero-point energy, which cancels inside thermal weights but not in work
differences, so the work decomposition keeps the explicit (omega_out -
omega_in) shift. All kernel averages carry a truncation bound equal to the
largest in-box energy times the initial-weighted mass lost to the box.
The Gibbs weights of every occupied sector state are one buffer, formed in
one pass over the box's state totals (fock.state_totals). Every kernel
average the work bookkeeping reads (the weighted leakage, <n_f>, <n_i> and
<n_c>) comes from one work pass (_work_pass); inner_friction reads that
pass and reports every average in its WorkReport. At T > 0 the pass takes
per-state sums over the kernel buffer in chunks of whole sectors
(fock.sector_chunks), its squares in the thread's held work buffers; it
agrees with per-sector loops to the rounding of its sums
(tests/dense_reference.py). At
T = 0 the vacuum (0, 0) carries all the weight, and the pass reads only
column 0 of block d = 0 and its leakage, in O(N) work, from a vacuum
kernel or a full one alike. Every stage that pairs a kernel with an
initial state, here and in fluctuation, first checks that the two fit
(_require_pairing): one cutoff, and a vacuum kernel only for the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import LeakageError, NumericError, VerificationError
from .fock import (
    TransitionKernel,
    TruncationSpec,
    chunk_keys,
    holds_buffers,
    sector_chunks,
    sector_index,
    state_totals,
    work_buffer,
)

# Slack added to truncation-bound comparisons to absorb pure rounding noise.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class ThermalDistribution:
    """Diagonal Gibbs weights over the joint basis, renormalized to the box.

    flat_weights holds the weights of the sector states of every occupied
    sector, sector-major in sector_layout order (fock.state_totals);
    mirrored states share them, and fock.sector_views gives one read-only
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
    """Box-renormalized Gibbs weights of the occupied sector states, as one
    sector-major buffer, and the mass outside the box.

    The weight of n is (1-x)^2 x^total(n) with x = exp(-omega/T). Each mode
    keeps 1 - t of its mass in the box, t = x^(cutoff+1), so the weights
    are divided by (1-t)^2 and the escaped mass is t(2-t), both in closed
    form. At T = 0, x = 0 gives the point mass on (0, 0) through 0^0 = 1,
    and only the states of sector 0 are returned. When T >> omega rounds x
    to 1, the box holds none of the mass.
    """
    x = 0.0 if temperature == 0.0 else float(np.exp(-omega / temperature))
    t = x ** (cutoff + 1)
    scale = ((1.0 - x) / (1.0 - t)) ** 2 if t < 1.0 else 0.0
    totals = state_totals(cutoff)
    if temperature == 0.0:
        totals = totals[: cutoff + 1]
    weights = scale * x**totals
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
    return ThermalDistribution(
        temperature=temperature,
        omega=omega,
        spec=spec,
        flat_weights=weights,
        renorm_defect=defect,
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


@holds_buffers("values", "keys", "diffs")
def _work_pass(kernel: TransitionKernel, thermal: ThermalDistribution) -> _WorkSums:
    """Every kernel average of the work bookkeeping, in one pass over the
    sectors the initial state occupies.

    At T = 0 the initial state is the vacuum, state 0 of sector d = 0 with
    weight exactly 1, so only column 0 of block d = 0 counts: the leakage
    is that column's plus the thermal tail, <n_i> = 0, and <n_f> = <n_c> =
    sum_p 2p A[p, 0]^2, summed correctly rounded (math.fsum), so in no
    order a BLAS build picks. A vacuum kernel and a full one hold that
    column with the same bits, so the averages do not depend on which of
    them serves the point.

    At T > 0 two bincounts over sector_index's col sum, per initial state
    n, p(m|n) and p(m|n) (total(m) - total(n)), read through change; with
    total(n) times the first, the second gives the sum of p(m|n) total(m).
    They run chunk by chunk in held work buffers; a state's sums lie in
    one sector, so they keep their order at every cutoff. Each average is
    one dot with the weights. <n_c> never subtracts two sums of totals,
    which would cancel its digits as z -> 0.
    """
    _require_pairing(kernel, thermal)
    cutoff = kernel.spec.cutoff
    if thermal.is_vacuum:
        column = kernel.amplitudes[0][:, 0]
        created = math.fsum((state_totals(cutoff)[: cutoff + 1] * column**2).tolist())
        leakage = float(kernel.column_leakage[0][0]) + thermal.renorm_defect
        return _WorkSums(leakage, created, 0.0, created)
    ix = sector_index(cutoff)
    totals = state_totals(cutoff)
    # per initial state n: sum_m p(m|n), then sum_m p(m|n) 2(p - q)
    colsums, created = np.empty(len(totals)), np.empty(len(totals))
    for chunk in sector_chunks(cutoff):
        P = np.square(kernel.flat_amplitudes[chunk.entries], out=work_buffer("values", chunk.size))
        keys = chunk_keys(ix.col, chunk, chunk.states.start)
        states = chunk.states.stop - chunk.states.start
        colsums[chunk.states] = np.bincount(keys, weights=P, minlength=states)
        # p - q, exact in the narrowest signed type that holds 2 cutoff
        diff = np.min_scalar_type(-2 * cutoff)
        P *= np.subtract(
            ix.change[chunk.entries], cutoff, dtype=diff,
            out=work_buffer("diffs", chunk.size, diff),
        )
        created[chunk.states] = np.bincount(keys, weights=P, minlength=states)
    created *= 2.0
    w = 2.0 * thermal.flat_weights  # a sector d > 0 counts its mirror too
    w[: cutoff + 1] = thermal.flat_weights[: cutoff + 1]
    leakage = float(kernel.flat_column_leakage @ w) + thermal.renorm_defect
    final = float((totals * colsums + created) @ w)
    return _WorkSums(leakage, final, float(totals @ w), float(created @ w))


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
