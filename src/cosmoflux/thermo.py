"""Thermal initial states and work bookkeeping for the squeeze channel.

Energies use H = omega (n_a + n_b + 1): the pair carries one unit of
zero-point energy, which cancels inside thermal weights but not in work
differences, so the work decomposition keeps the explicit (omega_out -
omega_in) shift. All kernel averages carry a truncation bound equal to the
largest in-box energy times the initial-weighted mass lost to the box.
The Gibbs weights of every occupied sector state are one buffer, formed in
one pass over the box's state totals (fock.state_totals); the per-sector
weight vectors are read-only views of it. Every kernel average the work
bookkeeping reads (the weighted leakage, <n_f>, <n_i> and <n_c>) comes from
one pass over the occupied sectors (_work_pass), which squares the kernel's
amplitudes once into p(m|n) and forms each sector's totals @ P once;
inner_friction reads that pass and reports every average in its
WorkReport. Each sector term keeps its operands and each sum its order, so
the averages are those of one loop per average bit for bit. Every stage
that pairs a kernel with an initial state, here and in fluctuation, first
checks that the two fit (_require_pairing): one cutoff, and a vacuum
kernel only for the vacuum.
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
    sector_layout,
    sector_spectral,
    sector_views,
    state_totals,
)

# Slack added to truncation-bound comparisons to absorb pure rounding noise.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class ThermalDistribution:
    """Diagonal Gibbs weights over the joint basis, renormalized to the box.

    flat_weights holds the weights of the sector states of every occupied
    sector, sector-major in sector_layout order (fock.state_totals);
    mirrored states share them. weights[d] is sector d's read-only view of
    it. Every sector of the box is occupied at T > 0, and only d = 0 at
    temperature = 0, which marks the vacuum path: a point mass on (0, 0)
    with no entropy scale, served by a vacuum kernel or a full one
    (_require_pairing). renorm_defect is the Gibbs mass outside the box.
    """

    temperature: float
    omega: float
    spec: TruncationSpec
    flat_weights: np.ndarray
    renorm_defect: float

    def __post_init__(self) -> None:
        # set here rather than declared, so that it is not a field
        weights = sector_views(self.flat_weights, self.spec.cutoff, False)
        object.__setattr__(self, "weights", weights)

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


def _sector_created(
    totals: np.ndarray, final: np.ndarray, P: np.ndarray, w: np.ndarray
) -> float:
    """In-sector <total(m) - total(n)> under p(m|n) w(n); final = totals @ P."""
    return float((final - totals * P.sum(axis=0)) @ w)


def _work_pass(kernel: TransitionKernel, thermal: ThermalDistribution) -> _WorkSums:
    """Every kernel average of the work bookkeeping, in one pass over the
    sectors the initial state occupies.

    The amplitudes are squared once into p(m|n), the same bits at every
    call. Each sector's totals @ P is formed once and serves both <n_f>
    and <n_c>. Every sector term keeps its operands, and each sum adds the
    terms in layout order, as one loop per average would.
    """
    _require_pairing(kernel, thermal)
    cutoff = kernel.spec.cutoff
    squares = sector_views(kernel.flat_amplitudes**2, cutoff, True)
    leakage = final = initial = created = 0
    # zip stops at the last sector the initial state occupies
    for s, P, leak, w in zip(
        sector_layout(cutoff), squares, kernel.column_leakage, thermal.weights
    ):
        m = s.multiplicity
        tP = s.totals @ P
        leakage += m * float(leak @ w)
        final += m * float(tP @ w)
        initial += m * float(s.totals @ w)
        created += m * _sector_created(s.totals, tP, P, w)
    return _WorkSums(leakage + thermal.renorm_defect, final, initial, created)


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


def mean_created_spectral(
    z: float, temperature: float, omega: float, cutoff: int
) -> float:
    """<n_c> via per-sector spectral amplitudes at large cutoffs.

    The spectral route stays entrywise stable at box sizes where the
    analytic sum does not, and its in-box boundary reflection vanishes as
    the cutoff grows, so this converges to the untruncated value. Weights
    are the thermal weights renormalized to the box, as in
    thermal_distribution, with no gate on the thermal tail.
    """
    if z == 0.0:
        return 0.0
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    weights, _defect = _gibbs_weights(temperature, omega, cutoff)
    total = 0
    for s, w in zip(sector_layout(cutoff), sector_views(weights, cutoff, False)):
        P = sector_spectral(z, s.d, s.size) ** 2
        total += s.multiplicity * _sector_created(s.totals, s.totals @ P, P, w)
    return total
