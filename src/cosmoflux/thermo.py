"""Thermal initial states and work bookkeeping for the squeeze channel.

Energies use H = omega (n_a + n_b + 1): the pair carries one unit of
zero-point energy, which cancels inside thermal weights but not in work
differences, so the work decomposition keeps the explicit (omega_out -
omega_in) shift. All kernel averages carry a truncation bound equal to the
largest in-box energy times the initial-weighted mass lost to the box.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import LeakageError, VerificationError
from .fock import (
    Sector,
    TransitionKernel,
    TruncationSpec,
    sector_layout,
    sector_spectral,
)

# Slack added to truncation-bound comparisons to absorb pure rounding noise.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class ThermalDistribution:
    """Diagonal Gibbs weights over the joint basis, renormalized to the box.

    weights[d] holds the weights of the sector states in sector_layout
    order; mirrored states share them. There is one vector per occupied
    sector (occupied_sectors): every sector of the box at T > 0, and only
    d = 0 at temperature = 0, which marks the vacuum path: a point mass on
    (0, 0) with no entropy scale. renorm_defect is the Gibbs mass outside
    the box.
    """

    temperature: float
    omega: float
    spec: TruncationSpec
    weights: tuple[np.ndarray, ...]
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


def occupied_sectors(temperature: float, cutoff: int) -> int:
    """How many leading difference sectors d = 0, 1, ... carry initial weight.

    The vacuum (temperature 0) is the point mass on (0, 0), so it occupies
    sector 0 only; a Gibbs state weighs every sector of the box. The
    thermal weights and the kernel a point needs both follow this count,
    and every sector past it has initial weight exactly 0, so sums over the
    initial state that skip those sectors drop only exact zeros.
    """
    return 1 if temperature == 0.0 else cutoff + 1


def weighted_sectors(
    blocks: tuple[np.ndarray, ...], thermal: ThermalDistribution
) -> Iterator[tuple[Sector, np.ndarray, np.ndarray]]:
    """(sector, block, weights) for every sector the initial state occupies.

    blocks follows sector_layout (a kernel's probabilities, amplitudes or
    column_leakage). It may hold more sectors than the weights, as when a
    full kernel serves a vacuum point, but never fewer.
    """
    if len(blocks) < len(thermal.weights):
        raise ValueError(
            f"kernel holds {len(blocks)} sector(s) but the initial state "
            f"occupies {len(thermal.weights)}"
        )
    return zip(sector_layout(thermal.spec.cutoff), blocks, thermal.weights)


def _gibbs_weights(
    temperature: float, omega: float, cutoff: int
) -> tuple[tuple[np.ndarray, ...], float]:
    """Box-renormalized Gibbs weights per occupied sector and the mass
    outside the box.

    The weight of n is (1-x)^2 x^total(n) with x = exp(-omega/T). Each mode
    keeps 1 - t of its mass in the box, t = x^(cutoff+1), so the weights
    are divided by (1-t)^2 and the escaped mass is t(2-t), both in closed
    form. At T = 0, x = 0 gives the point mass on (0, 0) through 0^0 = 1,
    and only sector 0 is returned. When T >> omega rounds x to 1, the box
    holds none of the mass.
    """
    x = 0.0 if temperature == 0.0 else float(np.exp(-omega / temperature))
    t = x ** (cutoff + 1)
    scale = ((1.0 - x) / (1.0 - t)) ** 2 if t < 1.0 else 0.0
    occupied = sector_layout(cutoff)[: occupied_sectors(temperature, cutoff)]
    weights = tuple(scale * x**s.totals for s in occupied)
    return weights, t * (2.0 - t)


def thermal_distribution(
    temperature: float, omega: float, spec: TruncationSpec
) -> ThermalDistribution:
    """Gibbs weights (1-x)^2 x^total with x = exp(-omega/T), renormalized.

    Raises LeakageError when the untruncated tail mass exceeds the leakage
    budget: the box is too small to hold this temperature.
    """
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
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
        weights=weights,
        renorm_defect=defect,
    )


def mean_initial_closed_form(temperature: float, omega: float) -> float:
    """Untruncated <n_a + n_b> = 2x/(1-x) for the two-mode Gibbs state."""
    if temperature == 0.0:
        return 0.0
    x = np.exp(-omega / temperature)
    return float(2.0 * x / (1.0 - x))


def mean_initial_total(thermal: ThermalDistribution) -> float:
    """Box-truncated <n_a + n_b> under the renormalized weights."""
    return sum(
        s.multiplicity * float(s.totals @ w)
        for s, w in zip(sector_layout(thermal.spec.cutoff), thermal.weights)
    )


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


def weighted_kernel_leakage(
    kernel: TransitionKernel, thermal: ThermalDistribution
) -> float:
    """Kernel leakage weighted by the initial distribution, plus its tail."""
    return sum(
        s.multiplicity * float(leak @ w)
        for s, leak, w in weighted_sectors(kernel.column_leakage, thermal)
    ) + thermal.renorm_defect


def average_work(
    kernel: TransitionKernel,
    thermal: ThermalDistribution,
    omega_in: float,
    omega_out: float,
) -> float:
    """Mean work omega_out(<n_f> + 1) - omega_in(<n_i> + 1), in-box."""
    n_f = sum(
        s.multiplicity * float(s.totals @ P @ w)
        for s, P, w in weighted_sectors(kernel.probabilities, thermal)
    )
    return omega_out * (n_f + 1.0) - omega_in * (mean_initial_total(thermal) + 1.0)


def _sector_created(totals: np.ndarray, P: np.ndarray, w: np.ndarray) -> float:
    """In-sector <total(m) - total(n)> under p(m|n) w(n)."""
    return float((totals @ P - totals * P.sum(axis=0)) @ w)


def mean_created_kernel(
    kernel: TransitionKernel, thermal: ThermalDistribution
) -> float:
    """<total(m) - total(n)> under p(m|n) p_th(n), in-box."""
    return sum(
        s.multiplicity * _sector_created(s.totals, P, w)
        for s, P, w in weighted_sectors(kernel.probabilities, thermal)
    )


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
    than truncation.
    """
    leakage = weighted_kernel_leakage(kernel, thermal)
    bound = truncation_bound(kernel.spec, omega_out, leakage)
    mean_work = average_work(kernel, thermal, omega_in, omega_out)
    w_ad = adiabatic_work(thermal.temperature, omega_in, omega_out)
    w_fric = mean_work - w_ad
    n_c = mean_created_kernel(kernel, thermal)
    scale = max(1.0, abs(w_fric))
    if abs(w_fric - omega_out * n_c) > bound + FLOAT_SLACK * scale:
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
    return sum(
        s.multiplicity
        * _sector_created(s.totals, sector_spectral(z, s.d, s.size) ** 2, w)
        for s, w in zip(sector_layout(cutoff), weights)
    )
