"""Scenario maps: physical parameters to a squeeze channel (z, omega_in, omega_out).

The expansion scenario uses the smooth conformal factor
Omega^2(eta) = 1 + epsilon(1 + tanh(sigma eta)), whose asymptotic in/out
frequencies and squeezing parameter have closed forms. Accelerated-observer
and black-hole channels reuse the same kernel machinery as formal
extensions: both horizons hide modes, so reports downstream carry a flag
instead of pretending the dynamics seen by one observer is unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CosmologyParams:
    """Smooth expansion profile in natural units; momentum enters as k^2."""

    epsilon: float
    sigma: float
    mass: float
    momentum: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.sigma <= 0.0:
            # sigma = 0 is the quasistatic limit, reachable only as z -> 0;
            # callers wanting that case set z = 0 directly.
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.mass < 0.0:
            raise ValueError(f"mass must be >= 0, got {self.mass}")


@dataclass(frozen=True)
class UnruhParams:
    acceleration: float
    omega: float

    def __post_init__(self) -> None:
        if self.acceleration <= 0.0:
            raise ValueError(f"acceleration must be > 0, got {self.acceleration}")
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")


@dataclass(frozen=True)
class BlackHoleParams:
    mass_bh: float
    omega: float

    def __post_init__(self) -> None:
        if self.mass_bh <= 0.0:
            raise ValueError(f"mass_bh must be > 0, got {self.mass_bh}")
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")


@dataclass(frozen=True)
class SqueezeChannel:
    """Squeeze magnitude plus the asymptotic mode frequencies."""

    z: float
    omega_in: float
    omega_out: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.z, self.omega_in, self.omega_out))):
            raise ValueError(
                f"z and frequencies must be finite, got z = {self.z}, "
                f"{self.omega_in} -> {self.omega_out}"
            )
        if self.z < 0.0:
            raise ValueError(f"z must be >= 0, got {self.z}")
        if self.omega_in <= 0.0 or self.omega_out <= 0.0:
            raise ValueError("frequencies must be > 0")
        if self.omega_out < self.omega_in:
            # Work and entropy bookkeeping assume the expanding direction;
            # the contracting process is represented as the reverse of this
            # channel, never as a channel of its own.
            raise ValueError(
                f"omega_out must be >= omega_in, got {self.omega_in} -> {self.omega_out}"
            )


def conformal_factor(eta: float, p: CosmologyParams) -> float:
    """Omega^2 at conformal time eta; increases from 1 to 1 + 2 epsilon."""
    return 1.0 + p.epsilon * (1.0 + np.tanh(p.sigma * eta))


def asymptotic_frequencies(p: CosmologyParams) -> tuple[float, float]:
    """(omega_in, omega_out) from the asymptotic conformal factors.

    omega_in = sqrt(k^2 + m^2), omega_out = sqrt(k^2 + m^2 (1 + 2 epsilon)).
    For m = 0 both expressions share the identical float, so massless
    channels come out with omega_out == omega_in exactly.
    """
    k2 = p.momentum * p.momentum
    m2 = p.mass * p.mass
    if k2 == 0.0 and m2 == 0.0:
        raise ValueError("zero-frequency mode: momentum and mass cannot both be 0")
    omega_in = float(np.sqrt(k2 + m2))
    omega_out = float(np.sqrt(k2 + m2 * (1.0 + 2.0 * p.epsilon)))
    return omega_in, omega_out


def _log_sinh(x: float) -> float:
    """log(sinh x) for x > 0 without overflow: x - log 2 + log1p(-e^(-2x)).

    Where e^(-2x) rounds to 1 (x below about 6e-17) log1p(-1) would divide
    by zero; sinh x = x to full precision there, so it is log x.
    """
    e = np.exp(-2.0 * x)
    if e == 1.0:
        return np.log(x)
    return x - np.log(2.0) + np.log1p(-e)


# Where a or b - a lies below CANCELLING (and both below 64), the form
# y = (b - a) + g(b) - g(a) of squeeze_from_cosmology loses digits: g(a) is
# about log a, and y a small difference of such logs; and where y lies
# below it, exp(-y) keeps too few of y's digits for arctanh.
CANCELLING = 1.0 / 64.0
EXP_CANCELLING = math.exp(-CANCELLING)


def squeeze_from_cosmology(
    omega_in: float, omega_out: float, sigma: float
) -> float:
    """z with tanh z = sinh a / sinh b = exp(-y), a, b = pi(w_out -+ w_in)/2 sigma.

    At large epsilon log sinh b - log sinh a is the difference of two large
    numbers, so y is taken as b - a = pi w_in / sigma plus g(b) - g(a),
    with g(x) = log sinh x - x near -log 2. Small sigma (huge sinh
    arguments) then underflows gracefully to z = 0, and large epsilon keeps
    z finite. Where a or b - a is small (below CANCELLING) and neither is
    large, that sum cancels instead, so y is
    log1p(2 cosh((a + b)/2) sinh((b - a)/2) / sinh a), the ratio's excess
    sinh b - sinh a over sinh a, with (a + b)/2 and (b - a)/2 formed from
    w_out and w_in: each factor keeps its relative accuracy, and no factor
    overflows below 64. log y comes from y = (b - a) coth(x) for some x in
    [a, b], exact to first order in b - a; _artanh_exp reads it only where
    y rounds to 0 or below.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if omega_in <= 0.0 or omega_out < omega_in:
        raise ValueError("need omega_out >= omega_in > 0")
    if omega_out == omega_in:
        return 0.0
    a = np.pi * (omega_out - omega_in) / (2.0 * sigma)
    b = np.pi * (omega_out + omega_in) / (2.0 * sigma)
    half_gap = np.pi * omega_in / (2.0 * sigma)  # (b - a) / 2
    if (a < CANCELLING or half_gap < CANCELLING) and 0.0 < a < 64.0 and half_gap < 64.0:
        mean = np.pi * omega_out / (2.0 * sigma)  # (a + b) / 2
        y = np.log1p(2.0 * np.cosh(mean) * np.sinh(half_gap) / np.sinh(a))
    else:
        y = np.pi * omega_in / sigma + ((_log_sinh(b) - b) - (_log_sinh(a) - a))
    log_y = np.log(np.pi) + np.log(omega_in) - np.log(sigma) - np.log(np.tanh(a))
    return _artanh_exp(y, log_y)


def _artanh_exp(y: float, log_y: float) -> float:
    """z with tanh z = exp(-y) for y > 0, given y and log y.

    Below CANCELLING, exp(-y) keeps too few of y's digits (it rounds to 1
    below about 1e-16, where arctanh would divide by zero), so z is taken
    as -log(tanh(y/2))/2, about 19 at y = 1e-17, and the vacuum gate
    rejects it. Where even tanh(y/2) = y/2 underflows to 0, z =
    (log 2 - log y)/2 from the log y that the caller forms without
    underflow, so z stays finite (about 460 at y = 1e-400). Elsewhere
    arctanh is kept, since the log-tanh form loses the tail: -0.0 against
    1.9e-22 at y = 50.
    """
    t = np.exp(-y)
    if t < EXP_CANCELLING:  # y > CANCELLING
        return float(np.arctanh(t))
    tanh_half = np.tanh(0.5 * y)
    if tanh_half > 0.0:
        return float(-0.5 * np.log(tanh_half))
    return float(0.5 * (np.log(2.0) - log_y))


def squeeze_from_unruh(p: UnruhParams) -> float:
    """z with tanh z = exp(-pi omega / a)."""
    return _artanh_exp(
        np.pi * p.omega / p.acceleration,
        np.log(np.pi) + np.log(p.omega) - np.log(p.acceleration),
    )


def squeeze_from_blackhole(p: BlackHoleParams) -> float:
    """z with tanh z = exp(-4 pi M omega)."""
    return _artanh_exp(
        4.0 * np.pi * p.mass_bh * p.omega,
        np.log(4.0 * np.pi) + np.log(p.mass_bh) + np.log(p.omega),
    )


def channel_from_cosmology(p: CosmologyParams) -> SqueezeChannel:
    omega_in, omega_out = asymptotic_frequencies(p)
    z = squeeze_from_cosmology(omega_in, omega_out, p.sigma)
    return SqueezeChannel(z=z, omega_in=omega_in, omega_out=omega_out)


def channel_from_unruh(p: UnruhParams) -> SqueezeChannel:
    # The mode frequency is unchanged; only the observer's vacuum differs.
    z = squeeze_from_unruh(p)
    return SqueezeChannel(z=z, omega_in=p.omega, omega_out=p.omega)


def channel_from_blackhole(p: BlackHoleParams) -> SqueezeChannel:
    z = squeeze_from_blackhole(p)
    return SqueezeChannel(z=z, omega_in=p.omega, omega_out=p.omega)
