import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    BlackHoleParams,
    CosmologyParams,
    SqueezeChannel,
    UnruhParams,
    asymptotic_frequencies,
    channel_from_blackhole,
    channel_from_cosmology,
    channel_from_unruh,
    conformal_factor,
    squeeze_from_blackhole,
    squeeze_from_cosmology,
    squeeze_from_unruh,
)

UNIT_COSMOLOGY = CosmologyParams(epsilon=1.0, sigma=1.0, mass=1.0, momentum=1.0)


def test_conformal_factor_limits():
    p = UNIT_COSMOLOGY
    assert conformal_factor(-40.0, p) == pytest.approx(1.0, abs=1e-15)
    assert conformal_factor(40.0, p) == pytest.approx(1.0 + 2.0 * p.epsilon, abs=1e-15)
    assert conformal_factor(0.0, p) == pytest.approx(1.0 + p.epsilon, abs=1e-15)
    grid = np.linspace(-8.0, 8.0, 41)
    values = [conformal_factor(eta, p) for eta in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_asymptotic_frequencies_closed_form():
    w_in, w_out = asymptotic_frequencies(UNIT_COSMOLOGY)
    assert w_in == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert w_out == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        asymptotic_frequencies(
            CosmologyParams(epsilon=1.0, sigma=1.0, mass=0.0, momentum=0.0)
        )


def test_massless_mode_is_inert():
    p = CosmologyParams(epsilon=1.0, sigma=1.0, mass=0.0, momentum=1.0)
    w_in, w_out = asymptotic_frequencies(p)
    assert w_in == w_out
    assert squeeze_from_cosmology(w_in, w_out, p.sigma) == 0.0
    assert channel_from_cosmology(p).z == 0.0


def test_cosmology_reference_value():
    # extended-precision evaluation of the smooth-transition closed form
    # at k = 1, m = 1, epsilon = 1, sigma = 1
    w_in, w_out = asymptotic_frequencies(UNIT_COSMOLOGY)
    z = squeeze_from_cosmology(w_in, w_out, 1.0)
    assert z == pytest.approx(0.009895078074440641, abs=1e-12)


def test_sudden_limit():
    w_in, w_out = np.sqrt(2.0), 2.0
    z = squeeze_from_cosmology(w_in, w_out, 1e6)
    target = (w_out - w_in) / (w_out + w_in)
    assert abs(np.tanh(z) - target) <= 1e-9


def test_quasistatic_limit_monotone():
    w_in, w_out = np.sqrt(2.0), 2.0
    zs = [squeeze_from_cosmology(w_in, w_out, s) for s in np.geomspace(1e-3, 1e3, 9)]
    assert zs[0] <= 1e-12
    assert all(a <= b for a, b in zip(zs, zs[1:]))


def test_slow_transition_stays_finite():
    # the naive sinh ratio overflows long before sigma = 1e-3; the
    # log-domain form must stay finite and tiny
    z = squeeze_from_cosmology(1.0, 3.0, 1e-3)
    assert np.isfinite(z) and 0.0 <= z < 1e-300


def test_tiny_frequency_gap_stays_finite():
    # a one-ulp gap makes pi (w_out - w_in) / 2 sigma about 1e-20, where
    # e^(-2a) rounds to 1; tanh z is then sinh(a) / sinh(b) = a / sinh(b)
    w_in = 0.1
    w_out = w_in + np.spacing(w_in)
    for sigma in (1.0, 1e3):
        a = np.pi * (w_out - w_in) / (2.0 * sigma)
        b = np.pi * (w_out + w_in) / (2.0 * sigma)
        z = squeeze_from_cosmology(w_in, w_out, sigma)
        assert z == pytest.approx(a / np.sinh(b), rel=1e-14)


@pytest.mark.parametrize("epsilon", [1e20, 1e25, 1e30, 1e33, 1e35, 1e40])
def test_large_epsilon_squeeze_stays_accurate(epsilon):
    # k = 0, m = 1, sigma = 1e3: log sinh b - log sinh a is a difference of
    # numbers near 1e12 to 1e17 whose true value is pi omega_in / sigma
    # (e^(-2a) underflows), so tanh z = exp(-pi / 1e3) at every epsilon
    p = CosmologyParams(epsilon=epsilon, sigma=1e3, mass=1.0, momentum=0.0)
    z = channel_from_cosmology(p).z
    assert z == pytest.approx(np.arctanh(np.exp(-np.pi / 1e3)), rel=1e-14)


def _mpmath_squeeze(w_in, w_out, sigma):
    with mpmath.workdps(60):
        w_in, w_out, sigma = map(mpmath.mpf, (w_in, w_out, sigma))
        a = mpmath.pi * (w_out - w_in) / (2 * sigma)
        b = mpmath.pi * (w_out + w_in) / (2 * sigma)
        return mpmath.atanh(mpmath.sinh(a) / mpmath.sinh(b))


@pytest.mark.parametrize("momentum", [0.0, 1.0])
def test_squeeze_matches_mpmath_on_a_log_grid(momentum):
    # m = 1, epsilon and sigma from 1e-2 to 1e30 by half decades; where a
    # and b are small and nearly equal, log sinh b - log sinh a cancelled
    # (z = 34.31 for 17.4427 at k = 0, epsilon = sigma = 1e30). The
    # reference reads the float frequencies the map is given. Points with z
    # below 1e-100 (y above 230) are left out: the rounding of pi w / sigma
    # alone moves y by y eps there, and z = e^(-y) by as much relative
    grid = 10.0 ** np.arange(-2.0, 30.25, 0.5)
    worst, checked = 0.0, 0
    for epsilon in grid:
        for sigma in grid:
            p = CosmologyParams(epsilon=epsilon, sigma=sigma, mass=1.0, momentum=momentum)
            w_in, w_out = asymptotic_frequencies(p)
            exact = _mpmath_squeeze(w_in, w_out, sigma)
            if exact < 1e-100:
                continue
            z = squeeze_from_cosmology(w_in, w_out, sigma)
            worst = max(worst, float(abs(z - exact) / exact))
            checked += 1
    assert checked > 2000
    assert worst <= 1e-12


def test_unruh_reference_value():
    p = UnruhParams(acceleration=np.pi, omega=1.0)
    z = squeeze_from_unruh(p)
    assert np.tanh(z) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert z == pytest.approx(0.38596841645265234, abs=1e-13)


def test_blackhole_reference_value():
    p = BlackHoleParams(mass_bh=1.0, omega=1.0)
    z = squeeze_from_blackhole(p)
    assert np.tanh(z) == pytest.approx(3.4873423562089956e-06, rel=1e-12)


@pytest.mark.parametrize(
    "squeeze",
    [
        lambda: squeeze_from_unruh(UnruhParams(acceleration=1e17, omega=1.0)),
        lambda: squeeze_from_blackhole(BlackHoleParams(mass_bh=1e-18, omega=1.0)),
    ],
    ids=["unruh", "blackhole"],
)
def test_horizon_squeeze_finite_where_tanh_rounds_to_one(squeeze):
    # exp(-y) rounds to 1 at y ~ 1e-17; arctanh(1) would warn and give inf
    z = squeeze()
    assert np.isfinite(z) and 19.0 < z < 20.0
    assert np.tanh(z) == 1.0


@pytest.mark.parametrize(
    "squeeze, log_y",
    [
        (lambda: squeeze_from_unruh(UnruhParams(acceleration=1e100, omega=1e-300)),
         np.log(np.pi) - 400.0 * np.log(10.0)),
        (lambda: squeeze_from_blackhole(BlackHoleParams(mass_bh=1e-300, omega=1e-300)),
         np.log(4.0 * np.pi) - 600.0 * np.log(10.0)),
    ],
    ids=["unruh", "blackhole"],
)
def test_horizon_squeeze_finite_where_the_exponent_underflows(squeeze, log_y):
    # y = pi omega / a or 4 pi M omega underflows to 0; z = (log 2 - log y)/2
    # still holds to full precision, and tanh z rounds to 1
    z = squeeze()
    assert z == pytest.approx(0.5 * (np.log(2.0) - log_y), rel=1e-14)
    assert np.tanh(z) == 1.0


def test_horizon_channels_conserve_frequency():
    ch_u = channel_from_unruh(UnruhParams(acceleration=2.0, omega=0.7))
    ch_b = channel_from_blackhole(BlackHoleParams(mass_bh=1.0, omega=0.05))
    for ch in (ch_u, ch_b):
        assert ch.omega_in == ch.omega_out
    assert ch_u.omega_in == 0.7
    assert ch_b.z == pytest.approx(0.5950083347596399, abs=1e-13)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: CosmologyParams(epsilon=0.0, sigma=1.0, mass=1.0, momentum=1.0),
        lambda: CosmologyParams(epsilon=1.0, sigma=0.0, mass=1.0, momentum=1.0),
        lambda: CosmologyParams(epsilon=1.0, sigma=1.0, mass=-1.0, momentum=1.0),
        lambda: UnruhParams(acceleration=0.0, omega=1.0),
        lambda: UnruhParams(acceleration=1.0, omega=0.0),
        lambda: BlackHoleParams(mass_bh=0.0, omega=1.0),
        lambda: SqueezeChannel(z=-0.1, omega_in=1.0, omega_out=2.0),
        lambda: SqueezeChannel(z=0.1, omega_in=0.0, omega_out=2.0),
        lambda: SqueezeChannel(z=0.1, omega_in=2.0, omega_out=1.0),
        lambda: SqueezeChannel(z=np.nan, omega_in=1.0, omega_out=2.0),
        lambda: SqueezeChannel(z=np.inf, omega_in=1.0, omega_out=2.0),
        lambda: SqueezeChannel(z=0.1, omega_in=np.nan, omega_out=2.0),
        lambda: SqueezeChannel(z=0.1, omega_in=1.0, omega_out=np.inf),
    ],
)
def test_parameter_validation(bad):
    with pytest.raises(ValueError):
        bad()


@settings(max_examples=50, deadline=None)
@given(
    omega=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    gap=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    sigma=st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
)
def test_squeeze_nonnegative_and_bounded(omega, gap, sigma):
    z = squeeze_from_cosmology(omega, omega + gap, sigma)
    assert np.isfinite(z)
    assert z >= 0.0
    # tanh z never exceeds the sudden-limit ratio
    assert np.tanh(z) <= gap / (2.0 * omega + gap) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    momentum=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    mass=st.floats(min_value=1e-3, max_value=4.0, allow_nan=False),
    epsilon=st.floats(min_value=1e-3, max_value=3.0, allow_nan=False),
)
def test_frequencies_ordered(momentum, mass, epsilon):
    p = CosmologyParams(epsilon=epsilon, sigma=1.0, mass=mass, momentum=momentum)
    w_in, w_out = asymptotic_frequencies(p)
    assert 0.0 < w_in <= w_out
    assert w_in == pytest.approx(np.hypot(momentum, mass), rel=1e-14)
    assert w_out == pytest.approx(
        np.sqrt(momentum**2 + mass**2 * (1.0 + 2.0 * epsilon)), rel=1e-14
    )
