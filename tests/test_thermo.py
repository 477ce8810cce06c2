import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    LeakageError,
    ThermalDistribution,
    TruncationSpec,
    VerificationError,
    adiabatic_work,
    canonical_config,
    entropy_distributions,
    inner_friction,
    mean_created_closed_form,
    quantum_relative_entropy,
    run_simulation,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.fock import sector_layout, sector_spectral
import cosmoflux.thermo as thermo_mod
from cosmoflux.thermo import (
    _work_pass,
    mean_initial_closed_form,
    truncation_bound,
)

from conftest import Z_CANON, spy_on
from dense_reference import dense_state_vector, sector_weights

# geometric-weight reference values at T = 1, omega = 1 (x = 1/e)
PTH_00 = 0.39957640089372803
PTH_10 = 0.14699594306608088
PTH_11 = 0.054076785389618985
N_INITIAL = 1.163953413738653
W_AD_CANON = 2.163953413738653
N_CREATED_CANON = 1.442635609159102
W_FRIC_CANON = 2.885271218318204
W_MEAN_CANON = 5.049224632056856


def test_thermal_reference_weights(thermal40):
    w = sector_weights(thermal40)  # w[d][i] is the weight of (i + d, i) and (i, i + d)
    assert w[0][0] == pytest.approx(PTH_00, rel=1e-14)
    assert w[1][0] == pytest.approx(PTH_10, rel=1e-14)
    assert w[0][1] == pytest.approx(PTH_11, rel=1e-14)
    assert dense_state_vector(w, 40).sum() == pytest.approx(1.0, abs=1e-14)
    assert thermal40.renorm_defect <= 1e-15


@pytest.mark.parametrize("temperature", [1.0, 1.5])
def test_renorm_defect_is_exact_tail_mass(temperature):
    # the Gibbs mass outside the box is 1 - (1 - x^(N+1))^2; one minus the
    # in-box sum would leave only rounding noise of about 1e-16
    spec = TruncationSpec(cutoff=40, leakage_tolerance=1e-8)
    thermal = thermal_distribution(temperature, 1.0, spec)
    with mpmath.workdps(50):
        t = mpmath.exp(-mpmath.mpf(41) / temperature)
        expected = float(t * (2 - t))
    assert thermal.renorm_defect == pytest.approx(expected, rel=1e-12)


def test_thermal_validation():
    spec = TruncationSpec(cutoff=12)
    with pytest.raises(ValueError):
        thermal_distribution(-1.0, 1.0, spec)
    with pytest.raises(ValueError):
        thermal_distribution(1.0, 0.0, spec)


@pytest.mark.parametrize("temperature, omega", [
    (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf")),
])
def test_thermal_distribution_rejects_non_finite(temperature, omega):
    # a NaN passes the tail gate (NaN compares false) and gave NaN weights;
    # an infinite omega gave a point mass that is not the vacuum path
    with pytest.raises(ValueError, match="must be finite"):
        thermal_distribution(temperature, omega, TruncationSpec(cutoff=12))


def test_thermal_tail_gate_raises():
    # T / omega = 10 cannot be represented at cutoff 40 within 1e-8
    with pytest.raises(LeakageError):
        thermal_distribution(10.0, 1.0, TruncationSpec(cutoff=40))
    # exp(-omega/T) rounds to 1: no mass in the box at all
    with pytest.raises(LeakageError):
        thermal_distribution(1e17, 1.0, TruncationSpec(cutoff=40))


def test_mean_initial_total(kernel40, thermal40):
    initial = _work_pass(kernel40, thermal40).initial
    assert initial == pytest.approx(N_INITIAL, abs=1e-12)
    assert mean_initial_closed_form(1.0, 1.0) == pytest.approx(N_INITIAL, abs=1e-14)


def test_adiabatic_work_closed_form():
    assert adiabatic_work(1.0, 1.0, 2.0) == pytest.approx(W_AD_CANON, abs=1e-14)
    assert adiabatic_work(0.0, 1.0, 2.0) == 1.0  # vacuum: zero-point shift only
    assert adiabatic_work(1.0, 2.0, 2.0) == 0.0


def test_average_work_canonical(work40):
    # the bound is truncation_bound(spec, omega_out, weighted leakage)
    bound = work40.truncation_bound
    assert bound > 0.0
    assert abs(work40.mean_work - W_MEAN_CANON) <= bound + 1e-9


def test_inner_friction_canonical(work40):
    assert abs(work40.mean_work - W_MEAN_CANON) <= 1e-7
    assert work40.adiabatic_work == pytest.approx(W_AD_CANON, abs=1e-13)
    assert abs(work40.inner_friction - W_FRIC_CANON) <= 1e-7
    assert abs(work40.mean_created - N_CREATED_CANON) <= 1e-7
    assert work40.adiabatic_temperature == pytest.approx(2.0, rel=1e-14)
    assert work40.inner_friction >= 0.0
    assert work40.truncation_bound <= 1e-6
    assert work40.weighted_leakage <= 1e-8


def test_work_decomposition_consistent(work40):
    assert work40.mean_work == pytest.approx(
        work40.adiabatic_work + work40.inner_friction, abs=1e-12
    )


def test_friction_equals_paid_creation_cost(work40):
    assert abs(
        work40.inner_friction - work40.omega_out * work40.mean_created
    ) <= work40.truncation_bound + 1e-12


@pytest.mark.parametrize("z, t_ratio", [
    (0.25, 0.1), (0.25, 1.0), (0.25, 2.0),
    (0.5, 0.1), (0.5, 1.0),
    (1.0, 0.1),
])
def test_created_closed_form_region(z, t_ratio):
    # region where cutoff 40 captures the closed form to 1e-6; larger
    # z and hotter states push real mass over the boundary
    spec = TruncationSpec(cutoff=40, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    created = _work_pass(kern, thermal).created
    assert abs(created - mean_created_closed_form(z, t_ratio, 1.0)) <= 1e-6


def test_vacuum_initial_state(kernel40, spec40):
    vac = thermal_distribution(0.0, 1.0, spec40)
    assert vac.is_vacuum
    assert len(sector_weights(vac)) == 1  # the vacuum occupies sector 0 only
    empty = tuple(np.zeros(41 - d) for d in range(1, 41))
    w = dense_state_vector(sector_weights(vac) + empty, 40)
    assert w[0] == 1.0
    assert w.sum() == 1.0
    created = _work_pass(kernel40, vac).created
    assert created == pytest.approx(2.0 * np.sinh(Z_CANON) ** 2, abs=1e-8)
    work = inner_friction(kernel40, vac, 1.0, 2.0)
    assert work.adiabatic_temperature == 0.0
    assert work.adiabatic_work == 1.0


@settings(max_examples=25, deadline=None)
@given(
    z=st.one_of(st.floats(min_value=0.0, max_value=1.5), st.just(5e-324)),
    cutoff=st.integers(min_value=8, max_value=64),
)
def test_vacuum_sums_match_a_full_kernel(z, cutoff):
    # one set of bits at T = 0: the work pass reads the vacuum column alone,
    # which a vacuum kernel and a full kernel hold alike, and the sectors a
    # vacuum kernel skips carry weight exactly 0 in a Gibbs state that
    # lists them
    spec = TruncationSpec(cutoff, 0.5)
    vac = thermal_distribution(0.0, 1.0, spec)
    part, whole = transition_kernel(z, spec, True), transition_kernel(z, spec)
    assert part.vacuum and not whole.vacuum
    expected = dataclasses.astuple(inner_friction(whole, vac, 1.0, 2.0))
    empty = tuple(np.zeros(cutoff + 1 - d) for d in range(1, cutoff + 1))
    listed = ThermalDistribution(
        0.0, 1.0, spec, np.concatenate(sector_weights(vac) + empty), vac.renorm_defect,
        vac.total_weights,
    )
    for kernel, thermal in ((part, vac), (whole, listed), (part, listed)):
        work = dataclasses.astuple(inner_friction(kernel, thermal, 1.0, 2.0))
        assert np.array(work).tobytes() == np.array(expected).tobytes()


def _kernel_stages(kernel, thermal):
    # every stage that pairs a kernel with an initial state
    return (
        lambda: inner_friction(kernel, thermal, 1.0, 2.0),
        lambda: entropy_distributions(kernel, thermal),
        lambda: quantum_relative_entropy(thermal, kernel, 2.0),
    )


def test_thermal_state_needs_every_sector(spec40, thermal40):
    # a vacuum kernel holds the vacuum column alone; a Gibbs state weighs
    # every sector, so the pair is refused
    part = transition_kernel(Z_CANON, spec40, True)
    for stage in _kernel_stages(part, thermal40):
        with pytest.raises(ValueError, match="vacuum kernel .* T = 1.0"):
            stage()


@pytest.mark.parametrize("kernel_cutoff, state_cutoff", [(40, 20), (20, 40)])
def test_kernel_and_state_must_share_a_cutoff(kernel_cutoff, state_cutoff):
    # a mismatch once reached numpy and failed there with a matmul or
    # broadcast message, or as a sector count
    kernel = transition_kernel(Z_CANON, TruncationSpec(kernel_cutoff))
    thermal = thermal_distribution(1.0, 1.0, TruncationSpec(state_cutoff))
    message = f"kernel cutoff {kernel_cutoff} .* cutoff {state_cutoff}"
    for stage in _kernel_stages(kernel, thermal):
        with pytest.raises(ValueError, match=message):
            stage()


def test_zero_squeeze_work_is_adiabatic(thermal40):
    spec = TruncationSpec(cutoff=40, leakage_tolerance=1e-8)
    kern = transition_kernel(0.0, spec)
    work = inner_friction(kern, thermal40, 1.0, 2.0)
    assert abs(work.mean_work - work.adiabatic_work) <= 1e-12
    assert work.mean_created == 0.0
    assert work.inner_friction == pytest.approx(0.0, abs=1e-12)


def test_truncation_bound_scales():
    spec = TruncationSpec(cutoff=20)
    assert truncation_bound(spec, 2.0, 1e-4) == pytest.approx(2.0 * 41 * 1e-4)
    assert truncation_bound(spec, 2.0, 0.0) == 0.0


def test_weighted_leakage_combines_sources(kernel40, thermal40):
    wleak = _work_pass(kernel40, thermal40).leakage
    direct = (
        dense_state_vector(kernel40.column_leakage, 40)
        @ dense_state_vector(sector_weights(thermal40), 40)
        + thermal40.renorm_defect
    )
    assert wleak == pytest.approx(direct, rel=1e-12)


def test_inner_friction_weighs_leakage_once(kernel40, thermal40, monkeypatch):
    # the truncation bound, the reported leakage and every average come
    # from one work pass
    leakage = _work_pass(kernel40, thermal40).leakage
    calls = spy_on(monkeypatch, thermo_mod, "_work_pass")
    work = inner_friction(kernel40, thermal40, 1.0, 2.0)
    assert len(calls) == 1
    assert work.weighted_leakage == leakage
    assert work.truncation_bound == truncation_bound(
        kernel40.spec, 2.0, work.weighted_leakage
    )


def test_friction_consistency_tripwire(kernel40, thermal40, monkeypatch):
    # the friction/creation cross-check is algebraically tight, so the
    # only way to exercise the error branch is to corrupt one route
    original = thermo_mod._work_pass

    def corrupted(kernel, thermal):
        sums = original(kernel, thermal)
        return sums._replace(created=sums.created + 0.5)

    monkeypatch.setattr(thermo_mod, "_work_pass", corrupted)
    with pytest.raises(VerificationError):
        inner_friction(kernel40, thermal40, 1.0, 2.0)


def spectral_mean_created(z, temperature, omega, cutoff):
    """<n_c> from the spectral route's blocks under the box-renormalized
    Gibbs weights: the independent route to the work pass's <n_c>."""
    thermal = thermal_distribution(temperature, omega, TruncationSpec(cutoff, 0.5))
    total = 0.0
    for s, w in zip(sector_layout(cutoff), sector_weights(thermal)):
        P = sector_spectral(z, s.d, s.size) ** 2
        total += (2 if s.d else 1) * float((s.totals @ P - s.totals * P.sum(axis=0)) @ w)
    return total


def test_spectral_route_matches_kernel_route(kernel40, thermal40):
    spectral = spectral_mean_created(Z_CANON, 1.0, 1.0, 40)
    kernelled = _work_pass(kernel40, thermal40).created
    assert abs(spectral - kernelled) <= 1e-7


def test_spectral_route_converges_to_closed_form():
    target = mean_created_closed_form(0.8, 1.5, 1.0)
    gaps = [
        abs(spectral_mean_created(0.8, 1.5, 1.0, n) - target) for n in (40, 72, 104)
    ]
    assert gaps[-1] <= 1e-6
    assert gaps[0] > gaps[-1]


# A slow expansion creates few pairs: 2 sinh^2(z) (<n_i> + 1) is far below
# any in-box total. The work pass sums p(m|n) (total(m) - total(n)) per
# initial state, so <n_c> keeps its digits however small z is; a pass
# that subtracts the sums of p(m|n) total(n) from those of p(m|n)
# total(m) loses them all (82 % low at z <= 1e-20). At N = 40 and T = 1
# the leaked and out-of-box masses are far below 1e-12 relative.
@settings(max_examples=25, deadline=None)
@given(log_z=st.floats(min_value=-150.0, max_value=-2.0, allow_nan=False))
def test_mean_created_meets_the_closed_form_at_slow_expansion(log_z):
    z = 10.0**log_z
    report = run_simulation(canonical_config().replace(z=z))
    closed = mean_created_closed_form(z, 1.0, 1.0)
    assert abs(report["mean_created"] - closed) <= 1e-12 * closed


@settings(max_examples=20, deadline=None)
@given(
    t_ratio=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    z=st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
)
def test_work_report_invariants(t_ratio, z):
    spec = TruncationSpec(cutoff=16, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    work = inner_friction(kern, thermal, 1.0, 2.0)
    assert work.mean_created >= -1e-12
    assert work.inner_friction >= -work.truncation_bound - 1e-12
    assert work.truncation_bound >= 0.0
    assert abs(
        work.mean_work - work.adiabatic_work - work.inner_friction
    ) <= 1e-12 * max(1.0, abs(work.mean_work))
