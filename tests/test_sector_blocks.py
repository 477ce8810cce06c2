"""Sector-block storage against the dense reference and the per-sector
loops, footprint, layout checks."""

import dataclasses
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    TransitionKernel,
    TruncationSpec,
    entropy_distributions,
    quantum_relative_entropy,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.fock import (
    SectorIndex,
    sector_index,
    sector_layout,
    sector_spectral,
)
from cosmoflux.report import _conservation_checks
from cosmoflux.thermo import _work_pass, inner_friction

from conftest import Z_CANON
from dense_reference import (
    array_bytes,
    dense_crooks_microstate,
    dense_entropy_lattice,
    dense_mean_created,
    dense_mean_final_total,
    dense_state_vector,
    dense_totals,
    dense_view,
    reference_entropy_pass,
    reference_gibbs_weights,
    reference_relative_entropy,
    reference_work_sums,
)


@settings(max_examples=15, deadline=None)
@given(
    z=st.floats(min_value=0.0, max_value=0.8, allow_nan=False),
    t_ratio=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    cutoff=st.integers(min_value=8, max_value=16),
)
def test_sectors_match_dense_reference(z, t_ratio, cutoff):
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    w = dense_state_vector(thermal.weights, cutoff)
    P = dense_view(kern.amplitudes, cutoff) ** 2

    # kernel: every block within rounding of the spectral route on a box
    # padded by 100 (the tests' analytic formula is off by up to 1.1e-11
    # here), and the leakage the columns' missing mass
    for d, A in enumerate(kern.amplitudes):
        spectral = sector_spectral(z, d, len(A) + 100, corner=len(A))
        assert np.max(np.abs(A - spectral)) <= 1e-13
    assert np.array_equal(
        dense_state_vector(kern.column_leakage, cutoff),
        np.maximum(1.0 - P.sum(axis=0), 0.0),
    )

    # averages and lattice masses: summation order differs, so the gap is
    # bounded by sum length x unit roundoff x the size of the summands
    # (masses sum to at most 1, totals are at most 2N)
    rounding = (cutoff + 1) ** 2 * np.finfo(float).eps
    work = inner_friction(kern, thermal, 1.0, 2.0)
    n_i = float(dense_totals(cutoff) @ w)
    dense_work = 2.0 * (dense_mean_final_total(P, w, cutoff) + 1.0) - (n_i + 1.0)
    assert abs(work.mean_work - dense_work) <= rounding * 2.0 * 2 * cutoff
    created = work.mean_created
    assert abs(created - dense_mean_created(P, w, cutoff)) <= rounding * 2 * cutoff
    # expansion and contraction trajectory masses p(m|n) w(n), p(m|n) w(m)
    J, Q = P * w[None, :], P * w[:, None]
    rate = 1.0 / t_ratio
    p_e, p_c, micro_dev = entropy_distributions(kern, thermal)
    lattice_e = _lattice(p_e.support, p_e.masses, rate, cutoff)
    lattice_c = _lattice(-p_c.support, p_c.masses, rate, cutoff)
    assert np.max(np.abs(lattice_e - dense_entropy_lattice(J, cutoff))) <= rounding
    assert np.max(np.abs(lattice_c - dense_entropy_lattice(Q, cutoff))) <= rounding

    # microstate Crooks residual: same entries, same arithmetic, same max
    assert micro_dev == dense_crooks_microstate(J, Q, rate, cutoff)


def _lattice(support, masses, rate, cutoff):
    """Masses per integer total change, offset by 2*cutoff (length 4N+1)."""
    full = np.zeros(4 * cutoff + 1)
    full[np.rint(support / rate).astype(int) + 2 * cutoff] = masses
    return full


def _same_bits(flat_views, reference):
    assert len(flat_views) == len(reference)
    for view, ref in zip(flat_views, reference):
        assert view.shape == ref.shape and view.dtype == ref.dtype
        assert view.tobytes() == ref.tobytes()


EPS = np.finfo(float).eps


def _entry_count(cutoff):
    """Entries of the box's blocks, sum_n n^2 over sizes n = 1..N+1: at
    least the terms of any sum a stage takes over the kernel buffer."""
    return (cutoff + 1) * (cutoff + 2) * (2 * cutoff + 3) // 6


# The flat stages against the per-sector loops they replaced
# (dense_reference). Where a stage's float operations per entry are those
# of the loop, the bits must agree: the column leakage, the Gibbs weights,
# the microstate Crooks residual and K. The lattice masses bin the same
# nonnegative entries in another order, so each bin may differ by the
# rounding of a sum of that many terms: terms x eps x the bin's mass.
@settings(max_examples=30, deadline=None)
@given(
    z=st.one_of(
        st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
        st.sampled_from([0.0, 5e-324]),
    ),
    t_ratio=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    cutoff=st.integers(min_value=8, max_value=48),
)
def test_flat_stages_match_the_per_sector_loops(z, t_ratio, cutoff):
    # the reference loops read the production kernel: its accuracy is
    # tested against the spectral route (test_fock), its passes here
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5)
    kern = transition_kernel(z, spec)
    amps = kern.amplitudes
    probs = [A**2 for A in amps]
    colsums = [P.sum(axis=0) for P in probs]
    _same_bits(kern.column_leakage, [np.maximum(1.0 - c, 0.0) for c in colsums])

    weights, defect = reference_gibbs_weights(t_ratio, 1.0, cutoff)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    _same_bits(thermal.weights, weights)
    assert thermal.renorm_defect == defect
    vacuum = thermal_distribution(0.0, 1.0, spec)
    _same_bits(vacuum.weights, reference_gibbs_weights(0.0, 1.0, cutoff)[0])

    p_e, p_c, micro_dev = entropy_distributions(kern, thermal)
    mass_e, mass_c, ref_dev = reference_entropy_pass(probs, weights, 1.0 / t_ratio, cutoff)
    keep = (mass_e > 0.0) | (mass_c > 0.0)
    bound = _entry_count(cutoff) * EPS
    assert np.all(np.abs(p_e.masses - mass_e[keep]) <= bound * mass_e[keep])
    assert np.all(np.abs(p_c.masses - mass_c[keep][::-1]) <= bound * mass_c[keep][::-1])
    assert micro_dev == ref_dev

    K = quantum_relative_entropy(thermal, kern, 2.0 * t_ratio)
    assert K == reference_relative_entropy(amps, weights)


# The work pass against the four per-sector loops the bookkeeping once ran
# (dense_reference.reference_work_sums), for a full kernel at T > 0. Both
# sum the same nonnegative terms in other orders for the leakage and
# <n_i>, which agree within terms x eps x the sum. <n_f> and <n_c> sum
# terms p(m|n) w(n) times total(m), total(n) or their difference, each of
# size at most p(m|n) w(n) (total(m) + total(n)), so they agree within
# terms x eps x (<n_f> + <n_i>); the loops' <n_c>, a difference of two
# such sums, has no better bound. Its own accuracy is tested against the
# closed form (test_mean_created_meets_the_closed_form_at_slow_expansion). At
# T = 0 the pass reads the vacuum column alone, from a vacuum kernel or a
# full one, and <n_c> is the truncated series sum_{p <= N} 2p (1 - r) r^p,
# r = tanh^2 z, to 1e-14 relative (a BLAS dot over the whole block met
# 2.2e-15).
def _truncated_pair_count(z, cutoff):
    """2r (1 - (N+1) r^N + N r^(N+1)) / (1 - r), the series' closed form,
    at 40 digits from the double z."""
    with mpmath.workdps(40):
        r, n = mpmath.tanh(z) ** 2, cutoff
        return float(2 * r * (1 - (n + 1) * r**n + n * r ** (n + 1)) / (1 - r))


@settings(max_examples=20, deadline=None)
@given(
    z=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    t_ratio=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    cutoff=st.integers(min_value=8, max_value=48),
)
def test_work_pass_matches_the_per_sector_loops(z, t_ratio, cutoff):
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5)
    full = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    leakage, final, initial, created = reference_work_sums(
        [A**2 for A in full.amplitudes], full.column_leakage,
        thermal.weights, thermal.renorm_defect,
    )
    sums = _work_pass(full, thermal)
    bound = _entry_count(cutoff) * EPS
    assert abs(sums.leakage - leakage) <= bound * leakage
    assert abs(sums.initial - initial) <= bound * initial
    assert abs(sums.final - final) <= bound * (final + initial)
    assert abs(sums.created - created) <= bound * (final + initial)
    # inner_friction reports the pass's own sums
    work = inner_friction(full, thermal, 1.0, 2.0)
    assert (work.weighted_leakage, work.mean_work, work.mean_created) == (
        sums.leakage, 2.0 * (sums.final + 1.0) - 1.0 * (sums.initial + 1.0), sums.created
    )

    vacuum = thermal_distribution(0.0, 1.0, spec)
    closed = _truncated_pair_count(z, cutoff)
    for kernel in (transition_kernel(z, spec, True), full):
        sums = _work_pass(kernel, vacuum)
        assert sums.leakage == kernel.column_leakage[0][0] + vacuum.renorm_defect
        assert sums.initial == 0.0 and sums.final == sums.created
        # relative, with a floor below which the squares are subnormal
        assert abs(sums.created - closed) <= 1e-14 * closed + np.finfo(float).tiny


def test_sector_index_tables_fit_their_budget():
    # the tables are built once per cutoff and live as long as the process,
    # so the indices are held in the narrowest integer types: 5 bytes per
    # kernel entry in all at cutoffs 40 and 56, where the three per-entry
    # index arrays alone would take 24 as int64
    for cutoff, held in ((40, 119_966), (56, 318_478)):
        ix = sector_index(cutoff)
        assert sector_index(cutoff) is ix
        tables = [
            getattr(ix, f.name) for f in dataclasses.fields(SectorIndex)
            if isinstance(getattr(ix, f.name), np.ndarray)
        ]
        assert sum(a.nbytes for a in tables) == held
        for a in tables:
            assert a.dtype.kind == "u" and a.dtype.itemsize <= 2
            with pytest.raises(ValueError):
                a[0] = 0


def test_sector_views_cannot_be_made_writeable(kernel40, thermal40, spec40):
    # a sweep shares one kernel between its points: no view into its
    # buffers may be turned back into a writeable array
    vacuum = transition_kernel(Z_CANON, spec40, True)
    for views in (
        kernel40.amplitudes, kernel40.column_leakage,
        vacuum.amplitudes, vacuum.column_leakage,
        thermal40.weights, thermal_distribution(0.0, 1.0, spec40).weights,
    ):
        for view in views:
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view.flags.writeable = True
    for flat in (
        kernel40.flat_amplitudes, kernel40.flat_column_leakage,
        thermal40.flat_weights,
    ):
        with pytest.raises(ValueError):
            flat[0] = 0.0


def test_footprint_at_cutoff_56():
    # the dense kernel alone held 57^4 doubles (85 MB) at this cutoff
    spec = TruncationSpec(cutoff=56, leakage_tolerance=1e-8)
    kern = transition_kernel(Z_CANON, spec)
    assert array_bytes(kern) < 2 * 2**20


@pytest.mark.parametrize("cutoff, vacuum, expected", [
    (40, False, 197_456), (56, False, 520_144), (56, True, 464),
])
def test_kernel_holds_each_quantity_once(cutoff, vacuum, expected):
    # one double per block entry (the signed amplitude) and one per state
    # (the column leakage); every consumer squares the amplitudes into
    # p(m|n) itself. A vacuum kernel holds the vacuum column of d = 0, its
    # cutoff + 1 entries and one leakage value
    fields = [f.name for f in dataclasses.fields(TransitionKernel)]
    assert fields == ["z", "spec", "vacuum", "flat_amplitudes", "flat_column_leakage"]
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=1e-8)
    kern = transition_kernel(Z_CANON, spec, vacuum)
    if vacuum:
        held = 8 * (cutoff + 1 + 1)
    else:
        held = 8 * sum(n * n + n for n in range(cutoff + 1, 0, -1))
    assert array_bytes(kern) == held == expected


def test_conservation_checks_flag_wrong_layout(kernel40):
    good = sector_layout(40)
    assert all(ok for _, ok, _ in _conservation_checks(kernel40, good))
    # diagonal states (i, i) for every sector, totals missing the factor 2
    wrong = tuple(
        replace(s, index=np.arange(s.size) * 42, totals=np.arange(s.size) + s.d)
        for s in good
    )
    checks = {name: ok for name, ok, _ in _conservation_checks(kernel40, wrong)}
    assert checks == {"difference-conservation": False, "parity-support": False}
