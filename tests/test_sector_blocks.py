"""Sector-block storage against the dense reference and the per-sector
loops, footprint, layout checks."""

import dataclasses
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
import cosmoflux.fock as fock_mod
from cosmoflux.report import (
    RunConfig,
    SweepConfig,
    _conservation_checks,
    canonical_config,
    run_simulation,
    run_sweep,
)
from cosmoflux.thermo import _work_pass, inner_friction

from conftest import Z_CANON, spy_on
from dense_reference import (
    sector_weights,
    array_bytes,
    dense_entropy_lattice,
    dense_mean_created,
    dense_mean_final_total,
    dense_state_vector,
    dense_total_table,
    dense_totals,
    dense_view,
    reference_cell_residual,
    reference_entropy_pass,
    reference_gibbs_weights,
    reference_relative_entropy,
    reference_total_table,
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
    w = dense_state_vector(sector_weights(thermal), cutoff)
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

    # the total table: each cell sums at most N + 1 squares of either
    # mirror, in another order than the dense route's
    R = kern.total_table
    assert np.all(np.abs(R - dense_total_table(P, cutoff)) <= 2 * (cutoff + 1) * EPS * R)
    # microstate Crooks residual: same cells, same arithmetic, same max
    assert micro_dev == reference_cell_residual(R, thermal.total_weights, rate)


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


def _assert_lattice_within_rounding(p_e, p_c, mass_e, mass_c, rate, cutoff):
    """The lattice masses against the per-sector loops' (mass_e, mass_c, per
    total change offset by 2N), bin by bin over the whole lattice: terms x
    eps x the bin's mass, and where that mass is subnormal (or 0), also
    terms x one subnormal step."""
    terms = _entry_count(cutoff)
    tiny, step = np.finfo(float).tiny, np.finfo(float).smallest_subnormal
    for got, want in (
        (_lattice(p_e.support, p_e.masses, rate, cutoff), mass_e),
        (_lattice(-p_c.support, p_c.masses, rate, cutoff), mass_c),
    ):
        slack = np.where(want < tiny, terms * step, 0.0)
        assert np.all(np.abs(got - want) <= terms * EPS * want + slack)


# The flat stages against the per-sector loops they replaced
# (dense_reference). Where a stage's float operations per entry or per
# cell are those of the loop, the bits must agree: the column leakage, the
# Gibbs weights, K and the microstate Crooks residual of each cell of the
# total table. The total table and the lattice masses sum the same
# nonnegative entries in another order, so each cell and each bin may
# differ by the rounding of a sum of that many terms: terms x eps x its
# mass. The lattice masses weigh a cell's sum, not each entry, so a bin
# whose mass is itself subnormal (below the smallest normal double) may
# also differ by up to one subnormal step per term: at z = 1e-12,
# T = 0.875, N = 15 one bin reads 1e-323 against the loops' 1.5e-323, and
# at z = 1.6e-11, T = 0.38, N = 47 a bin whose every product underflows
# in the loops reads 1.5e-323 from its cell's sum.
@settings(max_examples=30, deadline=None)
@example(z=1e-12, t_ratio=0.875, cutoff=15)
@example(z=1.6186512587190877e-11, t_ratio=0.38190204023551066, cutoff=47)
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
    _same_bits(sector_weights(thermal), weights)
    assert thermal.renorm_defect == defect
    vacuum = thermal_distribution(0.0, 1.0, spec)
    _same_bits(sector_weights(vacuum), reference_gibbs_weights(0.0, 1.0, cutoff)[0])

    R = kern.total_table
    assert np.all(np.abs(R - reference_total_table(probs, cutoff)) <= 2 * (cutoff + 1) * EPS * R)
    p_e, p_c, micro_dev = entropy_distributions(kern, thermal)
    mass_e, mass_c = reference_entropy_pass(probs, weights, cutoff)
    _assert_lattice_within_rounding(p_e, p_c, mass_e, mass_c, 1.0 / t_ratio, cutoff)
    assert micro_dev == reference_cell_residual(R, thermal.total_weights, 1.0 / t_ratio)

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
        sector_weights(thermal), thermal.renorm_defect,
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


# The kernel's total table R[t_f, t_i], the sums of p(m|n) over the box
# states of totals t_f and t_i, from which every T > 0 statistic is
# contracted: each cell sums at most N + 1 squares of either mirror, so it
# meets the sum of the squared blocks within (N + 1) x eps x the cell. It
# is symmetric, as p(m|n) = p(n|m), and its column t_i, with the column
# leakage of the states of total t_i, counts those states.
@settings(max_examples=30, deadline=None)
@given(
    z=st.one_of(
        st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
        st.sampled_from([0.0, 5e-324]),
    ),
    cutoff=st.integers(min_value=2, max_value=48),
)
def test_total_table_sums_the_kernel_blocks(z, cutoff):
    kern = transition_kernel(z, TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5))
    R = kern.total_table
    terms = cutoff + 1
    with pytest.raises(ValueError):
        R[0, 0] = 0.0
    expected = reference_total_table([A**2 for A in kern.amplitudes], cutoff)
    assert np.all(np.abs(R - expected) <= terms * EPS * expected)
    assert np.all(np.abs(R - R.T) <= terms * EPS * R)
    totals = np.arange(2 * cutoff + 1)
    states = np.minimum(totals, 2 * cutoff - totals) + 1  # box states per total
    multiplicity = np.where(np.arange(cutoff + 1) > 0, 2.0, 1.0)
    leakage = np.zeros(2 * cutoff + 1)
    for s, leak, m in zip(sector_layout(cutoff), kern.column_leakage, multiplicity):
        np.add.at(leakage, s.totals, m * leak)
    assert np.all(np.abs(R.sum(axis=0) + leakage - states) <= terms * terms * EPS * states)


def test_a_vacuum_point_or_sweep_never_forms_the_total_table(monkeypatch):
    # a T = 0 point builds the vacuum column alone, which holds no table;
    # a sweep at T = 0 does so at every point
    calls = spy_on(monkeypatch, fock_mod, "_full_build")
    report = run_simulation(canonical_config().replace(temperature=0.0))
    base = RunConfig(
        scenario="cosmology", momentum=1.0, mass=1.0, epsilon=3.0, sigma=1.0,
        temperature=0.0, cutoff=56,
    )
    rows = run_sweep(SweepConfig(base=base, axis="sigma", grid=(0.1, 1.0, 10.0)))
    assert "vacuum-path" in report["flags"] and len(rows) == 3
    assert all("vacuum-path" in row["flags"] for row in rows)
    assert calls == []
    assert transition_kernel(Z_CANON, TruncationSpec(40), True).total_table is None


def test_sector_index_tables_fit_their_budget():
    # the tables are built once per cutoff and live as long as the process,
    # so the indices are held in the narrowest integer types: 5 bytes per
    # kernel entry in all at cutoffs 40 and 56, where the three per-entry
    # index arrays alone would take 24 as int64
    for cutoff, held in ((40, 119_105), (56, 316_825)):
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
        sector_weights(thermal40), sector_weights(thermal_distribution(0.0, 1.0, spec40)),
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
    # (the column leakage), expected in all; every consumer squares the
    # amplitudes into p(m|n) itself. A full kernel also holds its
    # (2N+1) x (2N+1) total table. A vacuum kernel holds the vacuum column
    # of d = 0, its cutoff + 1 entries and one leakage value, and no table
    fields = [f.name for f in dataclasses.fields(TransitionKernel)]
    assert fields == [
        "z", "spec", "vacuum", "flat_amplitudes", "flat_column_leakage", "total_table",
    ]
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=1e-8)
    kern = transition_kernel(Z_CANON, spec, vacuum)
    if vacuum:
        held, table = 8 * (cutoff + 1 + 1), 0
        assert kern.total_table is None
    else:
        held = 8 * sum(n * n + n for n in range(cutoff + 1, 0, -1))
        table = 8 * (2 * cutoff + 1) ** 2
        assert kern.total_table.shape == (2 * cutoff + 1, 2 * cutoff + 1)
    assert held == expected
    assert array_bytes(kern) == held + table


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
