"""Sector-block storage against the dense reference and the per-sector
loops, footprint, layout checks."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    NumericError,
    TransitionKernel,
    TruncationSpec,
    entropy_distributions,
    quantum_relative_entropy,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.fock import (
    COLSUM_EXCESS_LIMIT,
    SectorIndex,
    sector_index,
    sector_layout,
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
    reference_kernel,
    reference_relative_entropy,
    reference_sector_amplitudes,
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
    amps = [reference_sector_amplitudes(z, d, cutoff + 1 - d) for d in range(cutoff + 1)]
    P = dense_view(amps, cutoff) ** 2

    # kernel: elementwise the same products, so exactly equal
    assert np.array_equal(dense_view([A**2 for A in kern.amplitudes], cutoff), P)
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


# The flat stages replace per-sector loops without moving a bit: each entry
# gets the same float operations on the same operands, and every sum adds
# in the loop's order. The references are those loops (dense_reference).
@settings(max_examples=30, deadline=None)
@given(
    z=st.one_of(
        st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
        st.sampled_from([0.0, 5e-324]),
    ),
    t_ratio=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    cutoff=st.integers(min_value=8, max_value=48),
)
def test_flat_stages_equal_the_per_sector_loops_bitwise(z, t_ratio, cutoff):
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5)
    amps, probs, colsums = reference_kernel(z, cutoff)
    excess = max(float(c.max()) for c in colsums) - 1.0
    if excess > COLSUM_EXCESS_LIMIT:
        with pytest.raises(NumericError):
            transition_kernel(z, spec)
        return
    kern = transition_kernel(z, spec)
    _same_bits(kern.amplitudes, amps)
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
    assert np.array_equal(p_e.masses, mass_e[keep])
    assert np.array_equal(p_c.masses, mass_c[keep][::-1])
    assert micro_dev == ref_dev

    K = quantum_relative_entropy(thermal, kern, 2.0 * t_ratio)
    assert K == reference_relative_entropy(amps, weights)


def _float_bits(values):
    return [np.float64(v).tobytes() for v in values]


# The work pass takes the four averages the bookkeeping once took in four
# per-sector loops (dense_reference.reference_work_sums), each bit for bit:
# a full kernel at T > 0, a vacuum kernel at T = 0 and a full kernel
# serving a T = 0 point.
@settings(max_examples=20, deadline=None)
@given(
    z=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    t_ratio=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    cutoff=st.integers(min_value=8, max_value=48),
)
def test_work_pass_equals_the_per_sector_loops_bitwise(z, t_ratio, cutoff):
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5)
    try:
        full = transition_kernel(z, spec)
    except NumericError:
        return  # the analytic sum lost double precision; no kernel to sum
    cases = (
        (full, thermal_distribution(t_ratio, 1.0, spec)),
        (transition_kernel(z, spec, True), thermal_distribution(0.0, 1.0, spec)),
        (full, thermal_distribution(0.0, 1.0, spec)),
    )
    for kernel, thermal in cases:
        # the reference loops take squares formed here, so the squaring
        # inside the pass is checked too
        reference = reference_work_sums(
            [A**2 for A in kernel.amplitudes], kernel.column_leakage,
            thermal.weights, thermal.renorm_defect,
        )
        assert _float_bits(_work_pass(kernel, thermal)) == _float_bits(reference)
        leakage, final, initial, created = reference
        work = inner_friction(kernel, thermal, 1.0, 2.0)
        assert _float_bits((work.weighted_leakage, work.mean_work, work.mean_created)) == (
            _float_bits((leakage, 2.0 * (final + 1.0) - 1.0 * (initial + 1.0), created))
        )


def test_sector_index_tables_fit_their_budget():
    # the tables are built once per cutoff and live as long as the process,
    # so the indices are held in the narrowest integer types: 19 bytes per
    # kernel entry in all, 453,460 bytes at cutoff 40, where the five index
    # arrays alone would take 952,840 bytes as int64
    for cutoff, budget in ((40, 0.5 * 2**20), (56, 1.25 * 2**20)):
        ix = sector_index(cutoff)
        assert sector_index(cutoff) is ix
        tables = [
            getattr(ix, f.name) for f in dataclasses.fields(SectorIndex)
            if isinstance(getattr(ix, f.name), np.ndarray)
        ]
        assert sum(a.nbytes for a in tables) <= budget
        for a in tables:
            assert a.dtype.itemsize <= 2 or a.dtype.kind == "f"
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
    (40, False, 197_456), (56, False, 520_144), (56, True, 26_448),
])
def test_kernel_holds_each_quantity_once(cutoff, vacuum, expected):
    # one double per block entry (the signed amplitude) and one per state
    # (the column leakage); every consumer squares the amplitudes into
    # p(m|n) itself. A vacuum kernel holds the d = 0 block and its states
    fields = [f.name for f in dataclasses.fields(TransitionKernel)]
    assert fields == ["z", "spec", "vacuum", "flat_amplitudes", "flat_column_leakage"]
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=1e-8)
    kern = transition_kernel(Z_CANON, spec, vacuum)
    sizes = [cutoff + 1] if vacuum else range(cutoff + 1, 0, -1)
    assert array_bytes(kern) == 8 * sum(n * n + n for n in sizes) == expected


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
