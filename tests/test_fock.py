import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from cosmoflux import (
    LeakageError,
    NumericError,
    TruncationSpec,
    squeeze_operator_oracle,
    suggested_cutoff,
    transition_kernel,
    vacuum_column_leakage,
)
import cosmoflux.fock as fock_mod
from cosmoflux.fock import (
    SectorTables,
    sector_layout,
    sector_spectral,
    sector_tables,
)

from conftest import Z_CANON
from dense_reference import (
    basis_states,
    dense_generator,
    dense_view,
    reference_sector_amplitudes,
)

# 50-digit reference values for <m| S |n> at tanh z = 1/2 (and one at z = 1).
AMPLITUDE_TABLE = [
    (Z_CANON, (0, 0), (0, 0), 0.8660254037844386),
    (Z_CANON, (0, 0), (1, 1), 0.4330127018922193),
    (Z_CANON, (0, 0), (2, 2), 0.21650635094610965),
    (Z_CANON, (1, 1), (0, 0), -0.4330127018922193),
    (Z_CANON, (1, 1), (1, 1), 0.4330127018922193),
    (Z_CANON, (1, 1), (2, 2), 0.5412658773652742),
    (Z_CANON, (1, 0), (2, 1), 0.5303300858899106),
    (Z_CANON, (2, 1), (1, 0), -0.5303300858899106),
    (1.0, (0, 0), (3, 3), 0.2862741853954013),
]


@pytest.mark.parametrize("z, n, m, expected", AMPLITUDE_TABLE)
def test_amplitude_reference_values(z, n, m, expected):
    # <m|S|n> sits in sector d = |n_a - n_b| at positions min(m), min(n)
    p, q = min(m), min(n)
    amp = reference_sector_amplitudes(z, abs(n[0] - n[1]), max(p, q) + 1)[p, q]
    assert amp == pytest.approx(expected, abs=5e-15)


def test_spectral_rejects_bad_arguments():
    # a negative z would silently give the inverse squeeze, a NaN an all-NaN
    # block; both fail whether z is one value or an array
    spec = TruncationSpec(cutoff=8, leakage_tolerance=1e-2)
    for z in (-0.5, np.nan, np.inf, [0.5, -0.1], [np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(ValueError, match="squeeze parameter"):
            sector_spectral(z, 0, 3)
        with pytest.raises(ValueError, match="squeeze parameter"):
            squeeze_operator_oracle(z, spec)
    with pytest.raises(ValueError, match="scalar or a 1-D array"):
        sector_spectral([[0.5]], 0, 3)
    with pytest.raises(ValueError):
        sector_spectral(0.5, -1, 3)
    with pytest.raises(ValueError):
        sector_spectral(0.5, 0, 0)
    for d, size in ((1.5, 3), (0, 3.0)):
        with pytest.raises(ValueError, match="must be integers"):
            sector_spectral(0.5, d, size)
    for corner in (0, 4):
        with pytest.raises(ValueError, match="corner must lie in"):
            sector_spectral(0.5, 0, 3, corner=corner)


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(cutoff=-1)
    with pytest.raises(ValueError):
        TruncationSpec(cutoff=8, leakage_tolerance=0.0)
    with pytest.raises(ValueError):
        TruncationSpec(cutoff=8, leakage_tolerance=1.5)


def test_sector_layout_built_once_and_read_only():
    layout = sector_layout(12)
    assert sector_layout(12) is layout
    with pytest.raises(ValueError):
        layout[3].totals[0] = 0
    # the z-free tables of the analytic blocks are cached the same way
    tables = sector_tables(12)
    assert sector_tables(12) is tables
    for f in dataclasses.fields(SectorTables):
        with pytest.raises(ValueError):
            getattr(tables, f.name)[0] = 0


BITWISE_Z = [1e-300, 0.25, Z_CANON, 1.0]


def assert_same_bits(block, reference):
    assert block.shape == reference.shape
    assert block.tobytes() == reference.tobytes()


# The analytic sum is ill-conditioned: reordering its float operations moves
# entries by up to 3e-8 at cutoff 40, so the table-driven builder must
# reproduce the plain per-sector formula bit for bit, signed zeros included.
@pytest.mark.parametrize("cutoff", [8, 40, 56])
@pytest.mark.parametrize("z", BITWISE_Z)
def test_blocks_equal_the_per_sector_formula_bitwise(z, cutoff):
    layout = sector_layout(cutoff)
    references = [reference_sector_amplitudes(z, s.d, s.size) for s in layout]
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5)
    if (z, cutoff) == (1.0, 56):
        # the sum has lost double precision there, and the kernel says so
        with pytest.raises(NumericError):
            transition_kernel(z, spec)
        return
    kernel = transition_kernel(z, spec)
    assert not kernel.vacuum and len(kernel.amplitudes) == len(layout)
    for block, reference in zip(kernel.amplitudes, references):
        assert_same_bits(block, reference)


@pytest.mark.parametrize("z", BITWISE_Z)
def test_battery_blocks_equal_the_per_sector_formula_bitwise(z):
    # the verify battery's kernels: the 9 x 9 corners of blocks d = 0..8 at
    # cutoff 16 are the 9 x 9 blocks of the formula, since a larger box
    # only adds exact zeros to the triangular product, and the vacuum
    # column at cutoff 11 is the 12 x 12 block's
    blocks = transition_kernel(z, TruncationSpec(16, 1e-2)).amplitudes
    for d in range(9):
        assert_same_bits(blocks[d][:9, :9], reference_sector_amplitudes(z, d, 9))
    vacuum = transition_kernel(z, TruncationSpec(11, 1e-2), vacuum=True)
    assert_same_bits(
        vacuum.amplitudes[0][:, 0], reference_sector_amplitudes(z, 0, 12)[:, 0]
    )


def test_generator_antisymmetric_and_sector_structured():
    # the dense generator is a test-side reference; its exponential must
    # reproduce the oracle's per-sector spectral blocks
    spec = TruncationSpec(cutoff=6, leakage_tolerance=1e-2)
    G = dense_generator(0.7, 6)
    assert np.max(np.abs(G + G.T)) == 0.0
    states = basis_states(6)
    for i, n in enumerate(states):
        for j, m in enumerate(states):
            if G[i, j] != 0.0:
                # only pair creation/annihilation couples states
                assert abs(m[0] - n[0]) == 1 and m[0] - n[0] == m[1] - n[1]
    # matrix element of z(a+b+ - ab): <1,1| G |0,0> = z
    assert G[states.index((1, 1)), 0] == pytest.approx(0.7)
    blocks = squeeze_operator_oracle(0.7, spec)
    assert np.max(np.abs(expm(G) - dense_view(blocks, 6))) <= 1e-12


@pytest.mark.parametrize("z", [Z_CANON, 1.0, 1.2])
def test_oracle_orthogonal_on_box(z):
    spec = TruncationSpec(cutoff=40, leakage_tolerance=1e-2)
    blocks = squeeze_operator_oracle(z, spec)
    defect = max(np.max(np.abs(S.T @ S - np.eye(len(S)))) for S in blocks)
    assert defect <= 1e-12


def test_oracle_difference_blocks_exact(spec40):
    blocks = squeeze_operator_oracle(Z_CANON, spec40)
    assert [S.shape for S in blocks] == [(41 - d, 41 - d) for d in range(41)]
    # the exponential of the full generator has no mass outside the
    # difference sectors, so the blocks lose nothing
    spec = TruncationSpec(cutoff=8, leakage_tolerance=1e-2)
    S = expm(dense_generator(Z_CANON, 8))
    occ = np.arange(9)
    dif = (occ[:, None] - occ[None, :]).reshape(-1)
    assert np.max(np.abs(S[dif[:, None] != dif[None, :]])) == 0.0
    oracle = dense_view(squeeze_operator_oracle(Z_CANON, spec), 8)
    assert np.max(np.abs(S - oracle)) <= 1e-12


def test_oracle_vacuum_gate_raises():
    with pytest.raises(LeakageError):
        squeeze_operator_oracle(1.2, TruncationSpec(cutoff=8, leakage_tolerance=1e-8))
    # an array fails if any of its z leaks too much
    with pytest.raises(LeakageError):
        squeeze_operator_oracle([0.1, 1.2], TruncationSpec(cutoff=8, leakage_tolerance=1e-8))


MULTI_Z = np.array([0.0, 0.25, Z_CANON, 1.0, 1.2])


@pytest.mark.parametrize("size, corner", [(1, None), (2, None), (7, None), (97, 9)])
def test_multi_z_blocks_equal_scalar_blocks(size, corner):
    blocks = sector_spectral(MULTI_Z, 3, size, corner)
    n = size if corner is None else corner
    assert blocks.shape == (len(MULTI_Z), n, n)
    for z, block in zip(MULTI_Z, blocks):
        assert np.array_equal(block, sector_spectral(z, 3, size, corner))


def test_multi_z_oracle_equals_scalar_oracle():
    spec = TruncationSpec(cutoff=14, leakage_tolerance=1e-2)
    stacked = squeeze_operator_oracle(MULTI_Z, spec)
    assert [S.shape for S in stacked] == [(len(MULTI_Z), 15 - d, 15 - d) for d in range(15)]
    for i, z in enumerate(MULTI_Z):
        for S, single in zip(stacked, squeeze_operator_oracle(z, spec)):
            assert np.array_equal(S[i], single)


@pytest.mark.parametrize("d, corner", [(12, None), (11, None), (0, 9), (2, 9)])
def test_spectral_blocks_match_dense_exponential(d, corner):
    # on a box of cutoff 12, sector d = 12 has size 1 and d = 11 size 2; the
    # 9-row corner is read from the full-size blocks of d = 0 and d = 2
    sector = sector_layout(12)[d]
    n = sector.size if corner is None else corner
    rows = sector.index[:n]
    blocks = sector_spectral(MULTI_Z, d, sector.size, corner)
    for z, block in zip(MULTI_Z, blocks):
        dense = expm(dense_generator(z, 12))
        assert np.max(np.abs(block - dense[np.ix_(rows, rows)])) <= 1e-12


def test_zero_squeeze_spectral_is_exact_identity():
    for size, corner in ((1, None), (6, None), (40, 9)):
        n = size if corner is None else corner
        assert np.array_equal(sector_spectral(0.0, 2, size, corner), np.eye(n))
        blocks = sector_spectral([0.0, 0.5, 0.0], 2, size, corner)
        assert np.array_equal(blocks[0], np.eye(n))
        assert np.array_equal(blocks[2], np.eye(n))


def test_spectral_decomposition_failure_is_numeric_error(monkeypatch):
    def failing(d, e):
        return np.zeros_like(d), np.eye(len(d)), 1

    monkeypatch.setattr(fock_mod, "dstevd", failing)
    with pytest.raises(NumericError, match="dstevd failed"):
        sector_spectral(0.5, 2, 6)


def test_analytic_matches_spectral_small_indices():
    # spectral route needs headroom: the image of low states must stay
    # inside the box or reflection contaminates the comparison
    worst = 0.0
    for z in (0.25, Z_CANON, 1.0):
        blocks = transition_kernel(z, TruncationSpec(16, 1e-2)).amplitudes
        for d in range(9):
            ana = blocks[d][:9, :9]
            spe = sector_spectral(z, d, 97)[:9, :9]
            worst = max(worst, float(np.max(np.abs(ana - spe))))
    assert worst <= 1e-10


def test_vacuum_column_law(kernel40):
    tau = np.tanh(Z_CANON)
    col = kernel40.amplitudes[0][:, 0] ** 2  # sector d = 0: states (n, n)
    for n in range(11):
        expected = (1.0 - tau * tau) * tau ** (2 * n)
        assert abs(col[n] - expected) / expected <= 1e-9


def test_vacuum_column_leakage_closed_form(kernel40):
    # closed form tau^(2(N+1)) equals the measured column defect
    measured = 1.0 - (kernel40.amplitudes[0][:, 0] ** 2).sum()
    assert vacuum_column_leakage(Z_CANON, 40) == pytest.approx(measured, abs=1e-13)


def test_suggested_cutoff_restores_budget():
    n = suggested_cutoff(1.2, 1e-8)
    assert vacuum_column_leakage(1.2, n) <= 1e-8
    assert vacuum_column_leakage(1.2, n - 4) > 1e-8
    with pytest.raises(ValueError, match="no cutoff"):
        suggested_cutoff(20.0, 1e-8)  # tanh(20) rounds to 1


def test_transition_kernel_gate_raises():
    with pytest.raises(LeakageError):
        transition_kernel(1.2, TruncationSpec(cutoff=8, leakage_tolerance=1e-8))


def test_transition_kernel_rejects_nan_squeeze():
    # a NaN z passes the vacuum gate (NaN compares false) and once gave an
    # all-NaN kernel; the amplitude route now refuses it
    with pytest.raises(ValueError, match="squeeze parameter"):
        transition_kernel(np.nan, TruncationSpec(cutoff=10))


def test_transition_kernel_rejects_infinite_squeeze():
    # the domain guard runs before the vacuum gate, which once refused an
    # infinite z as a budget error ("tanh(z) rounds to 1")
    for z in (np.inf, -0.1):
        with pytest.raises(ValueError, match="squeeze parameter"):
            transition_kernel(z, TruncationSpec(cutoff=10))


def test_transition_kernel_instability_raises():
    # the log-domain triangular product loses all significance well above
    # the leakage-driven cutoff; the column-sum excess check must fire
    with pytest.raises(NumericError):
        transition_kernel(1.2, TruncationSpec(cutoff=64, leakage_tolerance=1e-2))


def test_kernel_arrays_read_only(kernel40):
    # a sweep shares one kernel between its points
    for blocks in (kernel40.amplitudes, kernel40.column_leakage):
        for a in blocks:
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_vacuum_kernel_holds_the_full_kernels_vacuum_column(kernel40, spec40):
    # a vacuum point builds the d = 0 block's vacuum column only; it is the
    # full kernel's, and the block's other columns hold 0 and leak 1
    vac = transition_kernel(Z_CANON, spec40, True)
    assert vac.vacuum and not kernel40.vacuum
    for field in ("amplitudes", "column_leakage"):
        (held,) = getattr(vac, field)
        full = getattr(kernel40, field)[0]
        assert held.shape == full.shape
        assert held[..., 0].tobytes() == full[..., 0].tobytes()
    assert not vac.amplitudes[0][:, 1:].any()
    assert np.all(vac.column_leakage[0][1:] == 1.0)


def test_vacuum_kernel_keeps_its_guards(spec40, monkeypatch):
    # the domain guard, the vacuum gate and the column-sum check all run
    # on the vacuum path
    with pytest.raises(ValueError, match="squeeze parameter"):
        transition_kernel(np.nan, spec40, True)
    with pytest.raises(LeakageError):
        transition_kernel(1.2, TruncationSpec(cutoff=8, leakage_tolerance=1e-8), True)
    real = fock_mod._vacuum_block

    def heavy(z, cutoff):
        block = real(z, cutoff)
        block[1, 0] *= 1.001  # the column now holds more than mass 1
        return block

    monkeypatch.setattr(fock_mod, "_vacuum_block", heavy)
    with pytest.raises(NumericError, match="column mass exceeds 1"):
        transition_kernel(Z_CANON, spec40, True)


def test_column_sum_check_fails_closed_on_nan(spec40, monkeypatch):
    # a NaN column sum once passed "excess > limit" as False
    real = fock_mod._kernel_amplitudes

    def poisoned(z, cutoff):
        amps = real(z, cutoff)
        amps[5] = np.nan
        return amps

    monkeypatch.setattr(fock_mod, "_kernel_amplitudes", poisoned)
    with pytest.raises(NumericError, match="column mass exceeds 1 by nan"):
        transition_kernel(Z_CANON, spec40)


@pytest.mark.parametrize("sectors", [0, 42])
def test_sector_count_out_of_range(spec40, sectors):
    # the third slot once took a sector count; a count is refused, not read
    # as the vacuum flag (0 would build the full kernel, 42 the vacuum one)
    with pytest.raises(ValueError, match="vacuum must be a bool"):
        transition_kernel(Z_CANON, spec40, sectors)


@settings(max_examples=40, deadline=None)
@given(
    z=st.one_of(st.floats(min_value=0.0, max_value=1.5), st.just(5e-324)),
    cutoff=st.integers(min_value=8, max_value=170),
)
def test_vacuum_block_is_the_analytic_column_bitwise(z, cutoff):
    # the O(N) column keeps the float operations the triangular product
    # gives it, so a vacuum point's report does not move by a bit
    block = fock_mod._vacuum_block(z, cutoff)
    column = reference_sector_amplitudes(z, 0, cutoff + 1)[:, 0]
    assert block.shape == (cutoff + 1, cutoff + 1)
    assert block[:, 0].tobytes() == column.tobytes()
    assert not block[:, 1:].any()


def test_kernel_symmetry_exact(kernel40):
    for A in kernel40.amplitudes:
        P = A**2
        assert np.max(np.abs(P - P.T)) == 0.0


def test_kernel_probability_lookup(kernel40):
    tau = np.tanh(Z_CANON)
    p = kernel40.amplitudes[0][1, 0] ** 2  # sector d = 0: (0, 0) -> (1, 1)
    assert p == pytest.approx((1 - tau * tau) * tau * tau, rel=1e-12)


def test_zero_squeeze_is_identity():
    spec = TruncationSpec(cutoff=10)
    kern = transition_kernel(0.0, spec)
    for A in kern.amplitudes:
        assert np.array_equal(A**2, np.eye(len(A)))
    assert max(np.max(leak) for leak in kern.column_leakage) == 0.0


@settings(max_examples=25, deadline=None)
@given(z=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_kernel_columns_substochastic(z):
    spec = TruncationSpec(cutoff=14, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    for A, leak in zip(kern.amplitudes, kern.column_leakage):
        P = A**2
        assert np.min(P) >= 0.0
        colsums = P.sum(axis=0)
        assert np.max(colsums) <= 1.0 + 1e-12
        assert np.max(np.abs(P - P.T)) == 0.0
        # leakage is clipped at zero; an allowed excess below the stability
        # limit may leave a gap of that size
        assert np.max(np.abs((1.0 - colsums) - leak)) <= 2e-9


@settings(max_examples=20, deadline=None)
@given(
    z=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    n=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=0, max_value=6),
    d=st.integers(min_value=0, max_value=4),
)
def test_amplitude_mirror_sign(z, n, m, d):
    # exchanging initial and final states flips the sign with the parity
    # of the number of pair steps between them
    block = reference_sector_amplitudes(z, d, max(n, m) + 1)
    fwd, bwd = block[m, n], block[n, m]
    assert fwd == pytest.approx((-1.0) ** abs(m - n) * bwd, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(z=st.floats(min_value=0.05, max_value=1.1, allow_nan=False),
       cutoff=st.integers(min_value=4, max_value=24))
def test_vacuum_leakage_monotone_in_cutoff(z, cutoff):
    assert vacuum_column_leakage(z, cutoff + 1) < vacuum_column_leakage(z, cutoff)
