import inspect
import warnings

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
    vacuum_table,
)
import cosmoflux.fock as fock_mod
from cosmoflux.fock import sector_layout, sector_spectral

from conftest import Z_CANON, spy_on
from dense_reference import (
    basis_states,
    dense_generator,
    dense_view,
    reference_sector_amplitudes,
    reference_sector_recurrence,
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
    # <m|S|n> sits in sector d = |n_a - n_b| at positions min(m), min(n);
    # the tests' analytic formula and the kernel both hold it
    p, q, d = min(m), min(n), abs(n[0] - n[1])
    amp = reference_sector_amplitudes(z, d, max(p, q) + 1)[p, q]
    assert amp == pytest.approx(expected, abs=5e-15)
    kernel = transition_kernel(z, TruncationSpec(cutoff=8, leakage_tolerance=0.5))
    assert kernel.amplitudes[d][p, q] == pytest.approx(expected, abs=5e-15)


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
    assert TruncationSpec(np.int64(12)).cutoff == 12


@pytest.mark.parametrize("cutoff", [40.0, np.float64(40.0), True, "40", None])
def test_truncation_spec_rejects_a_non_integer_cutoff(cutoff):
    # every stage indexes by the cutoff, so a float one must fail here, not
    # with a TypeError deep inside the kernel or the thermal weights
    with pytest.raises(ValueError, match="cutoff must be an integer"):
        TruncationSpec(cutoff)


def test_sector_layout_built_once_and_read_only():
    layout = sector_layout(12)
    assert sector_layout(12) is layout
    with pytest.raises(ValueError):
        layout[3].totals[0] = 0


# Every z of the accuracy contract: subnormal, tiny, moderate and the
# largest squeeze of the north-star domain.
ACCURACY_Z = [5e-324, 1e-8, 0.25, Z_CANON, 1.0, 1.2, 1.5]
SPECTRAL_PAD = 600


def worst_against_spectral(cutoff, sectors):
    """max |kernel - spectral| over the given sectors and ACCURACY_Z, the
    spectral blocks taken as the corner of a box padded by SPECTRAL_PAD,
    where the images of the box's states stay clear of the pad's edge."""
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5)
    kernels = [transition_kernel(z, spec).amplitudes for z in ACCURACY_Z]
    worst = 0.0
    for d in sectors:
        size = cutoff + 1 - d
        spectral = sector_spectral(ACCURACY_Z, d, size + SPECTRAL_PAD, corner=size)
        built = np.array([blocks[d] for blocks in kernels])
        worst = max(worst, float(np.max(np.abs(built - spectral))))
    return worst


@pytest.mark.parametrize("cutoff", [8, 40, 56])
def test_blocks_match_the_spectral_route(cutoff):
    # the recurrence is stable, so its blocks carry only rounding: every
    # entry of the first, middle and last sectors within 1e-13
    sectors = sorted({0, 1, 5, cutoff // 2, cutoff - 1, cutoff})
    assert worst_against_spectral(cutoff, sectors) <= 1e-13


# The flat builder runs every sector's recurrence at once through the
# lower-triangle buffer and its gather tables; each block must be the one
# the same recurrence gives when run on that sector alone, bit for bit,
# signed zeros included. (1.0, 56) once raised NumericError, where the
# analytic sum had lost double precision.
@pytest.mark.parametrize("cutoff", [8, 40, 56])
@pytest.mark.parametrize("z", [1e-300, 0.25, Z_CANON, 1.0])
def test_blocks_equal_the_per_sector_formula_bitwise(z, cutoff):
    layout = sector_layout(cutoff)
    kernel = transition_kernel(z, TruncationSpec(cutoff=cutoff, leakage_tolerance=0.5))
    assert len(kernel.amplitudes) == len(layout)
    for block, s in zip(kernel.amplitudes, layout):
        reference = reference_sector_recurrence(z, s.d, s.size)
        assert block.shape == reference.shape
        assert block.tobytes() == reference.tobytes()


def test_recurrence_table_stays_finite_at_cutoff_600():
    # the running products of C(p+d, p) are formed on the rows p + d <= N a
    # build reads; past them they once grew until numpy's cumprod
    # overflowed, from cutoff 520 on, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = fock_mod._recurrence_table.__wrapped__(600)
    assert np.all(np.isfinite(table.beta)) and np.all(np.isfinite(table.row_beta))


def test_kernel_accurate_at_cutoff_120():
    # the domain aim's cutoffs: first, middle and last-but-many sectors of
    # every z of the grid within 1e-13 of the spectral route
    assert worst_against_spectral(120, [0, 1, 5, 60]) <= 1e-13


@pytest.mark.parametrize("z", [1e-300, 0.25, Z_CANON, 1.0])
def test_battery_blocks_match_the_spectral_route(z):
    # the verify battery's kernels: the 9 x 9 corners of blocks d = 0..8 at
    # cutoff 16 and the vacuum table at cutoff 11. The tests' analytic
    # formula is off by up to 2.8e-13 on these blocks, so the spectral
    # route on a padded box is the yardstick
    blocks = transition_kernel(z, TruncationSpec(16, 1e-2)).amplitudes
    for d in range(9):
        spectral = sector_spectral(z, d, 97 - d, corner=9)
        assert np.max(np.abs(blocks[d][:9, :9] - spectral)) <= 1e-13
    squares = vacuum_table(z, TruncationSpec(11, 1e-2)).masses[0::2, 0]
    column = sector_spectral(z, 0, 97, corner=12)[:, 0]
    assert np.max(np.abs(squares - column**2)) <= 1e-13


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


def failing_dstevd(d, e):
    return np.zeros_like(d), np.eye(len(d)), 1


def test_spectral_decomposition_failure_is_numeric_error(monkeypatch):
    # an empty table, so that the sector is decomposed here whatever ran
    # before
    fock_mod._sector_eigen.cache_clear()
    monkeypatch.setattr(fock_mod, "dstevd", failing_dstevd)
    with pytest.raises(NumericError, match="dstevd failed"):
        sector_spectral(0.5, 2, 6)


def test_failed_decomposition_is_not_held(monkeypatch):
    # the next call with the real routine decomposes the same sector again
    # and gets the block of the dense exponential
    fock_mod._sector_eigen.cache_clear()
    monkeypatch.setattr(fock_mod, "dstevd", failing_dstevd)
    with pytest.raises(NumericError, match="dstevd failed"):
        sector_spectral(0.5, 2, 6, corner=4)
    assert fock_mod._sector_eigen.cache_info().currsize == 0
    monkeypatch.undo()
    decompositions = spy_on(monkeypatch, fock_mod, "dstevd")
    block = sector_spectral(0.5, 2, 6, corner=4)
    assert len(decompositions) == 1
    rows = sector_layout(7)[2].index[:4]
    dense = expm(dense_generator(0.5, 7))
    assert np.max(np.abs(block - dense[np.ix_(rows, rows)])) <= 1e-12


def test_spectral_table_arrays_are_read_only():
    fock_mod._sector_eigen.cache_clear()
    sector_spectral(0.5, 2, 6, corner=4)
    lam, rows = fock_mod._sector_eigen(2, 6, 4)
    assert lam.shape == (6,) and rows.shape == (4, 6)
    for a in (lam, rows):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # a one-state sector is its own eigenvector
    lam, rows = fock_mod._sector_eigen(3, 1, 1)
    assert lam.tolist() == [0.0] and rows.tolist() == [[1.0]]


@pytest.mark.parametrize("size, corner", [(2, None), (20, None), (97, 9)])
def test_spectral_table_gives_equal_bits(monkeypatch, size, corner):
    # the first call decomposes, the later ones read the table: a scalar z
    # and the same z inside an array give the first call's bits
    fock_mod._sector_eigen.cache_clear()
    decompositions = spy_on(monkeypatch, fock_mod, "dstevd")
    first = sector_spectral(Z_CANON, 3, size, corner)
    second = sector_spectral(Z_CANON, 3, size, corner)
    stacked = sector_spectral([0.25, Z_CANON, 1.0], 3, size, corner)
    assert len(decompositions) == 1
    assert second.tobytes() == first.tobytes()
    assert stacked[1].tobytes() == first.tobytes()
    assert stacked[0].tobytes() == sector_spectral(0.25, 3, size, corner).tobytes()
    assert len(decompositions) == 1


def test_writing_a_returned_block_leaves_the_table_unchanged():
    fock_mod._sector_eigen.cache_clear()
    block = sector_spectral(Z_CANON, 1, 12)
    expected = block.copy()
    block[:] = 7.0
    stacked = sector_spectral([Z_CANON, 1.0], 1, 12)
    stacked[:] = -7.0
    assert sector_spectral(Z_CANON, 1, 12).tobytes() == expected.tobytes()


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


def test_kernel_arrays_read_only(kernel40):
    # a sweep shares one kernel and its table between its points
    table = kernel40.table
    for a in (*kernel40.amplitudes, table.masses, table.leakage):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_vacuum_kernel_holds_the_full_kernels_vacuum_column(kernel40, spec40):
    # a vacuum point builds and holds column 0 of the total table only (the
    # vacuum table, once a vacuum kernel's one column of amplitudes), its
    # 81 cells and one leakage value; both are the kernel table's bit for
    # bit, and its odd rows are exactly 0
    vac = vacuum_table(Z_CANON, spec40)
    assert vac.masses.shape == (81, 1) and vac.leakage.shape == (1,)
    assert (vac.z, vac.spec) == (Z_CANON, spec40)
    assert vac.masses[:, 0].tobytes() == kernel40.table.masses[:, 0].tobytes()
    assert vac.leakage.tobytes() == kernel40.table.leakage[:1].tobytes()
    assert not vac.masses[1::2].any()
    for a in (vac.masses, vac.leakage):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_vacuum_kernel_keeps_its_guards(spec40, monkeypatch):
    # the domain guard, the vacuum gate and the column-sum check all run
    # on the vacuum path, where vacuum_table builds
    with pytest.raises(ValueError, match="squeeze parameter"):
        vacuum_table(np.nan, spec40)
    with pytest.raises(LeakageError):
        vacuum_table(1.2, TruncationSpec(cutoff=8, leakage_tolerance=1e-8))
    real = fock_mod._vacuum_build

    def heavy(z, cutoff):
        amps, _colsums, table = real(z, cutoff)
        table[2, 0] *= 1.002  # cell (2, 0): column 0 now holds more than 1
        return amps, np.cumsum(table[0::2, 0])[-1:], table

    monkeypatch.setattr(fock_mod, "_vacuum_build", heavy)
    with pytest.raises(NumericError, match="column mass exceeds 1"):
        vacuum_table(Z_CANON, spec40)


def test_column_sum_check_fails_closed_on_nan(spec40, monkeypatch):
    # a NaN column sum once passed "excess > limit" as False
    real = fock_mod._amplitudes

    def poisoned(z, cutoff):
        amps = real(z, cutoff)
        amps[5] = np.nan
        return amps

    monkeypatch.setattr(fock_mod, "_amplitudes", poisoned)
    with pytest.raises(NumericError, match="column mass exceeds 1 by nan"):
        transition_kernel(Z_CANON, spec40)


def test_transition_kernel_takes_z_and_spec_alone(spec40):
    # the third slot once took a sector count, then a vacuum flag; a T = 0
    # point now builds vacuum_table, so a third argument is refused
    assert list(inspect.signature(transition_kernel).parameters) == ["z", "spec"]
    with pytest.raises(TypeError):
        transition_kernel(Z_CANON, spec40, True)


@settings(max_examples=40, deadline=None)
@given(
    z=st.one_of(st.floats(min_value=0.0, max_value=1.5), st.just(5e-324)),
    cutoff=st.integers(min_value=8, max_value=170),
)
def test_vacuum_column_matches_the_closed_form(z, cutoff):
    # column 0 of d = 0 is sech(z) tanh(z)^p: the O(N) vacuum table holds
    # its squares to rounding at every cutoff a vacuum point reaches, on
    # the even rows, and nothing else
    masses = vacuum_table(z, TruncationSpec(cutoff, 0.5)).masses
    closed = np.tanh(z) ** np.arange(cutoff + 1) / np.cosh(z)
    assert masses.shape == (2 * cutoff + 1, 1)
    assert np.max(np.abs(masses[0::2, 0] - closed**2)) <= 1e-15
    assert not masses[1::2].any()


@settings(max_examples=15, deadline=None)
@given(
    z=st.one_of(st.floats(min_value=0.0, max_value=1.5), st.just(5e-324)),
    cutoff=st.integers(min_value=8, max_value=64),
)
def test_vacuum_column_is_the_full_kernels_bitwise(z, cutoff):
    # both builders start from one closed form, so a vacuum point's report
    # does not depend on which table it reads
    spec = TruncationSpec(cutoff, 0.5)
    vacuum = vacuum_table(z, spec)
    full = transition_kernel(z, spec).table
    assert vacuum.masses[:, 0].tobytes() == full.masses[:, 0].tobytes()
    assert vacuum.leakage[0].tobytes() == full.leakage[0].tobytes()


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
    # R holds each total's number of box states on its diagonal, and
    # nothing leaks
    t = np.arange(21)
    assert np.array_equal(kern.table.masses, np.diag(np.minimum(t, 20 - t) + 1.0))
    assert not kern.table.leakage.any()


@settings(max_examples=25, deadline=None)
@given(z=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_kernel_columns_substochastic(z):
    spec = TruncationSpec(cutoff=14, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    leakage, terms = np.zeros(29), np.zeros(29)  # per total, 1 - colsum
    for A, s in zip(kern.amplitudes, sector_layout(14)):
        P = A**2
        assert np.min(P) >= 0.0
        colsums = P.sum(axis=0)
        assert np.max(colsums) <= 1.0 + 1e-12
        assert np.max(np.abs(P - P.T)) == 0.0
        np.add.at(leakage, s.totals, (2.0 if s.d else 1.0) * (1.0 - colsums))
        np.add.at(terms, s.totals, 2.0 if s.d else 1.0)
    # leakage is clipped at zero; an allowed excess below the stability
    # limit may leave a gap of that size in each term
    assert np.all(np.abs(leakage - kern.table.leakage) <= 2e-9 * terms)


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
