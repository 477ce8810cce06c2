"""Truncated two-mode Fock space and the squeeze-transition kernel.

Mode occupations (n_a, n_b) live on a square box 0..cutoff per mode. The
squeeze unitary S = exp(z(a+b+ - ab)) conserves n_a - n_b, so every operator
is block-diagonal in the difference sector d and is stored only as its
blocks. This module owns the sector layout (sector_layout) and its flat
storage: a kernel keeps each per-sector quantity in one sector-major buffer
(the blocks d = 0..cutoff end to end, or their states end to end), and its
per-sector blocks are read-only views into that buffer (sector_views). It
stores the signed amplitudes, not their squares: every stage that reads
p(m|n) squares the buffer itself, once per call.
sector_index holds, once per cutoff, the gather indices that let a stage
treat every sector of a buffer in one array pass.

Two independent evaluation routes are provided:

- the analytic normal-ordered finite sum (transition_kernel, which builds
  every block of the box in _kernel_amplitudes). Entries are exact in exact
  arithmetic, and each column's missing mass is the true probability that
  the image escaped the box, which is what downstream truncation budgets
  need. The alternating sum loses accuracy silently: against the spectral
  route on a box padded by 300, its worst entry is off by 1.3e-5 at
  tanh z = 1/2 with cutoff 40, by 4.4e-4 at z = 1 with cutoff 40 and by
  0.14 at tanh z = 1/2 with cutoff 52. The column-sum excess check
  (COLSUM_EXCESS_LIMIT) catches only the gross failure: at tanh z = 1/2 it
  first fires at cutoff 57. Its z-free parts (log factorials, the p - q
  grids and the triangle mask) are read from sector_tables, and the
  per-entry gathers and mirror signs from sector_index, both built once
  per cutoff beside the layout. transition_kernel gathers them for every
  sector of the box in one pass over its buffer, leaving one matrix
  product per sector, and every entry keeps the float operations of the
  plain per-sector formula in order. A T = 0 point reads only the
  vacuum column of d = 0; transition_kernel with vacuum builds that column
  alone in O(N) work (_vacuum_block), bit for bit the block's, so such a
  point evaluates at cutoffs where the full kernel fails the column-sum
  check.

- sector_spectral: the spectral exponential of the tridiagonal generator.
  Orthogonal-in-the-box at any size (columns renormalize escaped mass back
  into the box), so it is entrywise stable at sizes where the analytic sum
  is not, at the price of reflecting leaked mass instead of measuring it.
  The sector generator is z times a z-free tridiagonal matrix, so one
  eigendecomposition per sector serves every z: the eigenvalues scale with
  z and the block is rebuilt in real arithmetic. It and
  squeeze_operator_oracle take one z or a 1-D array of z; an array gives
  every block a leading z axis.

Both routes raise ValueError for a negative or non-finite z, and
sector_spectral also for a sector label or size that is not an integer;
transition_kernel checks z before its leakage gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.typing import ArrayLike
from scipy.linalg.lapack import dstevd
from scipy.special import gammaln

from .errors import LeakageError, NumericError

# Column sums of squared analytic amplitudes may exceed 1 only by accumulated
# rounding noise; anything larger means the alternating sum cancelled badly.
COLSUM_EXCESS_LIMIT = 1e-9


@dataclass(frozen=True)
class TruncationSpec:
    """Box truncation: maximum occupation per mode and the leakage budget."""

    cutoff: int
    leakage_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        if not 0.0 < self.leakage_tolerance < 1.0:
            raise ValueError(
                f"leakage_tolerance must lie in (0, 1), got {self.leakage_tolerance}"
            )


@dataclass(frozen=True)
class Sector:
    """Difference sector d: the states (i + d, i) for i = 0..cutoff-d.

    For d > 0 the mirrored states (i, i + d) carry an identical block and
    identical per-state values, so sector sums count them once with
    multiplicity 2. index and mirror_index are the states' positions
    n_a * (cutoff + 1) + n_b in the row-major box; totals holds
    total(n) = 2i + d.
    """

    d: int
    multiplicity: int
    totals: np.ndarray
    index: np.ndarray
    mirror_index: np.ndarray

    @property
    def size(self) -> int:
        return len(self.totals)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def sector_layout(cutoff: int) -> tuple[Sector, ...]:
    """Every difference sector of the box, d = 0..cutoff in order.

    Built once per cutoff and shared by every caller, so its arrays are
    read-only.
    """
    side = cutoff + 1
    layout = []
    for d in range(side):
        i = np.arange(side - d)
        layout.append(Sector(
            d=d,
            multiplicity=2 if d else 1,
            totals=_frozen(2 * i + d),
            index=_frozen((i + d) * side + i),
            mirror_index=_frozen(i * side + i + d),
        ))
    return tuple(layout)


@cache
def state_totals(cutoff: int) -> np.ndarray:
    """total(n) of every sector state, sector-major: the layout's totals
    end to end, the order of every per-state buffer. Read-only."""
    return _frozen(np.concatenate([s.totals for s in sector_layout(cutoff)]))


def sector_views(
    flat: np.ndarray, cutoff: int, blocks: bool
) -> tuple[np.ndarray, ...]:
    """Views of the sectors d = 0, 1, ... that a sector-major buffer holds.

    With blocks, sector d takes (cutoff + 1 - d)^2 entries, viewed as its
    row-major square block; without, cutoff + 1 - d, one per sector state.
    The buffer may end after any sector, as a vacuum kernel's does after
    d = 0. Views of a read-only buffer cannot be made writeable.
    """
    views, start = [], 0
    for size in range(cutoff + 1, 0, -1):
        if start >= flat.size:
            break
        stop = start + (size * size if blocks else size)
        view = flat[start:stop]
        views.append(view.reshape(size, size) if blocks else view)
        start = stop
    return tuple(views)


def vacuum_column_leakage(z: float, cutoff: int) -> float:
    """Exact mass the squeezed vacuum loses beyond the box: tanh(z)^(2(N+1)).

    The vacuum image is geometric over pair number with ratio tanh^2(z), so
    the out-of-box tail has this closed form at any cutoff.
    """
    if z == 0.0:
        return 0.0
    return float(np.tanh(z) ** (2 * (cutoff + 1)))


def suggested_cutoff(z: float, leakage_tolerance: float) -> int:
    """Smallest cutoff whose vacuum-column leakage fits the budget.

    Raises ValueError when tanh(z) rounds to 1: the vacuum column then leaks
    everything at every cutoff.
    """
    if z == 0.0:
        return 0
    logtau = np.log(np.tanh(z))
    if logtau == 0.0:
        raise ValueError("no cutoff can hold this squeeze, since tanh(z) rounds to 1")
    needed = np.log(leakage_tolerance) / (2.0 * logtau) - 1.0
    return int(np.ceil(max(needed, 0.0)))


@dataclass(frozen=True)
class SectorTables:
    """z-free grids shared by every difference sector of one box.

    Sector d of the box has size cutoff + 1 - d, and its grids are the
    leading size x size corner of each grid here, indexed [p, q] by final
    and initial sector position. total_change holds
    total(m) - total(n) = 2(p - q), the same in every sector; the rest are
    the z-free parts of the analytic amplitude sum. All arrays are
    read-only.
    """

    log_factorial: np.ndarray  # log k!, k = 0..cutoff
    diff: np.ndarray  # p - q, as float
    neg_log_factorial_diff: np.ndarray  # -log |p - q|!
    lower: np.ndarray  # p >= q
    total_change: np.ndarray  # 2(p - q), as int


@cache
def sector_tables(cutoff: int) -> SectorTables:
    """The z-free grids of the box, built once per cutoff and shared."""
    i = np.arange(cutoff + 1)
    diff = i[:, None] - i[None, :]
    lf = gammaln(i + 1.0)
    return SectorTables(
        log_factorial=_frozen(lf),
        diff=_frozen(diff.astype(float)),
        neg_log_factorial_diff=_frozen(-lf[np.abs(diff)]),
        lower=_frozen(diff >= 0),
        total_change=_frozen(2 * diff),
    )


@dataclass(frozen=True)
class SectorIndex:
    """Where each entry of the box's sector-major buffers reads its inputs.

    Entry k of a kernel buffer is [p, q] of block d, indexed by final and
    initial sector position; block d starts at block_start[d], and sector
    d's states at state_start[d] of a per-state buffer (state_totals
    order). A per-state value of the final state p of every entry is
    np.repeat(values, state_size), since the entries of row p are
    consecutive. Index arrays hold the smallest unsigned integer type that
    fits; all arrays are read-only.
    """

    block_start: tuple[int, ...]  # d = 0..cutoff + 1
    state_start: tuple[int, ...]  # d = 0..cutoff + 1
    grid: np.ndarray  # p (cutoff + 1) + q: the entry in sector_tables' raveled grids
    transpose: np.ndarray  # the entry [q, p] of the same block
    mirror: np.ndarray  # [max(p, q), min(p, q)]: the lower-triangle entry it mirrors
    mirror_sign: np.ndarray  # int8: 1 where p >= q, else the mirror sign (-1)^(p - q)
    state_size: np.ndarray  # per state: the size of its sector, cutoff + 1 - d
    col: np.ndarray  # the initial state of the entry, sector d position q
    lattice: np.ndarray  # d (2 cutoff + 1) + (p - q) + cutoff: sector and total change
    half_log_ratio: np.ndarray  # float: (log p! + log (p+d)! - log q! - log (q+d)!) / 2


@cache
def sector_index(cutoff: int) -> SectorIndex:
    """The gather tables of the box's buffers, built once per cutoff.

    Built sector by sector straight into the narrow arrays, so the build
    holds no wide temporaries of the buffer's length. half_log_ratio keeps
    the operations of the plain per-sector analytic formula
    (_kernel_amplitudes).
    """
    side = cutoff + 1
    sizes = range(side, 0, -1)
    block_start = (0, *np.cumsum([n * n for n in sizes]).tolist())
    state_start = (0, *np.cumsum(sizes).tolist())
    count = block_start[-1]

    def table(top: int) -> np.ndarray:
        return np.empty(count, dtype=np.min_scalar_type(top))

    grid, transpose, mirror = table(side * side - 1), table(count - 1), table(count - 1)
    col = table(state_start[-1] - 1)
    lattice = table(side * (2 * cutoff + 1) - 1)
    mirror_sign = np.empty(count, dtype=np.int8)
    half_log_ratio = np.empty(count)
    lf = sector_tables(cutoff).log_factorial
    for d, size in enumerate(sizes):
        block = slice(block_start[d], block_start[d + 1])
        i = np.arange(size)
        p, q = i[:, None], i[None, :]
        grid[block] = (p * side + q).ravel()
        transpose[block] = (block_start[d] + q * size + p).ravel()
        mirror[block] = (block_start[d] + np.maximum(p, q) * size + np.minimum(p, q)).ravel()
        mirror_sign[block] = np.where((p < q) & ((q - p) % 2 == 1), -1, 1).ravel()
        col[block] = np.tile(state_start[d] + i, size)
        lattice[block] = (d * (2 * cutoff + 1) + cutoff + p - q).ravel()
        pair = lf[:size] + lf[d:size + d]
        half_log_ratio[block] = (0.5 * (pair[:, None] - lf[:size] - lf[d:size + d])).ravel()
    return SectorIndex(
        block_start=block_start,
        state_start=state_start,
        grid=_frozen(grid),
        transpose=_frozen(transpose),
        mirror=_frozen(mirror),
        mirror_sign=_frozen(mirror_sign),
        state_size=_frozen(np.repeat(
            np.arange(side, 0, -1, dtype=np.min_scalar_type(side)), sizes
        )),
        col=_frozen(col),
        lattice=_frozen(lattice),
        half_log_ratio=_frozen(half_log_ratio),
    )


def _squeeze_error(z) -> ValueError:
    return ValueError(f"squeeze parameter must be finite and >= 0, got {z}")


def _squeeze_values(z: ArrayLike) -> np.ndarray:
    """z as a float array, or ValueError unless every entry is finite and >= 0."""
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs) & (zs >= 0.0)):
        raise _squeeze_error(z)
    return zs


def _check_sector(d: int, size: int) -> None:
    """ValueError unless d >= 0 and size >= 1 are integers."""
    if not all(isinstance(v, (int, np.integer)) for v in (d, size)):
        raise ValueError(f"sector label and size must be integers, got {d!r}, {size!r}")
    if size < 1:
        raise ValueError("sector size must be >= 1")
    if d < 0:
        raise ValueError("difference sector label must be >= 0")


def _vacuum_block(z: float, cutoff: int) -> np.ndarray:
    """The d = 0 block of the box with only its vacuum column, in O(N) work.

    Column 0 equals the full kernel's d = 0 column bit for bit: of the
    triangular product only the term of the initial vacuum survives there,
    so each entry is L[p,0] * (sech z * (1.0 * L[0,0])) + 0.0 with the log
    magnitude L[p,0] formed as in _kernel_amplitudes (whose d = 0
    log-factorial ratio is log p! exactly, and L[0,0] is exactly 1). Every
    other column is 0: a vacuum point reads only column 0, and the block
    keeps its full size so that every sum over it takes the same path.
    """
    side = cutoff + 1
    block = np.zeros((side, side))
    if z == 0.0:
        block[0, 0] = 1.0
        return block
    t = sector_tables(cutoff)
    grid = t.diff[:, 0] * np.log(np.tanh(z)) + t.neg_log_factorial_diff[:, 0]
    L = np.exp(grid + t.log_factorial)
    sech = np.exp(-np.log(np.cosh(z)))
    block[:, 0] = L * (sech * (1.0 * L[0])) + 0.0
    return block


def sector_spectral(
    z: ArrayLike, d: int, size: int, corner: int | None = None
) -> np.ndarray:
    """Spectral exponential of the sector generator (brute-force route).

    The generator restricted to a difference sector is z times i times a
    real symmetric tridiagonal matrix T after the phase rotation diag(i^k).
    T does not depend on z, so one eigendecomposition T = V diag(lam) V^T
    serves every z: the block is the real part of
    i^(j-k) [V cos(z lam) V^T - i V sin(z lam) V^T]_jk, which takes the
    cosine part where j - k is even and the sine part where it is odd, with
    the sign of the period-4 pattern of i^(j-k). The result is orthogonal
    to machine precision at any size; z = 0 gives the exact identity.

    z is one value or a 1-D array; for an array the result gains a leading
    z axis. corner, if given, forms only the leading corner x corner entries.
    """
    zs = _squeeze_values(z)
    if zs.ndim > 1:
        raise ValueError("squeeze parameter must be a scalar or a 1-D array")
    _check_sector(d, size)
    n = size if corner is None else corner
    if not 1 <= n <= size:
        raise ValueError(f"corner must lie in [1, {size}], got {corner}")
    if size == 1 or not zs.any():
        return np.broadcast_to(np.eye(n), zs.shape + (n, n)).copy()
    k = np.arange(size - 1)
    # LAPACK's divide-and-conquer driver, the one eigh_tridiagonal picks for
    # a full decomposition, called without that wrapper's checks
    lam, V, info = dstevd(np.zeros(size), np.sqrt((k + 1.0 + d) * (k + 1.0)))
    if info != 0:
        raise NumericError(f"dstevd failed with info = {info} in sector {d}")
    theta = zs[..., None, None] * lam
    Vn = V[:n]
    cos_part = (Vn * np.cos(theta)) @ Vn.T
    sin_part = (Vn * np.sin(theta)) @ Vn.T
    j = np.arange(n)
    phase = (j[:, None] - j[None, :]) % 4
    S = np.where(phase % 2, sin_part, cos_part) * np.where(phase < 2, 1.0, -1.0)
    S[zs == 0.0] = np.eye(n)
    return S


def _gate_vacuum_leakage(z: float, spec: TruncationSpec) -> None:
    vac_leak = vacuum_column_leakage(z, spec.cutoff)
    if vac_leak > spec.leakage_tolerance:
        try:
            hint = f"suggested cutoff >= {suggested_cutoff(z, spec.leakage_tolerance)}"
        except ValueError as exc:
            hint = str(exc)
        raise LeakageError(
            f"vacuum column leaks {vac_leak:.3e} > tolerance "
            f"{spec.leakage_tolerance:.3e} at cutoff {spec.cutoff}; {hint}"
        )


def squeeze_operator_oracle(
    z: ArrayLike, spec: TruncationSpec
) -> tuple[np.ndarray, ...]:
    """Squeeze operator blocks via the spectral route, with a leakage gate.

    Returns one block per difference sector in sector_layout order, each
    from one z-free decomposition of its sector (sector_spectral). z is one
    value or a 1-D array; for an array every block gains a leading z axis.
    Raises LeakageError when the vacuum column already loses more mass than
    the budget allows at any z; entries of such an operator renormalize
    escaped mass back into the box and are not trustworthy for any state of
    interest.
    """
    zs = _squeeze_values(z)
    for value in zs.flat:
        _gate_vacuum_leakage(float(value), spec)
    return tuple(
        sector_spectral(zs, s.d, s.size) for s in sector_layout(spec.cutoff)
    )


def _kernel_amplitudes(z: float, cutoff: int) -> np.ndarray:
    """Analytic amplitudes of every sector of the box, one sector-major buffer.

    Normal-ordered form S = exp(tau a+b+) sech(z)^(n_a+n_b+1) exp(-tau ab)
    with tau = tanh z gives each entry <(p+d, p)|S|(q+d, q)> as a finite
    alternating sum over the lowering count, evaluated per block as the
    triangular matrix product L R, with L formed in log magnitude and R the
    signed transpose of L scaled by powers of sech z. Only the lower
    triangle (p >= q, net raising) is taken from the product; the upper
    triangle follows from the mirror identity
    <m|S|n> = (-1)^(total(n)-total(m)) <n|S|m>, which makes the squared
    entries satisfy the transpose symmetry exactly.

    Each entry gets the operands of the plain per-sector formula's float
    operations in that order (up to x * 1, x - y as x + (-y) and commuted
    products, all exact), so every block is that formula's bit for bit:
    the sum is ill-conditioned, and a reordering would move entries. The
    gathers and in-place updates only replace a per-sector loop, and the
    product stays per sector.
    """
    ix, t = sector_index(cutoff), sector_tables(cutoff)
    if z == 0.0:
        return (np.take(t.diff.ravel(), ix.grid) == 0.0) * 1.0  # identity blocks
    # L = exp((p - q) log tanh z - log (p - q)! + half_log_ratio), 0 above
    # the diagonal, where -inf + half_log_ratio stays -inf
    log_l = np.where(t.lower, t.diff * np.log(np.tanh(z)) + t.neg_log_factorial_diff, -np.inf)
    L = np.take(log_l.ravel(), ix.grid)
    L += ix.half_log_ratio
    np.exp(L, out=L)
    # right factor sech(z)^(total(p) + 1) (-1)^(p - q) L^T[p, q] for p <= q:
    # below the diagonal L^T is 0, so mirror_sign's 1 there leaves it 0
    sech_powers = np.exp(-np.arange(2 * cutoff + 2) * np.log(np.cosh(z)))
    R = np.take(L, ix.transpose)
    R *= ix.mirror_sign
    R *= np.repeat(sech_powers[state_totals(cutoff) + 1], ix.state_size)
    # the product M = L R per block, written over R's block once it is
    # spent, so the build holds two buffers where three would do
    for d, size in enumerate(range(cutoff + 1, 0, -1)):
        span = slice(ix.block_start[d], ix.block_start[d + 1])
        block = R[span].reshape(size, size)
        block[...] = L[span].reshape(size, size) @ block
    M = R
    # lower triangle from the product, upper from the mirror identity;
    # + 0.0 turns -0 into +0, as adding the two zero-padded triangles does
    amps = np.take(M, ix.mirror, out=L, mode="clip")  # L is spent
    amps *= ix.mirror_sign
    amps += 0.0
    return amps


@dataclass(frozen=True)
class TransitionKernel:
    """Signed squeeze amplitudes <m|S|n> with truncation diagnostics.

    amplitudes[d] is the block of difference sector d (sector_layout),
    indexed [final, initial] by the sector position i. Its elementwise
    square is the transition probability p(m|n), which each consumer
    forms per call as flat_amplitudes**2: the same float operation, so the
    same bits, that a stored copy would hold at twice the kernel's bytes.
    column_leakage[d][i] is the true probability that the image of the
    sector state at position i escaped the box. Each is a tuple of
    read-only views (sector_views) into one sector-major buffer,
    flat_amplitudes and flat_column_leakage; only the buffers are fields,
    so each byte is held and counted once. A full kernel holds every
    sector of the box. A vacuum kernel (vacuum True) serves only a T = 0
    point, whose initial state is the vacuum (0, 0): it holds the d = 0
    block alone, and of that block only column 0; its other columns are
    0, so their leakage reads 1. All arrays are read-only, since a sweep
    shares one kernel between its points.
    """

    z: float
    spec: TruncationSpec
    vacuum: bool
    flat_amplitudes: np.ndarray = field(repr=False)
    flat_column_leakage: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # set here rather than declared, so that they are not fields
        cutoff = self.spec.cutoff
        views = sector_views(self.flat_amplitudes, cutoff, True)
        object.__setattr__(self, "amplitudes", views)
        views = sector_views(self.flat_column_leakage, cutoff, False)
        object.__setattr__(self, "column_leakage", views)


def transition_kernel(
    z: float, spec: TruncationSpec, vacuum: bool = False
) -> TransitionKernel:
    """Build the transition kernel from analytic amplitudes.

    Builds every sector of the box, or with vacuum the vacuum kernel: the
    d = 0 block with only its vacuum column, in O(N) work (_vacuum_block).
    That column is the full kernel's bit for bit, and since the block
    skips the columns the analytic sum evaluates least accurately, it also
    holds at cutoffs where the full kernel fails the column-sum check.

    Gates on the closed-form vacuum-column leakage: the vacuum column is the
    slowest-leaking low-lying column, so a budget violation there means the
    box cannot represent this squeeze at all. Columns of higher total leak
    more; their losses are recorded per column and must be folded into
    downstream truncation bounds rather than gated here. The column-sum
    check runs on every block built. vacuum must be a bool: the slot once
    took a sector count, and a count read as a flag would build the wrong
    kernel without a word.
    """
    if not isinstance(vacuum, (bool, np.bool_)):
        raise ValueError(
            f"vacuum must be a bool, got {vacuum!r}: transition_kernel takes "
            "no sector count; pass vacuum=True for the d = 0 vacuum column"
        )
    if not (math.isfinite(z) and z >= 0.0):
        raise _squeeze_error(z)
    _gate_vacuum_leakage(z, spec)
    # the buffers are frozen where they are made; a view of a frozen array
    # cannot be made writeable
    if vacuum:
        block = _frozen(_vacuum_block(z, spec.cutoff))
        amps, colsums = block.ravel(), (block**2).sum(axis=0)
    else:
        amps = _frozen(_kernel_amplitudes(z, spec.cutoff))
        # sums in row order, as a block's sum over axis 0 takes them
        colsums = np.bincount(
            sector_index(spec.cutoff).col,
            weights=amps**2,
            minlength=len(state_totals(spec.cutoff)),
        )
    excess = float(colsums.max()) - 1.0
    if not excess <= COLSUM_EXCESS_LIMIT:  # a NaN column fails too
        raise NumericError(
            f"column mass exceeds 1 by {excess:.3e}: the analytic amplitude "
            f"sum lost double precision at z={z}, cutoff={spec.cutoff}; "
            "reduce the cutoff or the squeeze parameter"
        )
    return TransitionKernel(
        z=z,
        spec=spec,
        vacuum=vacuum,
        flat_amplitudes=amps,
        flat_column_leakage=_frozen(np.maximum(1.0 - colsums, 0.0)),
    )
