"""Truncated two-mode Fock space and the squeeze-transition kernel.

Mode occupations (n_a, n_b) live on a square box 0..cutoff per mode. The
squeeze unitary S = exp(z(a+b+ - ab)) conserves n_a - n_b, so every operator
is block-diagonal in the difference sector d and is stored only as its
blocks. This module owns the sector layout (sector_layout) and its flat
storage: a full kernel keeps each per-sector quantity in one sector-major
buffer (the blocks d = 0..cutoff end to end, or their states end to end),
and its per-sector blocks are read-only views into that buffer
(sector_views). It stores the signed amplitudes, not their squares: every
stage that reads p(m|n) squares the buffer itself, once per call. The
build also sums the squares into the kernel's total table, (2N+1)^2 cells
keyed by the totals of the final and the initial state, which every T > 0
work and entropy statistic contracts in O(N^2) work (TransitionKernel).
sector_index holds, once per cutoff, the gather indices that let a stage
treat many sectors of a buffer in one array pass.

Every pass over a kernel buffer (the build's gather, column sums and
total table, and the battery's symmetry scan; the relative entropy takes
one block at a time) walks it in chunks of whole sectors of at most
CHUNK_ENTRIES entries (sector_chunks), so that a per-sector sum keeps its
order; each block adds into the total table whole, d ascending, so no
result depends on the chunking. Its temporaries are
work buffers the thread holds across calls (work_buffer), one set per
thread, grown to the largest chunk a call has touched; a pass declares
the buffers it takes (holds_buffers), and a pass called inside another
that holds one of them raises instead of writing over it. So a pass frees
no buffer-length array, the heap does not shrink and regrow around each
op, and a pass's transient memory does not grow with the box. The index
tables are cast into a held intp buffer chunk by chunk (chunk_keys), the
cast np.take and np.bincount would otherwise allocate on every call. The
one box-sized temporary left is the build's lower-triangle buffer, half a
double per entry (_amplitudes).

Two independent evaluation routes are provided:

- the su(1,1) recurrence (transition_kernel, which builds every block of
  the box in _amplitudes). Each block's lower triangle follows from a
  closed-form first column by a three-term recurrence in the column index,
  run forward where it is stable (Gautschi, SIAM Rev. 9, 24 (1967)), one
  step per column for every sector at once; the upper triangle is its
  mirror. Entries are those of the untruncated operator, so each column's
  missing mass is the true probability that the image escaped the box,
  which is what downstream truncation budgets need. Against the spectral
  route on a box padded by 600, every entry agrees to 1e-14 for z from
  5e-324 to 1.5 and cutoffs up to 120. The column-sum excess check
  (COLSUM_EXCESS_LIMIT) stays as a fail-closed guard against a NaN or a
  gross excess. sector_index holds the per-entry gathers of the mirror
  step, and _recurrence_table the recurrence's z-free inputs, each built
  once per cutoff beside the layout. A T = 0 point reads
  only the vacuum column of d = 0; transition_kernel with vacuum builds
  and holds that column alone, N + 1 amplitudes and one leakage value,
  from the same closed form, in O(N) work and bit for bit the full
  kernel's.

- sector_spectral: the spectral exponential of the tridiagonal generator.
  Orthogonal-in-the-box at any size (columns renormalize escaped mass back
  into the box), at the price of reflecting leaked mass instead of
  measuring it, so it serves as the entrywise oracle on a padded box.
  The sector generator is z times a z-free tridiagonal matrix, so one
  eigendecomposition per sector serves every z: the eigenvalues scale with
  z and the block is rebuilt in real arithmetic. The decompositions are a
  read-only table (_sector_eigen), built on first use once per sector,
  size and corner per process, as sector_layout is per cutoff: a process
  decomposes on its first verify battery only. The table holds each
  sector's eigenvalues and the eigenvector rows its corner reads: 264,400
  bytes (0.25 MiB) after the battery, whose N = 40 oracle takes 197,440
  of them, and 13,568,720 bytes (12.9 MiB) after the oracle at N = 170.
  sector_spectral and squeeze_operator_oracle take one z or a 1-D array
  of z; an array gives every block a leading z axis. The decomposition is
  this module's only LAPACK call, made through lapack.dstevd.

Both routes raise ValueError for a negative or non-finite z, and
sector_spectral also for a sector label or size that is not an integer;
transition_kernel checks z before its leakage gate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cache, wraps
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import LeakageError, NumericError
from .lapack import dstevd

# Column sums of squared amplitudes may exceed 1 only by accumulated rounding
# noise; anything larger, or a NaN, means the kernel is broken.
COLSUM_EXCESS_LIMIT = 1e-9

# Most entries a chunk of a pass over a kernel buffer holds (sector_chunks).
# 2^14 doubles are 128 KiB per work buffer: every sector up to cutoff 127
# fits in one chunk, a cutoff-40 box takes two, and the held buffers stay
# small beside the spectral oracle's blocks, which the verify battery
# holds at the same time (with 2^16, one chunk of the whole cutoff-40 box,
# its peak RSS was about 0.2 MiB higher). No result depends on the
# chunking (the build adds each block into the total table whole), so the
# bound trades memory against per-chunk numpy calls only.
CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class TruncationSpec:
    """Box truncation: maximum occupation per mode and the leakage budget."""

    cutoff: int
    leakage_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if isinstance(self.cutoff, bool) or not isinstance(
            self.cutoff, (int, np.integer)
        ):
            raise ValueError(f"cutoff must be an integer, got {self.cutoff!r}")
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
    identical per-state values, so sums over the box count such a sector
    twice. index and mirror_index are the states' positions
    n_a * (cutoff + 1) + n_b in the row-major box; totals holds
    total(n) = 2i + d.
    """

    d: int
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
    The buffer may end after any sector, as the vacuum's Gibbs weights do
    after d = 0. Views of a read-only buffer cannot be made writeable.
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
class SectorIndex:
    """Where each entry of the box's sector-major buffers reads its inputs.

    Entry k of a kernel buffer is [p, q] of block d, indexed by final and
    initial sector position; block d starts at block_start[d], and sector
    d's states at state_start[d] of a per-state buffer (state_totals
    order). col keys sums over each initial state, and change the half
    total change p - q, by which the builder reads the entry's sign and
    power of tanh(z). The kernel builder fills the lower triangles of
    every block column by column into one buffer (_amplitudes): column q
    holds the rows p >= q of every sector, row-major over (p, d), and
    mirror reads each entry from there. Index arrays hold the smallest
    unsigned integer type that fits: 119,105 bytes at cutoff 40,
    13,451,088 at 170. All read-only.
    """

    block_start: tuple[int, ...]  # d = 0..cutoff + 1
    state_start: tuple[int, ...]  # d = 0..cutoff + 1
    mirror: np.ndarray  # [max(p, q), min(p, q)]: its place in the lower-triangle buffer
    change: np.ndarray  # (p - q) + cutoff: half the entry's total change, offset
    col: np.ndarray  # the initial state of the entry, sector d position q


def _lower_starts(cutoff: int) -> tuple[list[int], list[int]]:
    """Where each row p and each column q start in the lower-triangle
    buffer's order, each list ending with its total.

    The rows p of every sector run row-major over (p, d), sector d holding
    rows 0..cutoff - d; column q holds the rows p >= q, the last of them.
    """
    rows = np.arange(cutoff + 1, 0, -1)
    row_start = np.concatenate([[0], np.cumsum(rows)])
    col_start = np.concatenate([[0], np.cumsum(row_start[-1] - row_start[:-1])])
    return row_start.tolist(), col_start.tolist()


@cache
def sector_index(cutoff: int) -> SectorIndex:
    """The gather tables of the box's buffers, built once per cutoff.

    Built sector by sector straight into the narrow arrays, so the build
    holds no wide temporaries of the buffer's length.
    """
    side = cutoff + 1
    sizes = range(side, 0, -1)
    block_start = (0, *np.cumsum([n * n for n in sizes]).tolist())
    state_start = (0, *np.cumsum(sizes).tolist())
    count = block_start[-1]
    row_start, col_start = map(np.array, _lower_starts(cutoff))

    def table(top: int) -> np.ndarray:
        return np.empty(count, dtype=np.min_scalar_type(top))

    mirror = table(col_start[-1] - 1)
    col = table(state_start[-1] - 1)
    change = table(2 * cutoff)
    for d, size in enumerate(sizes):
        block = slice(block_start[d], block_start[d + 1])
        i = np.arange(size)
        p, q = i[:, None], i[None, :]
        hi, lo = np.maximum(p, q), np.minimum(p, q)
        mirror[block] = (col_start[lo] + row_start[hi] - row_start[lo] + d).ravel()
        change[block] = (cutoff + p - q).ravel()
        col[block] = np.tile(state_start[d] + i, size)
    return SectorIndex(
        block_start=block_start,
        state_start=state_start,
        mirror=_frozen(mirror),
        change=_frozen(change),
        col=_frozen(col),
    )


@cache
def cell_changes(cutoff: int) -> np.ndarray:
    """t_f - t_i + 2 cutoff of every cell of a total table, flat and
    row-major: the key of the cell's total change, as the intp array
    np.bincount reads. Built once per cutoff; read-only."""
    t = np.arange(2 * cutoff + 1)
    return _frozen(np.subtract.outer(t, t).ravel() + 2 * cutoff)


class Chunk(NamedTuple):
    """Whole sectors of the box that a pass over a kernel buffer takes at
    once: the sectors d in sectors, their entries of a sector-major kernel
    buffer and their states of a per-state buffer."""

    cutoff: int
    sectors: range
    entries: slice
    states: slice

    @property
    def size(self) -> int:
        return self.entries.stop - self.entries.start

    def views(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """The square blocks of the chunk's sectors in values, its entries
        of a sector-major kernel buffer (sector_views)."""
        return sector_views(values, self.cutoff - self.sectors.start, True)


@cache
def sector_chunks(cutoff: int) -> tuple[Chunk, ...]:
    """The box's sectors in chunks, d ascending: each chunk holds as many
    whole sectors as fit in CHUNK_ENTRIES entries, and a sector larger than
    that (d = 0 past cutoff 127) is a chunk of its own."""
    ix = sector_index(cutoff)
    bs, ss = ix.block_start, ix.state_start
    chunks, first = [], 0
    for d in range(1, cutoff + 2):
        if d > cutoff or bs[d + 1] - bs[first] > CHUNK_ENTRIES:
            chunks.append(Chunk(
                cutoff, range(first, d), slice(bs[first], bs[d]), slice(ss[first], ss[d])
            ))
            first = d
    return tuple(chunks)


class _WorkBuffers(threading.local):
    """One thread's work buffers, by name, held across calls, and the names
    the running passes hold."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}
        self.in_use: set[str] = set()


_BUFFERS = _WorkBuffers()


def holds_buffers(*names: str):
    """Decorate a pass that takes the named work buffers for its whole call.

    A pass may not call another pass that takes a buffer it holds: both
    would write the one held array. Such a call raises RuntimeError
    instead of aliasing, and so does a work_buffer call for a name no
    running pass holds.
    """

    def decorate(run_pass):
        @wraps(run_pass)
        def held_pass(*args, **kwargs):
            in_use = _BUFFERS.in_use
            if not in_use.isdisjoint(names):
                raise RuntimeError(
                    f"{run_pass.__qualname__} takes work buffers "
                    f"{sorted(in_use.intersection(names))} that a calling pass holds"
                )
            in_use.update(names)
            try:
                return run_pass(*args, **kwargs)
            finally:
                in_use.difference_update(names)

        return held_pass

    return decorate


def work_buffer(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """The first size entries of this thread's held work array name.

    The passes over a kernel buffer take their temporaries from here, so
    that a pass frees no buffer-length array: freed ones make the heap
    shrink and regrow around every op, one page fault per page. Each
    thread holds its own set (threads share no buffer), and an array only
    grows, to the largest size a call has asked for. A returned array is a
    view of the held one, valid until the next call for that name: a pass
    returns none of them, only what it computed from them. The caller
    must run inside a pass that holds name (holds_buffers).
    """
    if name not in _BUFFERS.in_use:
        raise RuntimeError(f"work buffer {name!r} taken outside a pass that holds it")
    held = _BUFFERS.arrays.get(name)
    if held is None or held.size < size or held.dtype != dtype:
        _BUFFERS.arrays.pop(name, None)  # dropped before its replacement is made
        held = _BUFFERS.arrays[name] = np.empty(size, dtype)
    return held[:size]


def chunk_keys(table: np.ndarray, chunk: Chunk, offset: int = 0) -> np.ndarray:
    """A sector_index table's keys for the chunk's entries, less offset, as
    the intp array np.take and np.bincount read without a cast of their own;
    held in the work buffer "keys"."""
    keys = work_buffer("keys", chunk.size, np.intp)
    np.copyto(keys, table[chunk.entries])
    if offset:
        keys -= offset
    return keys


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


@cache
def _sector_eigen(d: int, size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The z-free decomposition of sector d's tridiagonal generator at this
    size: its eigenvalues lam and the first n rows of its eigenvectors V.

    Built once per (d, size, n) and shared by every later call, so both
    arrays are read-only. A failed decomposition raises NumericError and is
    not held, since functools.cache stores only returned values.
    """
    k = np.arange(max(size - 1, 1))  # a one-state sector's entry goes unread
    # LAPACK's divide-and-conquer driver, the one eigh_tridiagonal picks for
    # a full decomposition, called without that wrapper's checks
    lam, V, info = dstevd(np.zeros(size), np.sqrt((k + 1.0 + d) * (k + 1.0)))
    if info != 0:
        raise NumericError(f"dstevd failed with info = {info} in sector {d}")
    # a copy holds only the n rows read, in V's column-major order
    return _frozen(lam), _frozen(V[:n].copy(order="K"))


def sector_spectral(
    z: ArrayLike, d: int, size: int, corner: int | None = None
) -> np.ndarray:
    """Spectral exponential of the sector generator (brute-force route).

    The generator restricted to a difference sector is z times i times a
    real symmetric tridiagonal matrix T after the phase rotation diag(i^k).
    T does not depend on z, so one eigendecomposition T = V diag(lam) V^T
    serves every z, and every later call: it is made on the first call for
    this (d, size, corner) and then read from a table (_sector_eigen). The
    block is the real part of
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
    lam, Vn = _sector_eigen(d, size, n)
    theta = zs[..., None, None] * lam
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
    The blocks are views of one sector-major buffer, as a kernel's are, so
    that the battery's oracle is one allocation and not one per sector: a
    run of small frees at the top of the heap makes it shrink and regrow.
    Raises LeakageError when the vacuum column already loses more mass than
    the budget allows at any z; entries of such an operator renormalize
    escaped mass back into the box and are not trustworthy for any state of
    interest.
    """
    zs = _squeeze_values(z)
    for value in zs.flat:
        _gate_vacuum_leakage(float(value), spec)
    layout = sector_layout(spec.cutoff)
    flat = np.empty(zs.size * sum(s.size * s.size for s in layout))
    blocks, start = [], 0
    for s in layout:
        block = flat[start:start + zs.size * s.size * s.size]
        block = block.reshape(zs.shape + (s.size, s.size))
        block[...] = sector_spectral(zs, s.d, s.size)
        blocks.append(block)
        start += block.size
    return tuple(blocks)


class _RecurrenceTable(NamedTuple):
    """The z-free inputs of the kernel build at one cutoff (_amplitudes).

    A row is (p, d), row p of sector d; the rows run row-major over (p, d),
    and column q of the lower-triangle buffer holds the last of them, the
    rows p >= q. Per row: p and d as floats, d as an index, p + d + 1 and
    beta[p, d].
    """

    row_start: list[int]
    col_start: list[int]
    exponents: np.ndarray  # d + 1.0 for d = 0..cutoff: sech(z)^(d+1) starts sector d
    beta: np.ndarray  # [p, d]: sqrt(C(p+d, p)), a running product over p; read on p + d <= cutoff
    signs: np.ndarray  # (-1)^k for k = cutoff..1, the upper triangle's sign
    p: np.ndarray
    d: np.ndarray
    d_index: np.ndarray
    small: np.ndarray  # p + d + 1.0, tanh^2 z's factor in the recurrence
    row_beta: np.ndarray


@cache
def _recurrence_table(cutoff: int) -> _RecurrenceTable:
    """Built once per cutoff, as sector_index is; O(cutoff^2) and read-only."""
    side = cutoff + 1
    d = np.arange(side)
    k = np.arange(1.0, side)[:, None]
    # the factors of C(p+d, p) on p + d <= cutoff, the rows a build reads;
    # past them a factor of 1 holds the product, which would otherwise
    # grow unread until it overflowed (from cutoff 520 on)
    ratios = np.where(k + d <= cutoff, (k + d) / k, 1.0)
    beta = np.sqrt(np.cumprod(np.vstack([np.ones(side), ratios]), axis=0))
    p, d = np.nonzero(np.add.outer(np.arange(side), d) <= cutoff)
    row_start, col_start = _lower_starts(cutoff)
    return _RecurrenceTable(
        row_start=row_start,
        col_start=col_start,
        exponents=_frozen(np.arange(side) + 1.0),
        beta=_frozen(beta),
        signs=_frozen((-1.0) ** np.arange(cutoff, 0, -1)),
        p=_frozen(p.astype(float)),
        d=_frozen(d.astype(float)),
        d_index=_frozen(d),
        small=_frozen(p + d + 1.0),
        row_beta=_frozen(beta[p, d]),
    )


def _amplitudes(z: float, cutoff: int, vacuum: bool) -> np.ndarray:
    """Squeeze amplitudes of every block of the box, one sector-major
    buffer; with vacuum, the N + 1 amplitudes of column 0 of d = 0 alone.

    On the lower triangle q <= p of sector d, with C_j = C(j+d, j),

        A[p, q] = tanh(z)^(p-q) sqrt(C_p / C_q) Phi[p, q],

    where Phi[p, 0] = sech(z)^(d+1) and S^-1 K0 S = cosh(2z) K0 +
    sinh(2z) (K+ + K-) / 2 gives, column by column,

        (q+1) Phi[p, q+1] = ((p-q) - (p+q+d+1) tanh^2 z) Phi[p, q]
                            - (q+d) tanh^2 z Phi[p, q-1].

    Run forward on q <= p only, the recurrence is stable (the wanted
    solution dominates there). It divides by no power of tanh z, and p - q
    is formed exactly before the small term is taken off, so it holds from
    subnormal z up; as z -> 0, Phi[p, q] tends to the integer C(p, q), so
    the diagonal is exactly 1 while C(p, q) (p - q) stays below 2^53. Each
    step fills column q + 1 of every sector at once, reading columns q and
    q - 1 from the same buffer, which takes half a double per kernel entry
    and is the build's one temporary sized by the box. The z-free inputs
    (C_j, p + d + 1, the rows' layout) come from _recurrence_table, and the
    per-row temporaries are held work buffers. The upper triangle follows
    from the mirror identity <m|S|n> = (-1)^(total(n)-total(m)) <n|S|m>,
    which makes the squared entries satisfy the transpose symmetry
    exactly; the gather, chunk by chunk, applies the sign and tanh(z)^|p-q|
    together. The vacuum column is column 0 of d = 0 from the same start,
    tanh(z)^p sech(z), bit for bit the full kernel's, in O(N) work and
    memory; it returns before any table is read.
    """
    side = cutoff + 1
    sech, tau = 1.0 / np.cosh(z), np.tanh(z)
    tau_powers = tau ** np.arange(side)
    if vacuum:  # the block's column 0, where sqrt(C_p / C_0) = 1
        return tau_powers * sech
    ix = sector_index(cutoff)
    amps = np.empty(ix.block_start[-1])
    if z == 0.0:
        return np.equal(ix.change, cutoff, out=amps)  # identity blocks
    tab = _recurrence_table(cutoff)
    row_start, col_start, rows = tab.row_start, tab.col_start, len(tab.p)
    lower = np.empty(col_start[-1])
    cols = [lower[a:b] for a, b in zip(col_start, col_start[1:])]
    # mode="clip" writes straight into out, where "raise" would buffer it;
    # every index the tables hold is in range
    np.take(sech ** tab.exponents, tab.d_index, out=cols[0], mode="clip")
    t2 = tau * tau
    small = np.multiply(tab.small, t2, out=work_buffer("small", rows))
    tail = np.multiply(tab.d, t2, out=work_buffer("tail", rows))
    coef, work = work_buffer("coef", rows), work_buffer("work", rows)
    for q in range(cutoff):
        r = slice(row_start[q + 1], None)  # the rows p > q
        new = cols[q + 1]
        coef_r, work_r = coef[r], work[r]
        np.subtract(tab.p[r], q, out=coef_r)  # exact, before the small term
        np.add(small[r], q * t2, out=work_r)
        coef_r -= work_r
        np.multiply(coef_r, cols[q][-len(new):], out=new)
        if q:
            np.add(tail[r], q * t2, out=work_r)
            work_r *= cols[q - 1][-len(new):]
            new -= work_r
        new /= q + 1.0
    for q, col in enumerate(cols):  # times sqrt(C_p / C_q)
        col *= tab.row_beta[row_start[q]:]
        if q:  # sqrt(C_0) is exactly 1
            col /= np.take(
                tab.beta[q], tab.d_index[row_start[q]:], out=work[:len(col)], mode="clip"
            )
    # (-1)^(q-p) for p < q and tanh(z)^|p-q|, keyed by p - q + cutoff
    factor = np.concatenate([tab.signs * tau_powers[:0:-1], tau_powers])
    for chunk in sector_chunks(cutoff):
        out = amps[chunk.entries]
        np.take(lower, chunk_keys(ix.mirror, chunk), out=out, mode="clip")
        out *= np.take(
            factor, chunk_keys(ix.change, chunk),
            out=work_buffer("values", chunk.size), mode="clip",
        )
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
    read-only views into one buffer, flat_amplitudes and
    flat_column_leakage; only the buffers are fields, so each byte is held
    and counted once. A full kernel holds every sector of the box, its
    buffers sector-major (sector_views). A vacuum kernel (vacuum True)
    serves only a T = 0 point, whose initial state is the vacuum (0, 0):
    it holds column 0 of the d = 0 block alone, its N + 1 amplitudes as
    the one (N + 1, 1) view amplitudes[0] and its leakage as the one value
    column_leakage[0][0]. All arrays are read-only, since a sweep shares
    one kernel between its points.

    A full kernel also holds its total table R (total_table), the
    (2N+1) x (2N+1) sums R[t_f, t_i] of p(m|n) over the box states m of
    total t_f and n of total t_i; entry [p, q] of block d falls in cell
    (2p + d, 2q + d), and a block d > 0 counts twice, once for its mirror.
    A Gibbs weight depends on a state's total alone, so every T > 0 work
    and entropy statistic is a contraction of R with the per-total weights
    (thermo._work_pass, fluctuation.entropy_distributions). R is symmetric,
    as p(m|n) = p(n|m), and its column t_i sums to the number of box states
    of total t_i less their column leakage. A vacuum kernel holds none
    (None): a T = 0 point reads the vacuum column alone.
    """

    z: float
    spec: TruncationSpec
    vacuum: bool
    flat_amplitudes: np.ndarray = field(repr=False)
    flat_column_leakage: np.ndarray = field(repr=False)
    total_table: np.ndarray | None = field(repr=False)

    def __post_init__(self) -> None:
        # set here rather than declared, so that they are not fields
        cutoff = self.spec.cutoff
        if self.vacuum:
            amplitudes = (self.flat_amplitudes.reshape(cutoff + 1, 1),)
            leakage = (self.flat_column_leakage[:1],)
        else:
            amplitudes = sector_views(self.flat_amplitudes, cutoff, True)
            leakage = sector_views(self.flat_column_leakage, cutoff, False)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "column_leakage", leakage)


@holds_buffers("small", "tail", "coef", "work", "values", "keys")
def _full_build(z: float, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every block's amplitudes (_amplitudes), frozen; each column's sum of
    their squares, in row order as a block's sum over axis 0 takes it; and
    the total table of the squares (TransitionKernel), frozen.

    Block d's cells (2p + d, 2q + d) are a strided view of the table, so
    each block adds into its view whole, with no per-entry cell index;
    each cell sums its sectors d ascending whatever the chunks, and cells
    [a, b] and [b, a] add equal squares in one order: R is exactly
    symmetric. np.add.at on cell keys formed per chunk from col and change
    took 0.8x as long at cutoff 40, 1.1x at 56 and 1.8x at 120; a stored
    per-entry cell key saved 60-80 us at cutoffs 40 and 56 but held 1-2
    more bytes per entry.
    """
    amps = _frozen(_amplitudes(z, cutoff, False))
    colsums = np.empty(len(state_totals(cutoff)))
    col = sector_index(cutoff).col
    table = np.zeros((2 * cutoff + 1, 2 * cutoff + 1))
    for chunk in sector_chunks(cutoff):
        squares = np.square(amps[chunk.entries], out=work_buffer("values", chunk.size))
        colsums[chunk.states] = np.bincount(
            chunk_keys(col, chunk, chunk.states.start),
            weights=squares, minlength=chunk.states.stop - chunk.states.start,
        )
        # a block d > 0 counts its mirror too: every block past d = 0's
        squares[(cutoff + 1) ** 2 if chunk.sectors.start == 0 else 0:] *= 2.0
        for d, block in zip(chunk.sectors, chunk.views(squares)):
            cells = table[d:d + 2 * len(block):2, d:d + 2 * len(block):2]
            cells += block
    return amps, colsums, _frozen(table)


def transition_kernel(
    z: float, spec: TruncationSpec, vacuum: bool = False
) -> TransitionKernel:
    """Build the transition kernel by the su(1,1) recurrence (_amplitudes).

    Builds every sector of the box, or with vacuum the vacuum kernel: the
    vacuum column of d = 0 alone, in O(N) work from the same closed form,
    so that column and its leakage are the full kernel's bit for bit.

    Gates on the closed-form vacuum-column leakage: the vacuum column is the
    slowest-leaking low-lying column, so a budget violation there means the
    box cannot represent this squeeze at all. Columns of higher total leak
    more; their losses are recorded per column and must be folded into
    downstream truncation bounds rather than gated here. The column-sum
    check runs on every column built. vacuum must be a bool: the slot once
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
    if vacuum:  # column sums in row order by a sequential scan; a 1-D sum would add pairwise
        amps = _frozen(_amplitudes(z, spec.cutoff, vacuum))
        colsums, table = np.cumsum(amps**2)[-1:], None
    else:
        amps, colsums, table = _full_build(z, spec.cutoff)
    excess = float(colsums.max()) - 1.0
    if not excess <= COLSUM_EXCESS_LIMIT:  # a NaN column fails too
        raise NumericError(
            f"column mass exceeds 1 by {excess:.3e} at z={z}, "
            f"cutoff={spec.cutoff}: the kernel is not a substochastic matrix"
        )
    return TransitionKernel(
        z=z,
        spec=spec,
        vacuum=vacuum,
        flat_amplitudes=amps,
        flat_column_leakage=_frozen(np.maximum(1.0 - colsums, 0.0)),
        total_table=table,
    )
