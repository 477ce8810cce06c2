"""Truncated two-mode Fock space, the squeeze-transition kernel and its
total table.

Mode occupations (n_a, n_b) live on a square box 0..cutoff per mode. The
squeeze unitary S = exp(z(a+b+ - ab)) conserves n_a - n_b, so every operator
is block-diagonal in the difference sector d and is stored only as its
blocks. This module owns the sector layout (sector_layout) and its flat
storage: a kernel keeps its amplitudes in one sector-major buffer (the
blocks d = 0..cutoff end to end), and its per-sector blocks are read-only
views into that buffer (sector_views). It stores the signed amplitudes,
not their squares: a stage that reads p(m|n) squares the buffer itself,
once per call.

Every work and entropy statistic of a run contracts one read-only table
(TotalTable), the one thing the work and entropy passes read:
transition_kernel builds all its 2N+1 columns beside the kernel, and
vacuum_table its column 0 alone in O(N) work, bit for bit the same.
sector_index holds, once per cutoff, the build's gather tables and the
chunks its passes walk, and state_totals the totals of the per-state
order; no other module reads them.

The kernel build's passes over its buffer (the gather, the column sums
and the total table) walk it in chunks of whole sectors of at most
CHUNK_ENTRIES entries (sector_index(N).chunks), so that a per-sector sum
keeps its order; each block adds into the total table whole, d
ascending, so no result depends on the chunking. Each pass allocates its
scratch per call, one float64 and one intp array of the largest chunk's
size (_chunk_scratch), so its transient memory does not grow with the box;
the index tables are cast into the intp array chunk by chunk
(chunk_keys). The one box-sized temporary is the build's lower-triangle
buffer, half a double per entry (_amplitudes), freed before the column
sums take their scratch.

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
  once per cutoff beside the layout. vacuum_table takes the vacuum
  column, sech(z) tanh(z)^p, from the recurrence's own start.

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
transition_kernel and vacuum_table check z before their leakage gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import LeakageError, NumericError
from .lapack import dstevd

# Column sums of squared amplitudes may exceed 1 only by accumulated rounding
# noise; anything larger, or a NaN, means the kernel is broken.
COLSUM_EXCESS_LIMIT = 1e-9

# Most entries a chunk of a pass over a kernel buffer holds (SectorIndex).
# 2^14 doubles are 128 KiB per scratch array: every sector up to cutoff
# 127 fits in one chunk, a cutoff-40 box takes two, and the scratch stays
# small beside the kernel it walks. No result depends on the chunking (the
# build adds each block into the total table whole), so the bound trades
# memory against per-chunk numpy calls only.
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


def sector_views(flat: np.ndarray, cutoff: int) -> tuple[np.ndarray, ...]:
    """Views of the square blocks d = 0, 1, ... that a sector-major buffer
    holds: sector d takes (cutoff + 1 - d)^2 entries, viewed as its
    row-major block. The buffer may end after any sector, as a chunk's
    entries do (Chunk.views). Views of a read-only buffer cannot be made
    writeable.
    """
    views, start = [], 0
    for size in range(cutoff + 1, 0, -1):
        if start >= flat.size:
            break
        views.append(flat[start:start + size * size].reshape(size, size))
        start += size * size
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
        return sector_views(values, self.cutoff - self.sectors.start)


class SectorIndex(NamedTuple):
    """How the kernel build walks the box's sector-major buffers.

    Entry k of a kernel buffer is [p, q] of block d, indexed by final and
    initial sector position. col keys sums over each initial state, its
    place in a per-state buffer (state_totals order), and change the half
    total change p - q, by which the builder reads the entry's sign and
    power of tanh(z). The kernel builder fills the lower triangles of
    every block column by column into one buffer (_amplitudes): column q
    holds the rows p >= q of every sector, row-major over (p, d), and
    mirror reads each entry from there. Index arrays hold the smallest
    unsigned integer type that fits: 119,105 bytes at cutoff 40,
    13,451,088 at 170. All read-only. chunks tiles the box's sectors, d
    ascending: each chunk holds as many whole sectors as fit in
    CHUNK_ENTRIES entries, and a sector larger than that (d = 0 past
    cutoff 127) is a chunk of its own.
    """

    mirror: np.ndarray  # [max(p, q), min(p, q)]: its place in the lower-triangle buffer
    change: np.ndarray  # (p - q) + cutoff: half the entry's total change, offset
    col: np.ndarray  # the initial state of the entry, sector d position q
    chunks: tuple[Chunk, ...]


@cache
def sector_index(cutoff: int) -> SectorIndex:
    """The gather tables and chunks of the box's buffers, built once per
    cutoff.

    Built sector by sector straight into the narrow arrays, so the build
    holds no wide temporaries of the buffer's length.
    """
    side = cutoff + 1
    sizes = range(side, 0, -1)
    block_start = (0, *np.cumsum([n * n for n in sizes]).tolist())
    state_start = (0, *np.cumsum(sizes).tolist())
    count = block_start[-1]
    tab = _recurrence_table(cutoff)
    row_start, col_start = np.array(tab.row_start), np.array(tab.col_start)

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
    chunks, first = [], 0
    for d in range(1, side + 1):
        if d == side or block_start[d + 1] - block_start[first] > CHUNK_ENTRIES:
            chunks.append(Chunk(
                cutoff, range(first, d),
                slice(block_start[first], block_start[d]),
                slice(state_start[first], state_start[d]),
            ))
            first = d
    return SectorIndex(
        mirror=_frozen(mirror),
        change=_frozen(change),
        col=_frozen(col),
        chunks=tuple(chunks),
    )


@cache
def cell_changes(cutoff: int) -> np.ndarray:
    """t_f - t_i + 2 cutoff of every cell of a total table, flat and
    row-major: the key of the cell's total change, as the intp array
    np.bincount reads. Built once per cutoff; read-only."""
    t = np.arange(2 * cutoff + 1)
    return _frozen(np.subtract.outer(t, t).ravel() + 2 * cutoff)


def _chunk_scratch(chunks: tuple[Chunk, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A pass's scratch for one chunk at a time: a float64 and an intp
    array, each of the largest chunk's size."""
    size = max(chunk.size for chunk in chunks)
    return np.empty(size), np.empty(size, np.intp)


def chunk_keys(
    table: np.ndarray, chunk: Chunk, keys: np.ndarray, offset: int = 0
) -> np.ndarray:
    """A sector_index table's keys for the chunk's entries, less offset, as
    the intp array np.take and np.bincount read without a cast of their own;
    written into the first chunk.size entries of keys."""
    keys = keys[:chunk.size]
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
    # sector d holds rows 0..cutoff - d; column q holds the rows p >= q
    row_start = np.concatenate([[0], np.cumsum(np.arange(side, 0, -1))])
    col_start = np.concatenate([[0], np.cumsum(row_start[-1] - row_start[:-1])])
    return _RecurrenceTable(
        row_start=row_start.tolist(),
        col_start=col_start.tolist(),
        exponents=_frozen(np.arange(side) + 1.0),
        beta=_frozen(beta),
        signs=_frozen((-1.0) ** np.arange(cutoff, 0, -1)),
        p=_frozen(p.astype(float)),
        d=_frozen(d.astype(float)),
        d_index=_frozen(d),
        small=_frozen(p + d + 1.0),
        row_beta=_frozen(beta[p, d]),
    )


def _amplitudes(z: float, cutoff: int) -> np.ndarray:
    """Squeeze amplitudes of every block of the box, one sector-major
    buffer.

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
    (C_j, p + d + 1, the rows' layout) come from _recurrence_table. The
    upper triangle follows from the mirror identity <m|S|n> =
    (-1)^(total(n)-total(m)) <n|S|m>, which makes the squared entries
    satisfy the transpose symmetry exactly; the gather, chunk by chunk,
    applies the sign and tanh(z)^|p-q| together.
    """
    side = cutoff + 1
    sech, tau = 1.0 / np.cosh(z), np.tanh(z)
    tau_powers = tau ** np.arange(side)
    ix = sector_index(cutoff)
    amps = np.empty(len(ix.mirror))
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
    small, tail = tab.small * t2, tab.d * t2
    coef, work = np.empty(rows), np.empty(rows)
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
    values, keys = _chunk_scratch(ix.chunks)
    for chunk in ix.chunks:
        out = amps[chunk.entries]
        np.take(lower, chunk_keys(ix.mirror, chunk, keys), out=out, mode="clip")
        out *= np.take(
            factor, chunk_keys(ix.change, chunk, keys), out=values[:chunk.size], mode="clip"
        )
    return amps


class TotalTable(NamedTuple):
    """The run path's read-only table of squared amplitudes, for the
    initial totals t_i < k.

    masses[t_f, t_i] is R, the sum of p(m|n) over the box states m of
    total t_f and n of total t_i, shape (2N+1, k): entry [p, q] of block
    d falls in cell (2p + d, 2q + d), and a block d > 0 counts twice, once
    for its mirror. leakage[t_i] is L(t_i), the column leakage summed over
    the box states of total t_i, d > 0 doubled, so column t_i of R sums
    to their number less L(t_i). A Gibbs weight depends on a state's
    total alone, so every work and entropy statistic contracts the table
    with the per-total weights. A kernel's table holds every column,
    k = 2N+1, R symmetric as p(m|n) = p(n|m). vacuum_table holds column
    0 alone: R[2p, 0] = A_0[p, 0]^2 and odd rows 0, the kernel table's
    bits. A table short of 2N+1 columns serves only the vacuum
    (thermo._require_pairing).
    """

    z: float
    spec: TruncationSpec
    masses: np.ndarray
    leakage: np.ndarray


@dataclass(frozen=True)
class TransitionKernel:
    """Signed squeeze amplitudes <m|S|n> and their total table.

    amplitudes[d] is the block of difference sector d (sector_layout),
    indexed [final, initial] by the sector position i: read-only views
    into one sector-major buffer, flat_amplitudes (sector_views), which
    alone is a field, so each byte is held and counted once. Its
    elementwise square is p(m|n), which each consumer forms per call: the
    bits a stored copy would hold at twice the bytes. table holds all 2N+1
    columns (TotalTable). All arrays are read-only: a sweep shares them.
    """

    z: float
    spec: TruncationSpec
    flat_amplitudes: np.ndarray = field(repr=False)
    table: TotalTable = field(repr=False)

    @property  # not cached: a fork may leave cached_property's lock (Python 3.11) held
    def amplitudes(self) -> tuple[np.ndarray, ...]:
        return sector_views(self.flat_amplitudes, self.spec.cutoff)


def _full_build(z: float, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every block's amplitudes (_amplitudes), frozen; each column's sum of
    their squares, in row order as a block's sum over axis 0 takes it; and
    the total table of the squares (TotalTable).

    Block d's cells (2p + d, 2q + d) are a strided view of the table, so
    each block adds into its view whole, with no per-entry cell index;
    each cell sums its sectors d ascending whatever the chunks, and cells
    [a, b] and [b, a] add equal squares in one order: R is exactly
    symmetric. np.add.at on cell keys formed per chunk from col and change
    took 0.8x as long at cutoff 40, 1.1x at 56 and 1.8x at 120; a stored
    per-entry cell key saved 60-80 us at cutoffs 40 and 56 but held 1-2
    more bytes per entry.
    """
    amps = _frozen(_amplitudes(z, cutoff))
    ix = sector_index(cutoff)
    values, keys = _chunk_scratch(ix.chunks)  # after the build has freed its own
    colsums = np.empty(len(state_totals(cutoff)))
    table = np.zeros((2 * cutoff + 1, 2 * cutoff + 1))
    for chunk in ix.chunks:
        squares = np.square(amps[chunk.entries], out=values[:chunk.size])
        colsums[chunk.states] = np.bincount(
            chunk_keys(ix.col, chunk, keys, chunk.states.start),
            weights=squares, minlength=chunk.states.stop - chunk.states.start,
        )
        # a block d > 0 counts its mirror too: every block past d = 0's
        squares[(cutoff + 1) ** 2 if chunk.sectors.start == 0 else 0:] *= 2.0
        for d, block in zip(chunk.sectors, chunk.views(squares)):
            cells = table[d:d + 2 * len(block):2, d:d + 2 * len(block):2]
            cells += block
    return amps, colsums, table


def _vacuum_build(z: float, cutoff: int) -> tuple[None, np.ndarray, np.ndarray]:
    """Column 0 of the total table from the vacuum column of d = 0,
    sech(z) tanh(z)^p, the recurrence's start (sqrt(C_p / C_0) = 1), and
    its sum in row order by a sequential scan, as the full build's
    bincount takes it; a 1-D sum would add pairwise."""
    column = np.tanh(z) ** np.arange(cutoff + 1) * (1.0 / np.cosh(z))
    table = np.zeros((2 * cutoff + 1, 1))
    squares = np.square(column, out=table[0::2, 0])  # cell (2p, 0): A_0[p, 0]^2 alone
    return None, np.cumsum(squares)[-1:], table


def _checked_build(z: float, spec: TruncationSpec, build) -> tuple:
    """build(z, cutoff)'s amplitudes and TotalTable behind the checks both
    builders share: the domain guard on z, the vacuum gate, and the
    column-sum check on the column sums build returns, which the table
    folds per total as its leakage.

    The gate is the closed-form vacuum-column leakage: the vacuum column is
    the slowest-leaking low-lying column, so a budget violation there means
    the box cannot represent this squeeze at all. Columns of higher total
    leak more; their losses are recorded per total and must be folded into
    downstream truncation bounds rather than gated here.
    """
    if not (math.isfinite(z) and z >= 0.0):
        raise _squeeze_error(z)
    _gate_vacuum_leakage(z, spec)
    amps, colsums, masses = build(z, spec.cutoff)
    excess = float(colsums.max()) - 1.0
    if not excess <= COLSUM_EXCESS_LIMIT:  # a NaN column fails too
        raise NumericError(
            f"column mass exceeds 1 by {excess:.3e} at z={z}, "
            f"cutoff={spec.cutoff}: the kernel is not a substochastic matrix"
        )
    leakage = np.maximum(1.0 - colsums, 0.0)
    if len(leakage) > 1:  # per total, a sector d > 0 counting its mirror too
        leakage[spec.cutoff + 1:] *= 2.0
        leakage = np.bincount(state_totals(spec.cutoff), weights=leakage, minlength=masses.shape[1])
    return amps, TotalTable(z, spec, _frozen(masses), _frozen(leakage))


def transition_kernel(z: float, spec: TruncationSpec) -> TransitionKernel:
    """Every sector of the box by the su(1,1) recurrence (_amplitudes), with
    its total table (_checked_build)."""
    amps, table = _checked_build(z, spec, _full_build)
    return TransitionKernel(z=z, spec=spec, flat_amplitudes=amps, table=table)


def vacuum_table(z: float, spec: TruncationSpec) -> TotalTable:
    """The total table of the vacuum column alone (TotalTable), in O(N) work
    and memory, behind transition_kernel's checks."""
    return _checked_build(z, spec, _vacuum_build)[1]
