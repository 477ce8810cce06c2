"""The package's one way to call LAPACK, and the thread that calls it.

The package calls two LAPACK routines, dstevd (fock's spectral oracle) and
dgejsv (fluctuation's relative entropy), from the OpenBLAS that numpy's
core extension links, bound with ctypes on the first call (_routines), in
about 0.1 ms: no scipy is imported and no second BLAS is mapped. Importing
cosmoflux, or a point that never reaches LAPACK, binds no routine and
starts no thread. ctypes releases the GIL for the call, so where the
process may use two CPUs the relative entropy runs dgejsv on a helper
thread too (helper_jobs), which holds the GIL only to take and hand back
the calls the caller stages, each in a buffer of its own (Dgejsv).

One lock guards the first load and the helper's start, so that each
happens once. A fork waits for either, so a child inherits the lock free;
it has no helper thread, and starts its own.
"""

from __future__ import annotations

import os
import threading
from functools import cache
from types import SimpleNamespace

import numpy as np

# the library bound from: numpy's core extension, whose handle dlsym
# searches with the libraries it links
_LIBRARY = np._core._multiarray_umath.__file__
# (name, pointer parameters, hidden Fortran string lengths) of each routine
_ROUTINES = (("dgejsv", 19, 6), ("dstevd", 11, 1))
_LOCK = threading.Lock()
_LOADED: SimpleNamespace | None = None
_helper_queue = None


def _routines() -> SimpleNamespace:
    """The bound routines, loaded on the first call; only the load locks."""
    global _LOADED
    if _LOADED is None:
        with _LOCK:
            _LOADED = _LOADED or _load()
    return _LOADED


def _load() -> SimpleNamespace:
    """dgejsv and dstevd bound from _LIBRARY; address, the address of a
    writable C-contiguous array (a third of the time of array.ctypes.data);
    and char_length, the length 1 of a character argument as a size_t
    (passed as such, it costs 0.1 us less per argument than an int).

    numpy's wheels (2.0 on) link scipy-openblas64, which exports LAPACK as
    scipy_<name>_64_ with 64-bit integers; each routine takes, after its
    pointers, the length of each character argument. A numpy linked to
    another LAPACK lacks these symbols and raises ImportError.
    """
    import ctypes

    library = ctypes.CDLL(_LIBRARY)
    routines, missing = {}, []
    for routine, pointers, lengths in _ROUTINES:
        symbol = f"scipy_{routine}_64_"
        try:
            function = getattr(library, symbol)
        except AttributeError:
            missing.append(symbol)
            continue
        function.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
        function.restype = None
        routines[routine] = function
    if missing:
        raise ImportError(f"{_LIBRARY} exports no {' or '.join(missing)}")

    def address(array: np.ndarray) -> int:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))

    return SimpleNamespace(address=address, char_length=ctypes.c_size_t(1), **routines)


def dstevd(d: np.ndarray, e: np.ndarray):
    """LAPACK dstevd on the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, float64 arrays of n and max(n - 1, 1) entries, which it
    overwrites: d with the eigenvalues w. Returns w, the eigenvectors z in
    Fortran order and info: scipy.linalg.lapack.dstevd(d, e)'s, bit for
    bit, from the same job and workspace sizes and zeroed workspaces."""
    n = len(d)
    if not (d.dtype == e.dtype == np.float64 and d.ndim == e.ndim == 1 and len(e) == max(n - 1, 1)):
        raise ValueError(
            "dstevd takes float64 arrays of n diagonal and max(n - 1, 1) "
            f"off-diagonal entries, got shapes {d.shape} and {e.shape}"
        )
    lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
    z, work = np.zeros((n, n), order="F"), np.zeros(lwork)
    # n, ldz, lwork, liwork, info, then the integer workspace
    ints = np.zeros(5 + liwork, np.int64)
    ints[:4] = n, n, lwork, liwork
    lapack = _routines()
    p, i = lapack.address(ints), ints.itemsize
    lapack.dstevd(
        b"V", p, lapack.address(d), lapack.address(e), lapack.address(z.T), p + i,
        lapack.address(work), p + 2 * i, p + 5 * i, p + 3 * i, p + 4 * i, lapack.char_length,
    )
    return d, z, int(ints[4])


@cache
def _dgejsv_workspace(n: int) -> tuple[int, int, int, int, np.ndarray]:
    """dgejsv's workspaces for an n x n matrix as scipy sizes them, once per
    size: where U, sva and work end in the float buffer, where v and the
    block B start after them (each 16-byte aligned), and the integer buffer."""
    lwork = max(6 * n + 2 * n * n, 2 * n + n * n + 6)  # scipy's, at m = n
    u_end = n * n + n * n % 2
    sva_end = u_end + n + n % 2
    v = sva_end + lwork
    ints = np.zeros(7 + 4 * n, np.int64)
    ints[:6] = n, n, n, n, 1, lwork
    ints.flags.writeable = False
    return u_end, sva_end, v, v + 2 - v % 2, ints


class Dgejsv:
    """One LAPACK dgejsv call, jobs C, U, N, R, N, P, on an n x n block B,
    staged so that any thread may run it. The staging thread lays out B (a
    Fortran-ordered view, which it then writes), U, sva and the workspaces
    in one unzeroed buffer of about 4n^2 + 7n doubles and marshals the
    arguments. Calling the object runs LAPACK alone, once, on the first
    thread to call it; an error there is held for result.

    result, called once on the staging thread, runs the call there unless
    a thread has taken it, then returns U (a Fortran-ordered view of
    buffer), the singular values and info: scipy.linalg.lapack.dgejsv(B,
    joba=0, jobu=0, jobv=3)'s u and sva scaled by work[0] / work[1], bit
    for bit, from the same workspace sizes (a larger work array, or U in C
    order, moves K in its last digit). dgejsv writes U, sva, work and iwork
    before it reads them, so the buffer needs no zeroing (the tests hold it
    to a NaN-filled one, bit for bit).
    """

    __slots__ = ("B", "buffer", "_ints", "_args", "_ends", "_claim", "_done", "_error")

    def __init__(self, n: int) -> None:
        u_end, sva_end, v, b_start, ints = _dgejsv_workspace(n)
        out, ints = np.empty(b_start + n * n), ints.copy()
        lapack = _routines()
        p, o = lapack.address(ints), lapack.address(out)
        i, f, one = ints.itemsize, out.itemsize, lapack.char_length
        self._args = (
            b"C", b"U", b"N", b"R", b"N", b"P", p, p + i, o + b_start * f, p + 2 * i,
            o + u_end * f, o, p + 3 * i, o + v * f, p + 4 * i,
            o + sva_end * f, p + 5 * i, p + 7 * i, p + 6 * i, one, one, one, one, one, one,
        )
        # the arrays live as long as the call, whichever thread runs it
        self.B = out[b_start:].reshape((n, n), order="F")
        self.buffer, self._ints, self._ends = out, ints, (n, u_end, sva_end)
        self._claim, self._done, self._error = threading.Lock(), threading.Lock(), None
        self._done.acquire()

    def __call__(self) -> None:
        if self._claim.acquire(False):
            try:
                _LOADED.dgejsv(*self._args)
            except BaseException as exc:  # raised by result, on the staging thread
                self._error = exc
            self._done.release()

    def ready(self) -> bool:  # the call has run
        return not self._done.locked()

    def result(self) -> tuple[np.ndarray, np.ndarray, int]:
        self()
        self._done.acquire()
        if self._error is not None:
            raise self._error
        (n, u_end, sva_end), out = self._ends, self.buffer
        scale = out.item(sva_end) / out.item(sva_end + 1)
        return out[:n * n].reshape((n, n), order="F"), out[u_end:u_end + n] * scale, self._ints.item(6)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(jobs) -> None:
    """The helper thread: call each job of the queue, in order, for ever. A
    job holds its errors for its caller (Dgejsv): one it raised would end
    the thread."""
    while True:
        jobs.get()()  # a job and its arrays are dropped once it is done


def helper_jobs():
    """Load LAPACK on this thread (on the helper it took 0.6 MiB more RSS),
    then return the helper thread's job queue, started on the first call.
    On one CPU, where a helper would only add GIL hand-offs, return None:
    the caller does the work. queue is imported under the lock a fork
    waits for, so no child inherits it half imported."""
    global _helper_queue
    _routines()
    if _cpus() < 2:
        return None
    with _LOCK:
        if _helper_queue is None:
            import queue

            jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(jobs,), name="cosmoflux-dgejsv", daemon=True
            ).start()
            _helper_queue = jobs
        return _helper_queue


def _forget_helper() -> None:
    """In a forked child, which has no helper thread."""
    global _helper_queue
    _helper_queue = None
    _LOCK.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_LOCK.acquire, after_in_parent=_LOCK.release, after_in_child=_forget_helper
    )
