"""The package's one way to call LAPACK, and the thread that calls it.

The package calls two LAPACK routines, dstevd (fock's spectral oracle) and
dgejsv (fluctuation's relative entropy), through the function pointers
that scipy's Cython module scipy.linalg.cython_lapack exports, bound with
ctypes on the first call (_routines), in about 8 ms and 2.6 MiB. Importing
cosmoflux, or a point that never reaches LAPACK, loads no scipy and no
ctypes. ctypes releases the GIL for the call, so where the process may
use two CPUs the relative entropy runs dgejsv on a helper thread too
(run_on_helper).

One lock guards the first load and the helper's start: a Cython module
enters itself in sys.modules before its exports are set, so a concurrent
load could find it half made. A fork waits for either, so a child
inherits the lock free; it has no helper thread, and starts its own.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from functools import cache
from types import SimpleNamespace

import numpy as np

# (name, parameter count) of each routine bound: every parameter is a pointer
_ROUTINES = (("dgejsv", 19), ("dstevd", 11))
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
    """scipy.linalg.cython_lapack as module, dgejsv and dstevd bound from its
    __pyx_capi__ capsules, and address: the address of a writable
    C-contiguous array (a third of the time of array.ctypes.data).

    Importing scipy.linalg costs about 0.2 s and 26 MiB of modules this
    package never calls, so only the top-level scipy (which sets up the
    paths of its bundled libraries) is imported, and the Cython module is
    loaded from its file. Unless scipy.linalg is imported, the module is
    taken back out of sys.modules, which it enters itself, so that a later
    import of scipy.linalg gets this same module back and binds it. A scipy
    with no such file, or a capsule whose signature does not take the
    parameters bound, raises ImportError.
    """
    import ctypes

    import scipy

    name = "scipy.linalg.cython_lapack"
    module = sys.modules.get(name)
    if module is None:
        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        finder = importlib.machinery.FileFinder(
            directory,
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(
                f"no compiled LAPACK module cython_lapack in {directory} "
                f"(scipy {scipy.__version__})"
            )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parent = sys.modules.get("scipy.linalg")
        if parent is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module
            parent.cython_lapack = module
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    routines = {}
    for routine, count in _ROUTINES:
        capsule = module.__pyx_capi__[routine]
        signature = capsule_name(capsule)
        if signature.count(b"*") != count:
            raise ImportError(f"{name}.{routine} has the signature {signature.decode()}")
        routines[routine] = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * count)(
            capsule_pointer(capsule, signature)
        )

    def address(array: np.ndarray) -> int:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))

    return SimpleNamespace(module=module, address=address, **routines)


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
    ints = np.zeros(5 + liwork, np.intc)
    ints[:4] = n, n, lwork, liwork
    lapack = _routines()
    p, i = lapack.address(ints), ints.itemsize
    lapack.dstevd(
        b"V", p, lapack.address(d), lapack.address(e), lapack.address(z.T), p + i,
        lapack.address(work), p + 2 * i, p + 5 * i, p + 3 * i, p + 4 * i,
    )
    return d, z, int(ints[4])


@cache
def _dgejsv_workspace(n: int) -> tuple[int, int, int, np.ndarray]:
    """dgejsv's workspaces for an n x n matrix as scipy sizes them, once per
    size (8 N^2 bytes for a cutoff N): where u, sva, work and v (16-byte
    aligned) end in the float buffer, its length, and the integer buffer."""
    lwork = max(6 * n + 2 * n * n, 2 * n + n * n + 6)  # scipy's, at m = n
    u_end = n * n + n * n % 2
    sva_end = u_end + n + n % 2
    ints = np.zeros(7 + 4 * n, np.intc)
    ints[:6] = n, n, n, n, 1, lwork
    ints.flags.writeable = False
    return u_end, sva_end, sva_end + lwork + 1, ints


def dgejsv(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """LAPACK dgejsv with the jobs C, U, N, R, N, P: the left singular vectors
    U of a square block B, in Fortran order, its singular values and info.

    B must be a square, writable, Fortran-ordered float64 array, which the
    routine overwrites; any other raises ValueError. U and the values are
    scipy.linalg.lapack.dgejsv(B, joba=0, jobu=0, jobv=3)'s u and sva
    scaled by work[0] / work[1], bit for bit, from the same workspace sizes
    and zeroed workspaces (a larger work array, or U in C order, moves K in
    its last digit).
    """
    n = B.shape[0] if B.ndim == 2 else 0
    square_doubles = n > 0 and B.shape == (n, n) and B.dtype == np.float64
    if not (square_doubles and B.flags.f_contiguous and B.flags.behaved):  # aligned and writable
        raise ValueError(
            "dgejsv takes a square, writable, Fortran-ordered float64 array, "
            f"got a {B.dtype} array of shape {B.shape}"
        )
    u_end, sva_end, size, ints = _dgejsv_workspace(n)
    out, ints = np.zeros(size), ints.copy()
    lapack = _routines()
    p, o = lapack.address(ints), lapack.address(out)
    i, f = ints.itemsize, out.itemsize
    lapack.dgejsv(
        b"C", b"U", b"N", b"R", b"N", b"P", p, p + i, lapack.address(B.T), p + 2 * i,
        o + u_end * f, o, p + 3 * i, o + (size - 1) * f, p + 4 * i,
        o + sva_end * f, p + 5 * i, p + 7 * i, p + 6 * i,
    )
    scale = out[sva_end] / out[sva_end + 1]
    return out[:n * n].reshape((n, n), order="F"), out[u_end:u_end + n] * scale, int(ints[6])


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(jobs) -> None:
    """The helper thread: call each job of the queue, in order, for ever."""
    while True:
        jobs.get()()  # a job and its arrays are dropped once it is done


def run_on_helper(job) -> None:
    """Load LAPACK on this thread (on the helper it took 0.6 MiB more RSS),
    then queue job for the helper thread, started on the first call. On one
    CPU, where a helper would only add GIL hand-offs, job is dropped: its
    caller does the work. queue is imported under the lock a fork waits
    for, so no child inherits it half imported."""
    global _helper_queue
    _routines()
    if _cpus() < 2:
        return
    with _LOCK:
        if _helper_queue is None:
            import queue

            jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(jobs,), name="cosmoflux-dgejsv", daemon=True
            ).start()
            _helper_queue = jobs
        _helper_queue.put(job)


def _forget_helper() -> None:
    """In a forked child, which has no helper thread."""
    global _helper_queue
    _helper_queue = None
    _LOCK.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_LOCK.acquire, after_in_parent=_LOCK.release, after_in_child=_forget_helper
    )
