"""The two LAPACK routines, bound with ctypes, and the relative entropy's
helper thread.

A staged lapack.Dgejsv call and lapack.dstevd must give
scipy.linalg.lapack's bits, a Dgejsv from its unzeroed buffer too, and
each staged call of the relative entropy owns a buffer sized for its own
sector. The relative entropy, a point's last check, starts its sector
SVDs when it is called, on one helper thread and the calling thread, so
no SVD runs before it and a point that fails first leaves the helper
nothing to run. The calling thread stages every call, so the
helper makes no numpy call. The helper starts with the first T > 0
relative entropy, survives no fork (a child starts its own) and raises
its failures on the caller's thread, and a helper busy elsewhere holds no
caller up. K must not depend on which thread ran a call, nor on how many
threads ask at once. A T = 0 point raises before LAPACK loads.
"""

import ctypes
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg.lapack
from conftest import CHILD_ENV, Z_CANON, staged_svd

import cosmoflux.fluctuation as fluctuation_mod
import cosmoflux.lapack as lapack_mod
from cosmoflux import (
    TruncationSpec,
    canonical_config,
    quantum_relative_entropy,
    run_simulation,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.errors import EntropyUndefinedError, NumericError
from cosmoflux.lapack import dstevd


def _same(ours, theirs) -> bool:
    return all(
        np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        for a, b in zip(ours, theirs, strict=True)
    )


def test_routines_give_scipy_bits_from_1_to_171():
    # column-graded blocks, as the relative entropy's B are: the workspace
    # sizes and the Fortran order of u are what keep K's last digit
    rng = np.random.default_rng(11)
    for n in range(1, 172):
        B = np.asfortranarray(rng.standard_normal((n, n)) * np.logspace(0.0, -14.0, n))
        # scipy's first: ours overwrites the tridiagonal's inputs
        sva, u, _v, work, _iwork, info = scipy.linalg.lapack.dgejsv(B, joba=0, jobu=0, jobv=3)
        assert _same(staged_svd(B), (u, sva * (work[0] / work[1]), info)), n
        diagonal, off = rng.standard_normal(n), rng.standard_normal(max(n - 1, 1))
        theirs = scipy.linalg.lapack.dstevd(diagonal, off)
        assert _same(dstevd(diagonal, off), theirs), n


def _canonical_blocks():
    """Every sector's B = A_d diag(sqrt(w_d)) of the canonical point at
    T = 0.25, 1 and 1.5, formed as the relative entropy forms it."""
    spec = TruncationSpec(40, 1e-8)
    kernel = transition_kernel(Z_CANON, spec)
    for t in (0.25, 1.0, 1.5):
        sqrt_w = np.sqrt(thermal_distribution(t, 1.0, spec).total_weights)
        for d, block in enumerate(kernel.amplitudes):
            n = len(block)
            yield np.multiply(block, sqrt_w[d:d + 2 * n:2], order="F")


def test_dgejsv_writes_its_workspaces_before_it_reads_them(monkeypatch):
    # U, sva, work and iwork start as np.empty leaves them: filled with NaN
    # (iwork and info with NaN's bits), dgejsv gives the zeroed buffers'
    # bits on column-graded blocks of every size up to 171 and on the 123
    # blocks of the canonical point
    rng = np.random.default_rng(11)
    graded = (
        np.asfortranarray(rng.standard_normal((n, n)) * np.logspace(0.0, -14.0, n))
        for n in range(1, 172)
    )
    blocks = [*graded, *_canonical_blocks()]
    assert len(blocks) == 171 + 123
    workspace, nan_bits = lapack_mod._dgejsv_workspace, np.float64(np.nan).view(np.int64)

    def nan_workspace(n):
        *layout, ints = workspace(n)
        ints = ints.copy()
        ints[6:] = nan_bits
        return *layout, ints

    class Numpy:
        """lapack's numpy, whose empty is fill(shape) instead."""

        def __init__(self, fill):
            self.empty = fill

        def __getattr__(self, name):
            return getattr(np, name)

    for B in blocks:
        with monkeypatch.context() as patch:
            patch.setattr(lapack_mod, "np", Numpy(np.zeros))
            zeroed = staged_svd(B)
            patch.setattr(lapack_mod, "np", Numpy(lambda size: np.full(size, np.nan)))
            patch.setattr(lapack_mod, "_dgejsv_workspace", nan_workspace)
            filled = staged_svd(B)
        assert zeroed[2] == 0 and _same(filled, zeroed), B.shape


def test_each_staged_call_owns_a_buffer_sized_for_its_sector(monkeypatch):
    # a two-CPU K at N = 40 stages one call per sector, each in a buffer
    # that holds its own sector's layout, B last, and nothing more; K
    # keeps its bits
    kernel = transition_kernel(Z_CANON, TruncationSpec(40, 1e-8))
    thermal = thermal_distribution(1.0, 1.0, kernel.spec)
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 1)
    serial = quantum_relative_entropy(thermal, kernel, 2.0)
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    staged = []

    class Recorded(lapack_mod.Dgejsv):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            staged.append(self)

    monkeypatch.setattr(fluctuation_mod, "Dgejsv", Recorded)
    assert quantum_relative_entropy(thermal, kernel, 2.0).hex() == serial.hex()
    sizes = {len(call.B): call.buffer.size for call in staged}
    assert len(staged) == len(sizes) == 41
    assert sizes == {n: lapack_mod._dgejsv_workspace(n)[3] + n * n for n in range(1, 42)}


def test_routines_refuse_shapes_lapack_would_reject():
    with pytest.raises(ValueError, match="off-diagonal"):
        dstevd(np.ones(4), np.ones(2))


IMPORT_CHILD = r"""
import builtins, json, sys, threading
import numpy  # imports ctypes itself

imported = set()
real_import = builtins.__import__

def recording_import(name, globals=None, locals=None, fromlist=(), level=0):
    if level == 0 and (globals or {}).get("__name__", "").startswith("cosmoflux"):
        imported.add(name.partition(".")[0])
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = recording_import
import cosmoflux, cosmoflux.cli
builtins.__import__ = real_import
threads = {"import": threading.active_count()}
from cosmoflux import canonical_config, run_simulation
run_simulation(canonical_config().replace(temperature=0.0))
threads["T = 0"] = threading.active_count()
run_simulation(canonical_config())
threads["T = 1"] = threading.active_count()
print(json.dumps({"imported": sorted(imported), "threads": threads}))
"""


def test_import_starts_no_thread_and_imports_no_ctypes():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not {"ctypes", "queue", "scipy"} & set(result["imported"])
    # the helper starts with the first T > 0 relative entropy, where the
    # process may use two CPUs (the child inherits this one's affinity)
    helper = lapack_mod._cpus() > 1
    assert result["threads"] == {"import": 1, "T = 0": 1, "T = 1": 1 + helper}


FORK_CHILD = r"""
import json, os, sys, threading, time
from cosmoflux import canonical_config, lapack, run_simulation

lapack._cpus = lambda: 2  # the helper runs whatever CPUs this may use
cfg = canonical_config()
stop = threading.Event()

def busy():
    # the first run loads LAPACK, the later ones keep the helper at work
    while not stop.is_set():
        run_simulation(cfg)

thread = threading.Thread(target=busy)
thread.start()
children = []
for _ in range(int(sys.argv[1])):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        os.write(write, run_simulation(cfg)["kl_quantum"].hex().encode())
        os._exit(0)
    os.close(write)
    children.append((pid, read))
    time.sleep(0.002)
stop.set()
thread.join()
K = run_simulation(cfg)["kl_quantum"].hex()
deadline = time.monotonic() + 60
outcomes = []
for pid, read in children:
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            break
        time.sleep(0.01)
    with os.fdopen(read) as pipe:
        outcomes.append(pipe.read() == K)
print(json.dumps(outcomes))
"""

FORKS = 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_children_run_a_thermal_point():
    # a second thread runs points while the main thread forks, from its
    # first LAPACK load on: the parent's helper thread does not exist in a
    # child, whose first relative entropy must start its own, and no child
    # may inherit a lock held by a thread it does not have
    proc = subprocess.run(
        [sys.executable, "-c", FORK_CHILD, str(FORKS)],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True] * FORKS


def test_four_threads_get_the_serial_K_bitwise(monkeypatch):
    # four user threads share one helper, switching every 10 us, at four
    # temperatures; every K equals the serial one bit for bit
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    configs = [canonical_config().replace(temperature=t) for t in (0.25, 0.5, 1.0, 1.5)]
    expected = [run_simulation(cfg)["kl_quantum"].hex() for cfg in configs]
    results, errors = [[] for _ in configs], []

    def work(i):
        try:
            for _ in range(5):
                results[i].append(run_simulation(configs[i])["kl_quantum"].hex())
        except Exception as exc:  # reported below, with the thread's config
            errors.append((i, exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [[k] * 5 for k in expected]


def _calls_per_thread(monkeypatch, failing_thread=None) -> tuple[dict, threading.Event]:
    """Spy on the LAPACK dgejsv the relative entropy's staged calls run: the
    calls on the calling thread and on the helper, info = 1 from the calls
    on failing_thread, and an event set when the helper makes its first."""
    caller = threading.current_thread()
    real = lapack_mod._routines().dgejsv
    calls, first = {"caller": 0, "helper": 0}, threading.Event()

    def dgejsv(*args):
        side = "caller" if threading.current_thread() is caller else "helper"
        calls[side] += 1
        real(*args)
        if side == failing_thread:
            ctypes.c_int64.from_address(args[18]).value = 1  # info
        if side == "helper":
            first.set()

    monkeypatch.setattr(lapack_mod._routines(), "dgejsv", dgejsv)
    return calls, first


def _after(monkeypatch, event: threading.Event) -> None:
    """Hold each LAPACK call on this thread until event is set."""
    spied, caller = lapack_mod._routines().dgejsv, threading.current_thread()

    def dgejsv(*args):
        if threading.current_thread() is caller:
            assert event.wait(10)
        spied(*args)

    monkeypatch.setattr(lapack_mod._routines(), "dgejsv", dgejsv)


def _point12():
    spec = TruncationSpec(12, 1e-2)
    return transition_kernel(Z_CANON, spec), thermal_distribution(1.0, 1.0, spec)


def test_one_cpu_runs_every_block_on_the_caller(monkeypatch):
    kernel, thermal = _point12()
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    expected = quantum_relative_entropy(thermal, kernel, 2.0)
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 1)
    assert lapack_mod.helper_jobs() is None  # no helper takes any
    calls, _first = _calls_per_thread(monkeypatch)
    assert quantum_relative_entropy(thermal, kernel, 2.0).hex() == expected.hex()
    assert calls == {"caller": 13, "helper": 0}


@pytest.mark.parametrize("failing_thread", ["caller", "helper"])
def test_a_failed_dgejsv_is_a_numeric_error_on_either_thread(monkeypatch, failing_thread):
    # two CPUs, whatever this process may use, so that the helper runs
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    kernel, thermal = _point12()
    expected = quantum_relative_entropy(thermal, kernel, 2.0)
    calls, first = _calls_per_thread(monkeypatch, failing_thread)
    if failing_thread == "helper":
        # the caller's calls wait for the helper's first, so that the
        # helper always runs one
        _after(monkeypatch, first)
    with pytest.raises(NumericError, match="dgejsv failed with info = 1"):
        quantum_relative_entropy(thermal, kernel, 2.0)
    assert calls[failing_thread] >= 1
    monkeypatch.undo()
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    # the helper survives the failure, and the next K is the same
    assert quantum_relative_entropy(thermal, kernel, 2.0) == expected


def test_a_failure_outside_a_sector_surfaces_and_the_helper_serves_on(monkeypatch):
    # an error that is no dgejsv info, on either thread: the LAPACK call
    # the helper runs raises (an exception leaving a job once ended the
    # helper thread, so K came from the caller alone and every later job
    # stayed queued, its arrays held), and the caller's staging fails
    # after it handed the helper its first calls. The caller raises each,
    # and the helper serves the next call's calls
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    kernel, thermal = _point12()
    expected = quantum_relative_entropy(thermal, kernel, 2.0)
    _drain_helper()
    failed, caller = threading.Event(), threading.current_thread()
    with monkeypatch.context() as patch:
        real = lapack_mod._routines().dgejsv

        def dgejsv(*args):
            if threading.current_thread() is not caller and not failed.is_set():
                failed.set()
                raise MemoryError("no LAPACK for the helper")
            real(*args)

        patch.setattr(lapack_mod._routines(), "dgejsv", dgejsv)
        _after(patch, failed)
        with pytest.raises(MemoryError, match="no LAPACK for the helper"):
            quantum_relative_entropy(thermal, kernel, 2.0)

    class Numpy:
        """fluctuation's numpy, whose third multiply, the caller's first
        block after the helper's two, fails."""

        def __init__(self):
            self.blocks = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def multiply(self, *args, **kwargs):
            self.blocks += 1
            if self.blocks == 3:
                raise MemoryError("no block for the caller")
            return np.multiply(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(fluctuation_mod, "np", Numpy())
        with pytest.raises(MemoryError, match="no block for the caller"):
            quantum_relative_entropy(thermal, kernel, 2.0)
    calls, first = _calls_per_thread(monkeypatch)
    _after(monkeypatch, first)
    assert quantum_relative_entropy(thermal, kernel, 2.0).hex() == expected.hex()
    assert calls["helper"] >= 1


def test_the_helper_thread_makes_no_numpy_call(monkeypatch):
    # during a thermal point's K the helper only runs LAPACK calls staged
    # for it: no numpy function of fluctuation or lapack (a recording
    # proxy on each module's np) and no C function of numpy or method of
    # an array (a profile hook on a fresh helper) runs on it. Each call
    # the helper ran once formed its own block and workspace and
    # post-processed its result, holding the GIL the caller needed
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    seen, caller = [], threading.current_thread()
    numpy_dir = os.path.dirname(np.__file__)

    class Numpy:
        """A module's numpy, recording each name read off the caller."""

        def __getattr__(self, name):
            if threading.current_thread() is not caller:
                seen.append(f"np.{name}")
            return getattr(np, name)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            seen.append(frame.f_code.co_name)
        elif event == "c_call" and (
            isinstance(getattr(arg, "__self__", None), np.ndarray)
            or (getattr(arg, "__module__", None) or "").startswith("numpy")
        ):
            seen.append(arg.__name__)

    kernel, thermal = _point12()
    expected = quantum_relative_entropy(thermal, kernel, 2.0)
    monkeypatch.setattr(lapack_mod, "_helper_queue", None)  # a fresh helper, profiled
    threading.setprofile(profile)
    try:
        lapack_mod._routines()
        for module in (fluctuation_mod, lapack_mod):
            monkeypatch.setattr(module, "np", Numpy())
        calls, first = _calls_per_thread(monkeypatch)
        _after(monkeypatch, first)
        K = quantum_relative_entropy(thermal, kernel, 2.0)
    finally:
        threading.setprofile(None)
    monkeypatch.undo()  # the process's own helper serves on; the fresh one idles
    assert K.hex() == expected.hex() and calls["helper"] >= 1
    assert seen == []


def _drain_helper() -> None:
    """Wait until the helper has run every job queued before this one."""
    idle = threading.Event()
    lapack_mod.helper_jobs().put(idle.set)
    assert idle.wait(10)


def test_no_sector_svd_runs_before_the_relative_entropy(monkeypatch):
    # the relative entropy, a point's last check, starts its sector SVDs:
    # once the entropy pass is done, every job the helper was given has
    # run and none was a LAPACK call, and a point that fails in the pass
    # leaves the helper none to run
    cfg = canonical_config()
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 1)
    serial = run_simulation(cfg)["kl_quantum"]
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    real = fluctuation_mod.entropy_distributions
    with monkeypatch.context() as patch:
        calls, _first = _calls_per_thread(patch)
        seen = []

        def entropy_distributions(kernel, thermal):
            result = real(kernel, thermal)
            _drain_helper()
            seen.append(dict(calls))
            return result

        patch.setattr(fluctuation_mod, "entropy_distributions", entropy_distributions)
        assert run_simulation(cfg)["kl_quantum"].hex() == serial.hex()
        assert seen == [{"caller": 0, "helper": 0}]
    with monkeypatch.context() as patch:
        calls, _first = _calls_per_thread(patch)

        def failing(kernel, thermal):
            raise KeyboardInterrupt

        patch.setattr(fluctuation_mod, "entropy_distributions", failing)
        with pytest.raises(KeyboardInterrupt):
            run_simulation(cfg)
        _drain_helper()
        assert calls == {"caller": 0, "helper": 0}
    assert run_simulation(cfg)["kl_quantum"].hex() == serial.hex()


def test_a_stalled_helper_does_not_stall_the_caller(monkeypatch):
    # the helper is held on another job queued in front of this point's
    # calls: the caller runs every one and does not wait for it
    kernel, thermal = _point12()
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 1)
    serial = quantum_relative_entropy(thermal, kernel, 2.0)
    monkeypatch.setattr(lapack_mod, "_cpus", lambda: 2)
    stalled, release = threading.Event(), threading.Event()

    def stall():
        stalled.set()
        release.wait(30)

    lapack_mod.helper_jobs().put(stall)
    try:
        assert stalled.wait(10)
        calls, _first = _calls_per_thread(monkeypatch)
        began = time.monotonic()
        K = quantum_relative_entropy(thermal, kernel, 2.0)
        elapsed = time.monotonic() - began
    finally:
        release.set()
    assert K.hex() == serial.hex()
    assert calls == {"caller": 13, "helper": 0}
    assert elapsed < 5


def test_a_vacuum_point_raises_before_lapack_loads(monkeypatch):
    # a T = 0 Gibbs state has weight in d = 0 alone: its relative entropy
    # raises at the start, before LAPACK loads or a helper takes a sector
    spec = TruncationSpec(12, 1e-2)
    kernel, vacuum = transition_kernel(Z_CANON, spec), thermal_distribution(0.0, 1.0, spec)
    loads = []

    def load():
        loads.append(threading.current_thread().name)
        raise AssertionError("LAPACK loaded for a T = 0 point")

    monkeypatch.setattr(lapack_mod, "_LOADED", None)
    monkeypatch.setattr(lapack_mod, "_load", load)
    with pytest.raises(EntropyUndefinedError, match="T = 0 vacuum"):
        quantum_relative_entropy(vacuum, kernel, 1.0)
    assert loads == []
