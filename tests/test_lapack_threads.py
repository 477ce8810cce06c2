"""The two LAPACK routines, bound with ctypes, and the relative entropy's
helper thread.

fluctuation.dgejsv and fock.dstevd must give scipy.linalg.lapack's bits;
the relative entropy hands about half its blocks to one helper thread,
which starts with the first T > 0 relative entropy, survives no fork (a
child starts its own) and raises its failures on the caller's thread. K
must not depend on which thread took a block, nor on how many threads ask
at once.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg.lapack
from conftest import CHILD_ENV, Z_CANON

import cosmoflux.fluctuation as fluctuation_mod
from cosmoflux import (
    TruncationSpec,
    canonical_config,
    quantum_relative_entropy,
    run_simulation,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.errors import NumericError
from cosmoflux.fock import dstevd


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
        B = rng.standard_normal((n, n)) * np.logspace(0.0, -14.0, n)
        # scipy's first: ours overwrites B at n = 1, where B is in Fortran order
        theirs = scipy.linalg.lapack.dgejsv(B, joba=0, jobu=0, jobv=3)
        assert _same(fluctuation_mod.dgejsv(B), theirs), n
        diagonal, off = rng.standard_normal(n), rng.standard_normal(max(n - 1, 1))
        assert _same(dstevd(diagonal, off), scipy.linalg.lapack.dstevd(diagonal, off)), n


def test_routines_refuse_shapes_lapack_would_reject():
    with pytest.raises(ValueError, match="rows >= columns"):
        fluctuation_mod.dgejsv(np.ones((2, 3)))
    with pytest.raises(ValueError, match="rows >= columns"):
        fluctuation_mod.dgejsv(np.ones(3))
    with pytest.raises(ValueError, match="off-diagonal"):
        dstevd(np.ones(4), np.ones(2))


def test_dgejsv_leaves_a_c_ordered_input_unchanged_and_refuses_a_read_only_one():
    B = np.random.default_rng(2).standard_normal((5, 5))
    kept = B.copy()
    fluctuation_mod.dgejsv(B)
    assert np.array_equal(B, kept)
    # a Fortran-ordered input is overwritten, so it must be writable
    column = B[:, :1].copy()
    column.flags.writeable = False
    with pytest.raises(TypeError):
        fluctuation_mod.dgejsv(column)


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
    helper = fluctuation_mod._cpus() > 1
    assert result["threads"] == {"import": 1, "T = 0": 1, "T = 1": 1 + helper}


FORK_CHILD = r"""
import json, os, sys, threading, time
from cosmoflux import canonical_config, fluctuation, run_simulation

fluctuation._cpus = lambda: 2  # the helper runs whatever CPUs this may use
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
    monkeypatch.setattr(fluctuation_mod, "_cpus", lambda: 2)
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


def _calls_per_thread(monkeypatch, failing_thread=None) -> dict:
    """Spy on fluctuation.dgejsv: the calls on the calling thread and on
    the helper, and info = 1 from the calls on failing_thread."""
    caller = threading.current_thread()
    real = fluctuation_mod.dgejsv
    calls = {"caller": 0, "helper": 0}

    def dgejsv(a):
        side = "caller" if threading.current_thread() is caller else "helper"
        calls[side] += 1
        sva, u, v, work, iwork, info = real(a)
        return sva, u, v, work, iwork, 1 if side == failing_thread else info

    monkeypatch.setattr(fluctuation_mod, "dgejsv", dgejsv)
    return calls


def test_one_cpu_runs_every_block_on_the_caller(monkeypatch):
    spec = TruncationSpec(12, 1e-2)
    kernel = transition_kernel(Z_CANON, spec)
    thermal = thermal_distribution(1.0, 1.0, spec)
    monkeypatch.setattr(fluctuation_mod, "_cpus", lambda: 2)
    expected = quantum_relative_entropy(thermal, kernel, 2.0)
    monkeypatch.setattr(fluctuation_mod, "_cpus", lambda: 1)
    calls = _calls_per_thread(monkeypatch)
    assert quantum_relative_entropy(thermal, kernel, 2.0).hex() == expected.hex()
    assert calls == {"caller": 13, "helper": 0}


@pytest.mark.parametrize("failing_thread", ["caller", "helper"])
def test_a_failed_dgejsv_is_a_numeric_error_on_either_thread(monkeypatch, failing_thread):
    # two CPUs, whatever this process may use, so that the helper runs
    monkeypatch.setattr(fluctuation_mod, "_cpus", lambda: 2)
    spec = TruncationSpec(12, 1e-2)
    kernel = transition_kernel(Z_CANON, spec)
    thermal = thermal_distribution(1.0, 1.0, spec)
    expected = quantum_relative_entropy(thermal, kernel, 2.0)
    calls = _calls_per_thread(monkeypatch, failing_thread)
    with pytest.raises(NumericError, match="dgejsv failed with info = 1"):
        quantum_relative_entropy(thermal, kernel, 2.0)
    assert calls[failing_thread] >= 1
    monkeypatch.undo()
    monkeypatch.setattr(fluctuation_mod, "_cpus", lambda: 2)
    # the helper survives the failure, and the next K is the same
    assert quantum_relative_entropy(thermal, kernel, 2.0) == expected
