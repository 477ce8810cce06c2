"""Which entry points load scipy, and which load LAPACK.

The package calls only two LAPACK routines, which it binds with ctypes
from the OpenBLAS that numpy's core extension links, so no step here, a
T > 0 run and verify included, may import any scipy module; the T > 0 run
must have loaded LAPACK. This test process has imported scipy already, so
the steps run in one fresh child that reports after each.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CHILD_ENV

CHILD = r"""
import contextlib, io, json, sys

loaded = {}

def mark(step):
    scipy = [name for name in sys.modules if name.partition(".")[0] == "scipy"]
    loaded[step] = [scipy, lapack._LOADED is not None]

import cosmoflux, cosmoflux.cli
from cosmoflux import lapack
from cosmoflux import RunConfig, SweepConfig, run_simulation, run_sweep
mark("import")

vacuum = {
    "scenario": "cosmology", "momentum": 1.0, "mass": 1.0, "epsilon": 3.0,
    "sigma": 1.0, "temperature": 0.0, "cutoff": 24,
}
point = RunConfig.from_mapping(vacuum)
sweep = SweepConfig.from_mapping({**vacuum, "axis": "sigma", "grid": [0.5, 2.0]})
mark("from_mapping")

assert run_simulation(point)["flags"] == "ok;vacuum-path"
mark("simulate T = 0")

assert not any(row.get("error") for row in run_sweep(sweep))
mark("sweep sigma T = 0")

with contextlib.redirect_stdout(io.StringIO()):
    assert cosmoflux.cli.main(["--help"]) == 0
mark("cli --help")

with contextlib.redirect_stderr(io.StringIO()):
    assert cosmoflux.cli.main(["simulate", "--scenario", "cosmology"]) == 1
mark("cli config error")

assert run_simulation(point.replace(temperature=0.5))["flags"] == "ok"
mark("simulate T = 0.5")

with contextlib.redirect_stdout(io.StringIO()):
    assert cosmoflux.cli.main(["verify"]) == 0
mark("cli verify")

print(json.dumps(loaded))
"""


def test_no_step_loads_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # [scipy modules loaded, LAPACK loaded] after each step
    assert loaded == {
        "import": [[], False],
        "from_mapping": [[], False],
        "simulate T = 0": [[], False],
        "sweep sigma T = 0": [[], False],
        "cli --help": [[], False],
        "cli config error": [[], False],
        "simulate T = 0.5": [[], True],
        "cli verify": [[], True],
    }


# Whichever of cosmoflux.lapack and scipy.linalg loads its LAPACK first,
# the package's routines must give scipy.linalg.lapack's bits on a
# column-graded matrix and a tridiagonal.
CROSS_LOAD = r"""
import json, sys
import numpy as np

def thermal_run():
    from cosmoflux import RunConfig, run_simulation
    point = RunConfig.from_mapping({
        "scenario": "direct-z", "z": 0.5, "omega_in": 1.0, "omega_out": 2.0,
        "temperature": 0.5, "cutoff": 24,
    })
    assert run_simulation(point)["flags"] == "ok"

if sys.argv[1] == "cosmoflux first":
    thermal_run()
    import scipy.linalg
else:
    import scipy.linalg
    thermal_run()

from cosmoflux import lapack

B = np.asfortranarray(np.random.default_rng(5).standard_normal((8, 8)) * np.logspace(0, -14, 8))
diagonal = np.arange(1.0, 10.0)
off_diagonal = np.sqrt(np.arange(1.0, 9.0))
# scipy's first: our dstevd overwrites its inputs
sva, u, _v, work, _iwork, info = scipy.linalg.lapack.dgejsv(B, joba=0, jobu=0, jobv=3)
eigen = scipy.linalg.lapack.dstevd(diagonal, off_diagonal)
call = lapack.Dgejsv(len(B))
call.B[...] = B
pairs = [
    (call.result(), (u, sva * (work[0] / work[1]), info)),
    (lapack.dstevd(diagonal, off_diagonal), eigen),
]
print(json.dumps([
    [np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(ours, theirs)]
    for ours, theirs in pairs
]))
"""


@pytest.mark.parametrize("order", ["cosmoflux first", "scipy.linalg first"])
def test_lapack_cross_loads_with_scipy_linalg(order):
    proc = subprocess.run(
        [sys.executable, "-c", CROSS_LOAD, order],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # dgejsv returns U, the scaled singular values and info; dstevd w, z, info
    assert result == [[True] * 3, [True] * 3]


def test_a_numpy_without_the_lapack_symbols_is_an_import_error(monkeypatch):
    # a library that links no scipy-openblas64: Python's own _ctypes
    import _ctypes

    from cosmoflux import lapack

    monkeypatch.setattr(lapack, "_LIBRARY", _ctypes.__file__)
    with pytest.raises(ImportError) as exc:
        lapack._load()
    message = str(exc.value)
    assert _ctypes.__file__ in message
    assert "scipy_dgejsv_64_" in message and "scipy_dstevd_64_" in message


# Only cosmoflux.lapack may know how LAPACK and its helper thread are run:
# no other module imports ctypes, registers a fork hook or makes a thread,
# so that the lock, the fork hook and the thread stay one each; and no
# module, cosmoflux.lapack included, imports scipy or keeps thread-local
# state (each pass owns its scratch).
SRC = Path(__file__).resolve().parent.parent / "src" / "cosmoflux"
LAPACK_ONLY = ("ctypes", "os.register_at_fork", "threading.Thread")
NOWHERE = ("scipy", "threading.local")
BOUNDARY = (*LAPACK_ONLY, *NOWHERE)


def lapack_machinery(source: str) -> list[str]:
    """The names of BOUNDARY that source imports or refers to."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func).endswith(("import_module", "__import__"))):
            names = [ast.literal_eval(node.args[0])]
        else:
            continue
        found += [n for n in names if any(n == b or n.startswith(b + ".") for b in BOUNDARY)]
    return found


def test_only_the_lapack_module_loads_lapack_or_starts_threads():
    assert sorted(lapack_machinery(
        "import ctypes\nfrom scipy.linalg import lapack\nfrom threading import Thread\n"
        "os.register_at_fork(before=f)\nclass T(threading.Thread): pass\n"
        "importlib.import_module('scipy')\nfrom threading import local\n"
        "class L(threading.local): pass\n"
    )) == ["ctypes", "os.register_at_fork", "scipy", "scipy.linalg.lapack",
           "threading.Thread", "threading.Thread", "threading.local", "threading.local"]
    modules = {path.name: lapack_machinery(path.read_text()) for path in SRC.glob("*.py")}
    lapack_module = modules.pop("lapack.py")
    assert set(LAPACK_ONLY) <= set(lapack_module)
    assert [name for name in lapack_module if name.startswith(NOWHERE)] == []
    assert {name: found for name, found in modules.items() if found} == {}


# A T > 0 point and verify map no BLAS beside numpy's: the OpenBLAS files
# mapped after them are the one numpy mapped on import.
MAPS = Path("/proc/self/maps")
BLAS_MAPS = r"""
import contextlib, io, json
from pathlib import Path

def openblas():
    paths = (line.split(maxsplit=5)[5:] for line in Path("/proc/self/maps").read_text().splitlines())
    return sorted({p[0] for p in paths if p and "openblas" in Path(p[0]).name.lower()})

import numpy
on_import = openblas()
import cosmoflux.cli
from cosmoflux import canonical_config, run_simulation
assert run_simulation(canonical_config())["flags"] == "ok"
with contextlib.redirect_stdout(io.StringIO()):
    assert cosmoflux.cli.main(["verify"]) == 0
print(json.dumps({"numpy": on_import, "after": openblas()}))
"""


@pytest.mark.skipif(not MAPS.exists(), reason="needs /proc/self/maps")
def test_a_thermal_point_and_verify_map_only_numpys_openblas():
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_MAPS],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    mapped = json.loads(proc.stdout.splitlines()[-1])
    assert len(mapped["numpy"]) == 1
    assert mapped["after"] == mapped["numpy"]


# Only cosmoflux.fock may know how a kernel buffer is walked entry by
# entry: its gather tables, its chunks, the recurrence's row layout, the
# per-state order of the sector states' totals and the views it cuts into
# blocks. Every other stage reads a total table or a kernel's per-sector
# views, and a Gibbs state's per-total weights.
FOCK_ONLY = {
    "sector_index", "SectorIndex", "Chunk", "chunk_keys", "_chunk_scratch",
    "_recurrence_table", "CHUNK_ENTRIES", "state_totals", "sector_views",
}
# thermo reads a total table, never a kernel or its amplitudes
KERNEL_NAMES = {"TransitionKernel", "amplitudes", "flat_amplitudes"}


def source_names(source: str) -> set[str]:
    """Every name source imports, names, defines or reads as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_only_fock_walks_a_kernel_buffer():
    assert source_names(
        "from .fock import sector_index as ix\nfock.CHUNK_ENTRIES\n"
        "def f(c: Chunk): return _recurrence_table(c)\n"
    ) & FOCK_ONLY == {"sector_index", "CHUNK_ENTRIES", "Chunk", "_recurrence_table"}
    modules = {path.name: source_names(path.read_text()) & FOCK_ONLY for path in SRC.glob("*.py")}
    assert modules.pop("fock.py") == FOCK_ONLY
    assert {name: found for name, found in modules.items() if found} == {}


def test_thermo_names_no_kernel():
    assert source_names("k.amplitudes[0]\nx: TransitionKernel\n") & KERNEL_NAMES == {
        "amplitudes", "TransitionKernel",
    }
    assert source_names((SRC / "thermo.py").read_text()) & KERNEL_NAMES == set()
