"""Which entry points load scipy.linalg, and which load LAPACK.

Importing the package scipy.linalg costs about 0.2 s and 27 MiB, and the
package calls only two LAPACK routines, which it binds with ctypes from
scipy's compiled module scipy.linalg.cython_lapack. fock._lapack loads
that module from its file without running scipy/linalg/__init__.py, so no
step here, a T > 0 run and verify included, may load scipy.linalg; the
T > 0 run must have loaded LAPACK. This test process has imported scipy
already, so the steps run in one fresh child that reports after each.
"""

import json
import subprocess
import sys

import pytest
from conftest import CHILD_ENV

CHILD = r"""
import contextlib, io, json, sys

loaded = {}

def mark(step):
    loaded[step] = ["scipy.linalg" in sys.modules, fock._load_lapack.cache_info().currsize == 1]

import cosmoflux, cosmoflux.cli
from cosmoflux import fock
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


def test_no_step_loads_scipy_linalg():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    # [scipy.linalg loaded, LAPACK loaded] after each step
    assert loaded == {
        "import": [False, False],
        "from_mapping": [False, False],
        "simulate T = 0": [False, False],
        "sweep sigma T = 0": [False, False],
        "cli --help": [False, False],
        "cli config error": [False, False],
        "simulate T = 0.5": [False, True],
        "cli verify": [False, True],
    }


# fock._lapack assumes scipy's private layout: the Cython module
# cython_lapack in scipy/linalg/. Whichever of it and scipy.linalg loads the
# module first, the other must find the same module, bound on scipy.linalg
# as its attribute, and the package's routines must give
# scipy.linalg.lapack's bits on a column-graded matrix and a tridiagonal.
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

from cosmoflux import fluctuation, fock

B = np.random.default_rng(5).standard_normal((14, 8)) * np.logspace(0, -14, 8)
diagonal = np.arange(1.0, 10.0)
off_diagonal = np.sqrt(np.arange(1.0, 9.0))
pairs = [
    (fluctuation.dgejsv(B), scipy.linalg.lapack.dgejsv(B, joba=0, jobu=0, jobv=3)),
    (fock.dstevd(diagonal, off_diagonal),
     scipy.linalg.lapack.dstevd(diagonal, off_diagonal)),
]
print(json.dumps({
    "same module": fock._lapack().module is sys.modules["scipy.linalg.cython_lapack"]
    is scipy.linalg.cython_lapack,
    "same bits": [
        [np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(ours, theirs)]
        for ours, theirs in pairs
    ],
}))
"""


@pytest.mark.parametrize("order", ["cosmoflux first", "scipy.linalg first"])
def test_flapack_cross_loads_with_scipy_linalg(order):
    proc = subprocess.run(
        [sys.executable, "-c", CROSS_LOAD, order],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # dgejsv returns sva, u, v, work, iwork, info; dstevd w, z, info
    assert result == {"same module": True, "same bits": [[True] * 6, [True] * 3]}


def test_a_scipy_without_flapack_is_an_import_error(tmp_path, monkeypatch):
    import scipy

    from cosmoflux import fock

    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError) as exc:
        fock._load_lapack.__wrapped__()
    assert str(tmp_path / "linalg") in str(exc.value)
    assert scipy.__version__ in str(exc.value)
