"""Which entry points load scipy.linalg.

Importing scipy.linalg costs about 0.2 s and 27 MiB, and only the spectral
oracle and the quantum relative entropy call LAPACK. So a T = 0 process,
the CLI's help and a config error never load it; a T > 0 run loads it in
its first quantum relative entropy. This test process has imported scipy
already, so the steps run in one fresh child that reports after each.
"""

import json
import subprocess
import sys

from conftest import CHILD_ENV

CHILD = r"""
import contextlib, io, json, sys

loaded = {}

def mark(step):
    loaded[step] = "scipy.linalg" in sys.modules

import cosmoflux, cosmoflux.cli
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

print(json.dumps(loaded))
"""


def test_only_a_thermal_run_loads_scipy_linalg():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, env=CHILD_ENV, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": False,
        "from_mapping": False,
        "simulate T = 0": False,
        "sweep sigma T = 0": False,
        "cli --help": False,
        "cli config error": False,
        "simulate T = 0.5": True,
    }
