import os
from pathlib import Path

import numpy as np
import pytest

from cosmoflux import (
    TruncationSpec,
    entropy_distributions,
    inner_friction,
    thermal_distribution,
    transition_kernel,
)

Z_CANON = float(np.arctanh(0.5))

# Environment for `python -m cosmoflux` child processes: they import this
# checkout's package, as the tests themselves do, installed or not.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def spy_on(monkeypatch, module, name: str) -> list:
    """Wrap module.name for one test; returns the list of each call's arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture(scope="session")
def spec40():
    return TruncationSpec(cutoff=40, leakage_tolerance=1e-8)


@pytest.fixture(scope="session")
def kernel40(spec40):
    return transition_kernel(Z_CANON, spec40)


@pytest.fixture(scope="session")
def thermal40(spec40):
    return thermal_distribution(1.0, 1.0, spec40)


@pytest.fixture(scope="session")
def work40(kernel40, thermal40):
    return inner_friction(kernel40.table, thermal40, 1.0, 2.0)


@pytest.fixture(scope="session")
def dists40(kernel40, thermal40):
    return entropy_distributions(kernel40.table, thermal40)


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
