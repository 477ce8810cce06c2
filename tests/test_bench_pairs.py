"""scripts/bench_pairs.py, stopped by SIGTERM, leaves no run and no export behind.

The script runs with a stand-in for cosmobench/run.py that starts a child
of its own and then waits: SIGTERM must end both (the run's process group)
and remove the script's temporary directory.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STUB = r"""
import os, subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
with open(os.environ["STUB_PIDS"], "w") as fh:
    fh.write(f"{os.getpid()} {child.pid}")
time.sleep(600)
"""

LAUNCHER = r"""
import sys
sys.path.insert(0, sys.argv[1])
import bench_pairs
bench_pairs.RUN_SCRIPT = sys.argv[2]
sys.exit(bench_pairs.main([
    "--parent", "HEAD", "--out", sys.argv[3], "--workload", "point-canonical",
    "--pairs", "1", "--seconds", "1",
]))
"""


def _ended(pid: int) -> bool:
    """Whether pid has exited: gone, or a zombie its new parent has not reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_for(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.skipif(
    shutil.which("git") is None
    or subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    .returncode,
    reason="needs this checkout's git history",
)
def test_sigterm_ends_the_run_and_removes_the_export(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    pids_file, tmpdir = tmp_path / "pids", tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "TMPDIR": str(tmpdir), "STUB_PIDS": str(pids_file)}
    proc = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, str(ROOT / "scripts"), str(stub), str(tmp_path / "out")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        assert _wait_for(lambda: pids_file.exists() and pids_file.read_text(), 60)
        pids = [int(p) for p in pids_file.read_text().split()]
        assert [p.name.startswith("bench_pairs_") for p in tmpdir.iterdir()] == [True]
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 128 + signal.SIGTERM, stderr
        assert list(tmpdir.iterdir()) == []
        assert _wait_for(lambda: all(map(_ended, pids)), 10)
        assert not (tmp_path / "out").exists()
    finally:
        proc.kill()
        proc.communicate()
        for pid in pids:
            if not _ended(pid):
                os.kill(pid, signal.SIGKILL)
