"""scripts/bench_pairs.py: both sides run from paths of the same length,
and the script, stopped by SIGTERM, leaves no run and no export behind.

The script runs with stand-ins for cosmobench/run.py: one records where it
runs and prints a result line; the other starts a child of its own and
then waits, and SIGTERM must end both (the run's process group) and remove
the script's temporary directory.
"""

import json

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

RECORDER = r"""
import json, os, sys
from pathlib import Path
with open(os.environ["STUB_RUNS"], "a") as fh:
    fh.write(json.dumps({
        "cwd": os.getcwd(),
        "files": sorted(str(p) for p in Path(".").rglob("*") if p.is_file()),
    }) + "\n")
names = [m["name"] for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]]
print(json.dumps({
    "correct": True, "attempted": 1, "failed": 0,
    "metrics": {name: {"value": 1.0} for name in names},
}))
"""

needs_git = pytest.mark.skipif(
    shutil.which("git") is None
    or subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    .returncode,
    reason="needs this checkout's git history",
)


@needs_git
def test_both_sides_run_from_paths_of_the_same_length(tmp_path):
    # the change side runs from a copy of the working tree beside the
    # parent's export, not from the checkout: the path's length alone
    # moves peak_rss_mb. The copy holds the tracked and untracked files
    # git lists, and leaves the ignored ones and .git out
    stub, runs = tmp_path / "recorder.py", tmp_path / "runs"
    stub.write_text(RECORDER)
    env = {**os.environ, "TMPDIR": str(tmp_path), "STUB_RUNS": str(runs)}
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(ROOT / "scripts"), str(stub), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    parent, change = (json.loads(line) for line in runs.read_text().splitlines())
    assert Path(parent["cwd"]).name == "parent" and Path(change["cwd"]).name == "change"
    assert Path(parent["cwd"]).parent == Path(change["cwd"]).parent
    assert len(parent["cwd"]) == len(change["cwd"])
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    assert change["files"] == sorted(name for name in listed if (ROOT / name).is_file())
    assert "src/cosmoflux/fock.py" in parent["files"]
    report = json.loads((tmp_path / "out").read_text())
    assert report["src_lines"]["change"] > 0


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
@needs_git
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
