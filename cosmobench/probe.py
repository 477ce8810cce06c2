"""Reference probe: a fixed computation timed next to every op.

On a shared machine the speed of a CPU drifts by 30 % and more over tens of
seconds, as other tenants load the cores, caches and memory bus. An op's
wall time divided by the probe's wall time, taken right before and after
it, cancels most of that drift while still moving one for one with any
change to the program.

The probe mixes the kinds of work the package does: interpreted loops, many
small numpy calls, BLAS products, and passes over a freshly allocated
32 MiB array, like the dense arrays each op allocates. It never calls
cosmoflux. It always runs as a single copy on one thread, whatever the
workload and whatever thread pool the program uses, so the unit an op is
divided by never depends on the program under test.

The probe runs in its own process, started by the workload process and
driven over a pipe, so its memory never counts in the workload's peak RSS:

    python3 cosmobench/probe.py

reads one line per batch (the wall seconds of the op just run) and answers
with the mean probe time of a batch covering ``PROBE_SHARE`` of that op,
at least one run. It exits when its input closes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

# A batch between two ops covers at least this share of the last op's wall
# time, so long ops are normalised by as many probe samples as short ones.
PROBE_SHARE = 0.1


def _work(small, square) -> float:
    import numpy as np

    acc = 0.0
    for i in range(60000):
        acc += i * 0.5
    a = small.copy()
    for _ in range(1500):
        col = np.einsum("ij,ij->j", a, a)
        a[:, :32] = a[:, :32] * 0.999 + 1e-3 * a[:, 32:]
    acc += float(col[0])
    for _ in range(3):
        acc += float((square @ square)[0, 0])
    big = np.full(4 * 2**20, 1.0001)
    for _ in range(3):
        np.multiply(big, 1.0001, out=big)
        acc += float(big.sum())
    return acc


def serve() -> None:
    import numpy as np

    rng = np.random.default_rng(20140919)
    small = rng.standard_normal((64, 64))
    square = rng.standard_normal((400, 400))

    def once() -> float:
        t0 = time.perf_counter()
        _work(small, square)
        return time.perf_counter() - t0

    once()  # warm caches and lazy numpy set-up before the first timing
    for line in sys.stdin:
        times = [once()]
        while sum(times) < PROBE_SHARE * float(line):
            times.append(once())
        print(repr(statistics.mean(times)), flush=True)


class ProbeProcess:
    """Client side: one probe process for the life of a timed loop."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def batch(self, last_latency: float) -> float:
        """Mean probe seconds of one batch sized by the op just run."""
        self.proc.stdin.write(f"{last_latency!r}\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"probe process exited with code {self.proc.wait()}")
        return float(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
