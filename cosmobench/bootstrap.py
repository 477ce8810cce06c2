"""Import cosmoflux from the checkout's ``src`` with BLAS pinned to one thread.

Call ``load_cosmoflux`` before anything imports numpy: OpenBLAS reads its
thread count once, when numpy loads it.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The directory holds no cosmoflux source to benchmark."""


def pin_threads(env):
    """Pin BLAS to 1 thread in ``env`` and leave the sweep pool at its default."""
    for var in PINNED_THREAD_VARS:
        env[var] = "1"
    env.pop("COSMOFLUX_THREADS", None)
    return env


def load_cosmoflux():
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    pin_threads(os.environ)
    if not (SRC / "cosmoflux" / "__init__.py").is_file():
        raise CheckoutError(f"no cosmoflux package under {SRC}")
    sys.path.insert(0, str(SRC))
    cosmoflux = importlib.import_module("cosmoflux")
    importlib.import_module("cosmoflux.cli")
    if Path(cosmoflux.__file__).resolve().parent != SRC / "cosmoflux":
        raise CheckoutError(f"imported cosmoflux from {cosmoflux.__file__}, not {SRC}")
    return cosmoflux
