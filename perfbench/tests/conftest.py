"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
