"""Make the benchmark's modules and the program under ``src/`` importable in tests."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
