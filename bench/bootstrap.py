"""Imported first by the benchmark's entry points, before numpy.

Pins the BLAS pools to one thread (numpy here links OpenBLAS, which would
otherwise start a thread per core, while slmforge targets one core) and
puts the checkout's ``src`` on ``sys.path`` by absolute path, so no
``pip install`` is needed and the working directory does not matter.
Exits with an error when the checkout has no ``src/slmforge``.
"""

import os
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # process start, as near as Python code can see it

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "slmforge" / "__init__.py").is_file():
    sys.exit(f"bench: no slmforge package under {SRC}; run it from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
