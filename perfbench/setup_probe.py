"""Time one set-up in a fresh interpreter: import mcglift and build every
cache the workloads use.  Prints the seconds taken."""

import sys
import time
from pathlib import Path

from workloads import build_caches

HERE = Path(__file__).resolve().parent

t0 = time.perf_counter()
sys.path.insert(0, str(HERE.parent / "src"))
import mcglift  # noqa: E402

build_caches(mcglift)
print(time.perf_counter() - t0)
