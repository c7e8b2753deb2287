"""Make the benchmark's modules and the program importable.

The benchmark resolves the checkout from the working directory, so the
tests run from the repository root whatever directory pytest starts in.
"""

import os
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
os.chdir(ROOT)
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
