"""Make the benchmark package and the library importable for its tests.

Run with ``python3 -m pytest bench/tests`` from the root of the repository.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
