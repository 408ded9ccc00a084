"""Set-up time in a fresh interpreter: import modfix and load every config
named on the command line; prints the seconds that took.

    python3 perfbench/setup_probe.py <src dir> <config.json>...
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import modfix  # noqa: E402

for path in sys.argv[2:]:
    modfix.load_config(path)
print(time.perf_counter() - t0)
