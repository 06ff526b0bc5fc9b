"""Set-up probe, run in a fresh process: import suspmix.cli from the given
source directory and parse the given configs; print the seconds taken.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG...
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import suspmix.cli as cli  # noqa: E402

for path in sys.argv[2:]:
    cli.SystemConfig.from_file(path)
print(repr(time.perf_counter() - start))
