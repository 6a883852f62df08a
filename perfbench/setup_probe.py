#!/usr/bin/env python3
"""Time one cold set-up of a benchmark workload in this fresh process.

Set-up is importing a2cent, loading the presentation and generating the
workload's inputs.  Prints the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path


def main():
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    workloads.make_inputs(sys.argv[1], workloads.load_presentation(), int(sys.argv[2]))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
