"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/probe.py scan_C

Prints the seconds from the first import of the package to the last local
energy table built, so every sample starts with empty caches.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(name):
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from tracing import NullTracer

    workloads.set_up(workloads.WORKLOADS[name], NullTracer())
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
