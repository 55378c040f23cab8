"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/setup_once.py WORKLOAD WORKDIR

Imports what a timed run imports, sets the workload up in WORKDIR as
the timed run does, and prints ``time.monotonic()`` at the end: the
moment the run's first timed cell would start.  ``run.py`` spawns this
script and reads that clock, which all processes share on Linux, to
time a set-up from process start, with no import, lazy load or cache
left warm by an earlier set-up.
"""

import sys
import time
from pathlib import Path


def main(argv):
    workload_name, workdir = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import harness

    workload = harness.make_workloads()[workload_name]
    workload.load()
    workload.setup(Path(workdir))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
