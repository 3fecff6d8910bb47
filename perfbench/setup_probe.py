"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <size>

Prints ``{"setup_s": ...}``: the wall time of importing the program
modules the workload uses plus constructing its join, topology or
executor (for ``q3-sparse-parallel`` also an empty-stream executor run,
which starts and stops the worker).  Input generation is not included.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from benchlib import load

    load(sys.argv[1], sys.argv[2]).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
