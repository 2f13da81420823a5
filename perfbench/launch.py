"""Run `xcross.cli.main` with the benchmark's tracer installed.

Traced CLI ops start their `xcross` children as
``python perfbench/launch.py <command> <args>`` instead of
``python -m xcross <command> <args>``.  The parent passes, in the
environment, the monotonic time it spawned the child (``XBENCH_SPAWN``),
the span the child's spans belong under (``XBENCH_PARENT``), the op id
(``XBENCH_OP``) and the file the spans are appended to (``XBENCH_SPANS``).
The time from spawn to `main()` entry is recorded as ``launcher.startup``.
"""

import os
import sys
import time

import xcross.cli

from tracer import Tracer


def main() -> int:
    tracer = Tracer(root=os.environ["XBENCH_PARENT"], op=os.environ["XBENCH_OP"])
    tracer.install()
    tracer.record("launcher.startup", float(os.environ["XBENCH_SPAWN"]), time.monotonic())
    try:
        return xcross.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["XBENCH_SPANS"])


if __name__ == "__main__":
    raise SystemExit(main())
