"""Run one ``conewalk`` CLI call under the tracer.

Usage: ``PYTHONPATH=src python perfbench/traced_cli.py <cli arguments>``
with ``PERFBENCH_TRACE_OUT`` naming the JSON file the spans go to,
``PERFBENCH_OP_ID`` the operation id stamped on every span, and
``PERFBENCH_LAUNCH_T`` the wall-clock time the parent launched this
process.  The exit code is the CLI's.
"""

import os
import sys
import time

import conewalk.cli

from tracer import Tracer, install


def main() -> int:
    imported = time.time()
    tracer = Tracer(os.environ["PERFBENCH_OP_ID"])
    tracer.meta["startup_s"] = imported - float(os.environ["PERFBENCH_LAUNCH_T"])
    install(tracer)
    try:
        return conewalk.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
