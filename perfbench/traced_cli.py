"""Run one ``cyfold`` command with the package's entry points wrapped.

Usage: python3 perfbench/traced_cli.py <cyfold arguments>

The traced run of the ``cli`` workload starts every command through this
file instead of ``python3 -m cyfold.cli``.  It writes the spans, counters
and the import time of ``cyfold.cli`` as JSON to the path in
``PERFBENCH_TRACE_OUT`` and exits with the command's exit code.
"""

import json
import os
import sys
import time


def main():
    t0 = time.perf_counter()
    import cyfold.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cyfold.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
