"""Run one `qmpoly` command under the tracer, for traced report runs.

    python3 perfbench/launch.py weights <file> --format json

The report JSON goes to standard output as usual.  The process's
per-layer totals are appended as one JSON line to $PERFBENCH_TRACE_RAW
and its spans to $PERFBENCH_TRACE_SPANS; requests run one at a time, so
the appends never interleave.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import qmpoly.cli  # noqa: E402  (timed: the start-up every CLI user pays)
import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    tr = Tracer().install()
    tr.begin_request(0)
    tr.acc["cli.import_s"] += import_s
    try:
        rc = sys.modules["qmpoly.cli"].main(sys.argv[1:])
    finally:
        tr.end_request()
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_TRACE_RAW"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tr.raw()) + "\n")
        tr.dump(os.environ["PERFBENCH_TRACE_SPANS"], mode="a")
    return rc


if __name__ == "__main__":
    sys.exit(main())
