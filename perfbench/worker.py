"""Runs one benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py '<op json>'

The op is {"kind": "cli", "argv": [...], "trace": 0|1} or
{"kind": "lib", "name": ..., "field": ..., "trace": 0|1}.  The parent puts
the package's ``src`` directory on PYTHONPATH.  The last line printed is
one JSON object holding the CLOCK_MONOTONIC reading (shared with the
parent on Linux) after the package import, the operation's time, the
speed-probe timings, the exit code, the report text, the peak RSS and,
when traced, the layer summary.

The probe is a fixed piece of pure-Python work timed before and after the
operation and, untraced, every PROBE_EVERY_S seconds during it; its time
during the operation is taken out of the operation's time.
"""

import json
import signal
import sys
import time
from fractions import Fraction

import hopfcyclic.cli  # the import is part of set-up time

SETUP_DONE = time.perf_counter()

PROBE_EVERY_S = 0.05
PROBES_AROUND = 5


def probe():
    """Time a fixed piece of pure-Python work like the package's inner loops
    (dict updates on tuple keys, exact rational arithmetic)."""
    start = time.perf_counter()
    acc = {}
    x = Fraction(0)
    for i in range(300):
        key = (i % 61, i % 53)
        acc[key] = acc.get(key, 0) + i * 7 % 11
        x += Fraction(i % 5, 7)
    return time.perf_counter() - start


def run_op(op):
    if op["kind"] == "cli":
        # look the entry point up after tracing is installed, so the
        # wrapped ``run`` is the one called
        return hopfcyclic.cli.run(list(op["argv"]))
    import library_ops
    return library_ops.OPS[op["name"]](op["field"])


def main():
    import resource

    op = json.loads(sys.argv[1])
    tracer = None
    if op.get("trace"):
        import layertrace
        tracer = layertrace.install()
    before = [probe() for _ in range(PROBES_AROUND)]
    during = []
    if tracer is None:
        # sample the machine's speed while the operation runs; the handler
        # runs between bytecodes of the main thread
        signal.signal(signal.SIGALRM, lambda signum, frame: during.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = time.perf_counter()
    try:
        code, text = run_op(op)
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    after = [probe() for _ in range(PROBES_AROUND)]
    out = {
        "setup_done": SETUP_DONE,
        "op_s": end - start - sum(during),
        "probe_s": {"before": before, "during": during, "after": after},
        "exit": code,
        "text": text,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    sys.stdout.write("\n" + json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
