"""Self-test of the benchmark's checks.

Usage (from the repository root): python3 perfbench/selftest.py

Feeds wrong outputs through the same record and cross-check code the
benchmark uses and requires each to count as a failed operation: a wrong
dimension, a nonzero exit, a Q/F_p mismatch and a report that changes
between passes.  Then runs a few real operations untraced and traced and
requires byte-identical, reference-correct reports and a trace that covers
the operation.  Exits 1 on the first unmet expectation.
"""

import json
import sys

import run
import workloads


def expect(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}")
        raise SystemExit(1)
    print(f"ok  {what}")


def _op(workload, key):
    return next(op for op in workloads.build(workload, 0) if op["key"] == key)


def _fake(op, dims, code=0, table="tor_k_ad"):
    report = {"tables": {table: {f"degree {k}": v for k, v in enumerate(dims)}},
              "summary": {"pass": 1, "fail": 0, "skip": 0}}
    out = {"setup_done": 0.1, "op_s": 0.1, "exit": code, "maxrss_kb": 1,
           "probe_s": {"before": [0.00075], "during": [], "after": [0.00075]},
           "text": json.dumps(report, sort_keys=True)}
    return run.make_record(op, False, out, 0.0)


def _failed(passes):
    run.cross_check(passes)
    return [r["key"] for p in passes for r in p if r["problems"]]


def fabricated():
    tor_q = _op("homology-large", "tor kS3 --max-degree 3 [q]")
    tor_fp = _op("homology-large", "tor kS3 --max-degree 3 [fp:2147483647]")
    good = [3, 0, 0, 0]

    expect(_failed([[_fake(tor_q, good), _fake(tor_fp, good)]]) == [],
           "correct reports count no failure")
    expect(_failed([[_fake(tor_q, [3, 1, 0, 0]), _fake(tor_fp, [3, 1, 0, 0])]])
           == [tor_q["key"], tor_fp["key"]],
           "a wrong dimension fails the operation")
    expect(_failed([[_fake(tor_q, good, code=1), _fake(tor_fp, good)]]) == [tor_q["key"]],
           "a nonzero exit fails the operation")

    # no reference table: only the cross-field check can catch this
    name = "isocheck OS3/OC2 --theorem 3.7 --max-degree 1"
    iso_q = _op("transforms", f"{name} [q]")
    iso_fp = _op("transforms", f"{name} [fp:2147483647]")
    expect(_failed([[_fake(iso_q, [4, 10], table="dims"), _fake(iso_fp, [4, 11], table="dims")]])
           == [iso_q["key"], iso_fp["key"]],
           "a Q/F_p mismatch fails both operations")

    drift = [[_fake(tor_q, good), _fake(tor_fp, good)],
             [_fake(tor_q, good), _fake(tor_fp, good)]]
    drift[1][0]["text"] += " "
    expect(_failed(drift) == [tor_q["key"]], "a report that changes between passes fails")


def real():
    keys = [
        ("cli-readme", "galois kS3/kC2 [q]"),
        ("cli-readme", "homology kC2 --theory hc --max-degree 2 [fp:2147483647]"),
        ("cli-readme", "classical --group S3 --subgroup (12) --op frobenius --chi trivial [q]"),
        ("cli-readme", "isocheck kS3/kC3 --theorem jara-stefan --max-degree 1 [q]"),
    ]
    for workload, key in keys:
        op = _op(workload, key)
        plain = run.run_op(op, False, 120)
        traced = run.run_op(op, True, 120)
        expect(plain["problems"] == [] and traced["problems"] == [],
               f"{key} passes its checks")
        run.cross_check([[plain, traced]])
        expect(traced["problems"] == [], f"{key} traced report is byte-identical")
        summary = traced["trace"]
        expect(summary["layers"]["cli.run"]["calls"] == 1
               and traced["raw_op_s"] - summary["covered_s"] < 0.05 * traced["raw_op_s"],
               f"{key} trace covers the operation")


if __name__ == "__main__":
    fabricated()
    real()
    print("selftest passed")
    sys.exit(0)
