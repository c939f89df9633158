"""hopfcyclic benchmark: one workload, timed end to end or traced by layer.

Usage (from the repository root):
  python3 perfbench/run.py --workload cli-readme --seed 1 --seconds 30 --trace 0

Each operation runs in a fresh interpreter, one at a time (closed loop, a
single client).  A run repeats whole passes over the workload's
operations, in an order drawn from the seed, until another pass would
overrun --seconds; it always makes at least one pass.  Every output is
checked against references computed outside the package (checks.py).

--trace 0 prints the end-to-end metrics, with times scaled to a fixed
machine speed measured by a probe in every operation's process
(make_record; README.md, "Scaled times").  --trace 1 runs every operation
twice per pass, untraced and traced (alternating which goes first), and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is the JSON result; raw records go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170  # an operation is killed once the run has taken this long
# time of worker.probe() at the reference machine speed (the fast state of a
# 2 vCPU Xeon VM, Python 3.11); see README.md, "Scaled times"
PROBE_REF_S = 0.00075

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    values = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice
    return values[7], sum(values[:8])


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2": find_spec("gmpy2") is not None,
    }


# ---------------------------------------------------------------------------
# running operations


def run_op(op, traced, timeout):
    """Run one operation in a fresh interpreter and return its record."""
    spec = {"kind": op["kind"], "trace": int(traced)}
    if op["kind"] == "cli":
        spec["argv"] = op["argv"]
    else:
        spec.update(name=op["name"], field=op["field"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    record = {"key": op["key"], "name": op["name"], "field": op["field"], "traced": traced}
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-s", str(HERE / "worker.py"), json.dumps(spec)],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record.update(exit=None, problems=[f"did not finish in {timeout:.0f} s"])
        return record
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record.update(exit=None, problems=[f"worker exit {proc.returncode}: "
                                           f"{proc.stderr.strip()[-300:]}"])
        return record
    return make_record(op, traced, out, spawned)


def make_record(op, traced, out, spawned):
    """The record of one finished operation from the worker's output line.

    ``op_s`` and ``setup_s`` are scaled to the reference machine speed:
    each is multiplied by the mean of PROBE_REF_S / probe time over the
    probes taken around and during the operation (before it, for
    set-up).  ``raw_op_s`` and ``raw_setup_s`` are the clock readings.
    """
    probes = out["probe_s"]
    before = [PROBE_REF_S / t for t in probes["before"]]
    samples = before + [PROBE_REF_S / t for t in probes["during"] + probes["after"]]
    raw_setup = out["setup_done"] - spawned
    record = {"key": op["key"], "name": op["name"], "field": op["field"], "traced": traced,
              "raw_setup_s": raw_setup,
              "raw_op_s": out["op_s"],
              "setup_s": raw_setup * sum(before) / len(before),
              "op_s": out["op_s"] * sum(samples) / len(samples),
              "exit": out["exit"],
              "text": out["text"],
              "maxrss_kb": out["maxrss_kb"],
              "probe_s": probes,
              "problems": checks.check_report(op["expect"], out["exit"], out["text"])}
    if traced:
        record["trace"] = out["trace"]
    return record


def _tables(record):
    try:
        return json.dumps(json.loads(record["text"])["tables"], sort_keys=True)
    except (KeyError, ValueError):
        return None


def cross_check(passes):
    """Add the problems that need more than one record.

    Q and F_(2^31-1) must give identical tables; a report must be
    byte-identical to the same operation's report in the first pass; a
    traced report must be byte-identical to its untraced twin.
    """
    first = {}
    for records in passes:
        plain = {r["key"]: r for r in records if not r["traced"] and "text" in r}
        by_name = {}
        for r in plain.values():
            by_name.setdefault(r["name"], []).append(r)
        for group in by_name.values():
            if len({_tables(r) for r in group}) > 1:
                for r in group:
                    r["problems"].append("Q and F_p tables differ")
        for key, r in plain.items():
            ref = first.setdefault(key, r["text"])
            if r["text"] != ref:
                r["problems"].append("report differs from the first pass")
        for r in records:
            if r["traced"] and "text" in r and r["key"] in plain \
                    and r["text"] != plain[r["key"]]["text"]:
                r["problems"].append("traced report differs from untraced")


def run_passes(ops, seed, seconds, traced_too):
    rng = random.Random(seed)
    passes = []
    begin = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        records = []
        for i, op in enumerate(order):
            modes = ((False, True) if i % 2 == 0 else (True, False)) if traced_too else (False,)
            for traced in modes:
                left = RUN_LIMIT_S - (time.perf_counter() - begin)
                records.append(run_op(op, traced, max(left, 1.0)))
        passes.append(records)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _op_medians(plain, field):
    per_op = {}
    for r in plain:
        per_op.setdefault((r["key"], r["field"]), []).append(r[field])
    return {key: statistics.median(v) for key, v in per_op.items()}


def raw_figures(passes):
    """Unscaled clock readings, for the info line and the raw record."""
    records = [r for p in passes for r in p if "op_s" in r and not r["traced"]]
    if not records:
        return {}
    return {"raw_wall_s": sum(_op_medians(records, "raw_op_s").values()),
            "raw_setup_s": statistics.median(r["raw_setup_s"] for r in records)}


def end_to_end_metrics(passes):
    records = [r for p in passes for r in p if "op_s" in r]
    plain = [r for r in records if not r["traced"]]
    medians = _op_medians(plain, "op_s")
    q_wall = sum(v for (key, field), v in medians.items() if field == "q")
    fp_wall = sum(v for (key, field), v in medians.items() if field != "q")
    return {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in records), "s"),
        "wall_s": _metric(q_wall + fp_wall, "s"),
        "q_wall_s": _metric(q_wall, "s"),
        "fp_wall_s": _metric(fp_wall, "s"),
        "slowest_op_s": _metric(max(medians.values()), "s"),
        "peak_rss_mb": _metric(max(r["maxrss_kb"] for r in plain) / 1024, "MB"),
    }


def per_layer_metrics(passes):
    """Per-layer totals of the traced records, as a mean per pass."""
    n = len(passes)
    traced = [r for p in passes for r in p if r["traced"] and "trace" in r]
    plain = [r for p in passes for r in p if not r["traced"] and "op_s" in r]
    totals = {}
    for r in traced:
        field = "q" if r["field"] == "q" else "fp"
        for layer, row in r["trace"]["layers"].items():
            acc = totals.setdefault(layer, {})
            for stat, value in row.items():
                acc[stat] = acc.get(stat, 0) + value
            acc[f"{field}_self_s"] = acc.get(f"{field}_self_s", 0) + row["self_s"]
    metrics = {}
    for layer in layertrace.LAYERS:
        for stat in layertrace.REPORTED.get(layer, ("self_s",)):
            unit = "s" if stat.endswith("_s") else "count"
            metrics[f"{layer}.{stat}"] = _metric(totals.get(layer, {}).get(stat, 0) / n, unit)
    # self times, untraced_s and traced_wall_s are clock readings; the
    # overhead compares scaled times, since the machine's speed drifts
    # between an operation and its traced twin
    traced_wall = sum(r["raw_op_s"] for r in traced)
    covered = sum(r["trace"]["covered_s"] for r in traced)
    metrics["untraced_s"] = _metric((traced_wall - covered) / n, "s")
    metrics["traced_wall_s"] = _metric(traced_wall / n, "s")
    metrics["trace_overhead_s"] = _metric(
        (sum(r["op_s"] for r in traced) - sum(r["op_s"] for r in plain)) / n, "s")
    return metrics


def _strip(record):
    return {k: v for k, v in record.items() if k != "text"}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "hopfcyclic" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    info = environment()
    steal_before = _cpu_jiffies()
    passes = run_passes(ops, args.seed, args.seconds, traced_too=bool(args.trace))
    steal_after = _cpu_jiffies()
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        info["cpu_steal_share"] = ((steal_after[0] - steal_before[0])
                                   / (steal_after[1] - steal_before[1]))
    cross_check(passes)
    records = [r for p in passes for r in p]
    failed = [r for r in records if r["problems"]]
    if not any("op_s" in r for r in records):
        metrics = None
    elif args.trace:
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=len(passes),
                **raw_figures(passes))
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"info": info, "metrics": metrics,
                               "passes": [[_strip(r) for r in p] for p in passes]},
                              indent=1, sort_keys=True))
    print(json.dumps({"info": info}, sort_keys=True))
    for r in failed[:10]:
        print(f"FAILED {r['key']}{' (traced)' if r['traced'] else ''}: {r['problems']}")
    if metrics is None:
        print("perfbench: no operation produced a timing; see " + str(raw), file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
