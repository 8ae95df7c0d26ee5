"""Run one workload of the torickit benchmark in one single-threaded process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports torickit from ``src/`` next to this directory, builds the
workload's inputs, makes one warm-up pass over every operation, then runs
whole rounds until the next round would end after ``--seconds``.  Every
operation is timed from outside, in CPU time of the process's one
thread, with the machine-speed reference of ``yardstick`` interleaved;
reported times are normalised by it.  Every result is checked by
``oracles``; an operation that raises or fails its check counts as
failed.

With ``--trace 0`` the last line of standard output carries setup_s
(process start through import, input construction and the warm-up pass),
round_s (median over rounds of a round's summed normalised time) and
peak_rss_mb.  With ``--trace 1`` rounds run in pairs, one
untraced and one with the per-layer wrappers of ``tracing`` installed, and
the last line carries the per-layer metrics.  The full report, with raw
and normalised times of every operation, is written to ``out/``.
Exits 2 without a result when torickit cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import tracing  # noqa: E402  (imports nothing from torickit)
import yardstick  # noqa: E402

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import torickit from SRC; None (with a message) when that fails."""
    sys.path.insert(0, str(SRC))
    try:
        import torickit
    except ImportError as exc:
        print("benchmark: cannot import torickit from %s: %s" % (SRC, exc), file=sys.stderr)
        return None
    if Path(torickit.__file__).resolve().parent.parent != SRC.resolve():
        print("benchmark: torickit came from %s, not from %s" % (torickit.__file__, SRC), file=sys.stderr)
        return None
    return torickit


# -- timing ----------------------------------------------------------------------


def timed(op, stick: yardstick.Yardstick) -> dict:
    """Run one operation with the reference interleaved and topped up after it."""

    def call():
        try:
            return op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            return None, "%s: %s" % (type(exc).__name__, exc)

    rec = stick.time(call)
    rec["result"], rec["error"] = rec["result"]
    return {"name": op.name, **rec}


def judge(op, rec: dict, rng: random.Random):
    """Check a timed result apart from the program; fills rec['ok']."""
    if rec["error"] is None:
        try:
            if not op.check(rec["result"], rng):
                rec["error"] = "check failed"
        except Exception as exc:
            rec["error"] = "check raised %s: %s" % (type(exc).__name__, exc)
    rec["ok"] = rec["error"] is None
    del rec["result"]


def run_round(order, rng, stick, tracer=None) -> dict:
    """One pass over the battery, then the checks; with a tracer, per-layer
    readings too."""
    ops = []
    self_norm: dict[str, float] = {}
    if tracer is not None:
        tracer.reset()
    for op in order:
        before = tracer.self_times() if tracer is not None else None
        rec = timed(op, stick)
        if tracer is not None and rec["span_s"] > 0:
            # wrapper spans are CPU time and include the reference slices
            scale = rec["norm_s"] / rec["span_s"]
            for key, value in tracer.self_times().items():
                delta = value - before[key]
                if delta:
                    self_norm[key] = self_norm.get(key, 0.0) + delta * scale
        ops.append(rec)
    for op, rec in zip(order, ops):
        judge(op, rec, rng)
    out = {
        "raw_s": sum(r["raw_s"] for r in ops),
        "wall_s": sum(r["wall_s"] for r in ops),
        "norm_s": sum(r["norm_s"] for r in ops),
        "traced": tracer is not None,
        "ops": ops,
    }
    if tracer is not None:
        out["calls"] = {k: v for k, v in tracer.calls().items() if v}
        out["counters"] = dict(tracer.counters)
        out["self_norm_s"] = self_norm
        out["layers"] = tracing.layer_values(out["calls"], self_norm, tracer.counters)
    return out


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# -- the run -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2
    if import_program() is None:
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("benchmark: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    # set-up: process start through import, input construction and one
    # warm-up pass over every operation, each segment normalised
    children_at_start = children_cpu()
    stick = yardstick.Yardstick()
    startup = stick.after(time.process_time())  # CPU time since the process started
    inputs = stick.time(workloads.WORKLOADS[args.workload])
    battery = inputs.pop("result")
    warm = [timed(op, stick) for op in battery.ops]
    setup_raw = startup["raw_s"] + inputs["raw_s"] + sum(r["raw_s"] for r in warm)
    setup_norm = startup["norm_s"] + inputs["norm_s"] + sum(r["norm_s"] for r in warm)
    warm_results = {r["name"]: r["result"] for r in warm}
    check_rng = random.Random("points-%d" % args.seed)
    for op, rec in zip(battery.ops, warm):
        judge(op, rec, check_rng)

    problems = []
    try:
        controls = battery.controls(warm_results)
    except Exception as exc:  # e.g. the warm-up result a control reads failed
        controls = {}
        problems.append("negative control could not run: %s: %s" % (type(exc).__name__, exc))
    del warm_results
    problems += ["negative control came out equal: %s" % k for k, unequal in controls.items() if not unequal]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "nominal_unit_s": yardstick.NOMINAL_UNIT_S, "reference_share": yardstick.SHARE,
        "setup": {
            "raw_s": setup_raw, "norm_s": setup_norm,
            "startup": startup,
            "inputs": inputs,
            "warmup": warm,
        },
        "negative_controls": controls,
    }

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        probes = [battery.op(name) for name in battery.probes]
        report["cprofile_check"] = tracer.compare_with_cprofile(lambda: [op.run() for op in probes])
        tracer.uninstall()
        problems += ["wrapper and cProfile disagree on %s" % m["function"]
                     for m in report["cprofile_check"]["mismatches"]]
    stray = tracing.installed_wrappers()
    if stray:
        problems.append("wrappers installed in an untraced round: %s" % ", ".join(stray))

    # measurement: whole rounds until the next one would end after --seconds
    order_rng = random.Random("order-%d" % args.seed)
    rounds = []
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        order = list(battery.ops)
        order_rng.shuffle(order)
        rounds.append(run_round(order, check_rng, stick))
        if tracer is not None:
            tracer.install()
            try:
                rounds.append(run_round(order, check_rng, stick, tracer))
            finally:
                tracer.uninstall()
        last = time.perf_counter() - t
        if time.perf_counter() - begin + last > args.seconds:
            break
    stray = tracing.installed_wrappers()
    if stray:
        problems.append("wrappers left installed: %s" % ", ".join(stray))
    # the times are CPU time of this one thread: work moved to other
    # threads or processes would not be counted
    if threading.active_count() != 1 or children_cpu() != children_at_start:
        problems.append("the program used other threads or processes")

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(not op["ok"] for r in rounds for op in r["ops"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    norm_rounds = [r["norm_s"] for r in plain]
    report["summary"] = {
        "rounds": len(plain), "traced_rounds": len(traced),
        "round_norm_s": norm_rounds, "round_raw_s": [r["raw_s"] for r in plain],
        "round_norm_median_s": statistics.median(norm_rounds),
        "round_raw_median_s": statistics.median(r["raw_s"] for r in plain),
        "round_wall_median_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": peak_rss_mb, "measure_wall_s": time.perf_counter() - begin,
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_norm, "unit": "s"},
            "round_s": {"value": statistics.median(norm_rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = [t["norm_s"] - p["norm_s"] for p, t in zip(plain, traced)]
        metrics = {}
        for name, (reading, _keys) in tracing.LAYER_METRICS.items():
            unit = "s" if name.endswith("self_s") else "count"
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
    report["problems"] = problems
    report["rounds"] = rounds

    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(report, indent=1, default=str) + "\n")
    tmp.replace(path)
    for line in problems:
        print("benchmark: %s" % line, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
