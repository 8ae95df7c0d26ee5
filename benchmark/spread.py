"""Run one workload over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload NAME --seeds 1-10 --seconds S

Runs ``run.py --trace 0`` once per seed, one process after another, and
prints for every end-to-end metric its median and the distance between
the first and third quartile as a share of the median
(``statistics.quantiles(n=4)``).  It also prints the unnormalised round
wall time and the unnormalised round and set-up CPU times read from the
written reports, so the effect of the machine-speed normalisation can be
seen side by side.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def spread(values) -> tuple[float, float | None]:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    walls = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr), file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: correct is false\n%s" % (seed, proc.stderr), file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        report = json.loads((HERE / "out" / ("%s-seed%d-trace0.json" % (args.workload, seed))).read_text())
        for name, value in (("wall_round_s", report["summary"]["round_wall_median_s"]),
                            ("cpu_round_s", report["summary"]["round_raw_median_s"]),
                            ("cpu_setup_s", report["setup"]["raw_s"])):
            values.setdefault(name, []).append(value)
            units[name] = "s"
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, v[-1]) for k, v in values.items())), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "failed_shares": sorted(set(shares)), "run_wall_s": [min(walls), max(walls)], "metrics": {}}
    print("%-45s %12s %8s  unit" % ("metric", "median", "spread"))
    for name, vals in values.items():
        med, sp = spread(vals)
        summary["metrics"][name] = {"median": med, "spread": sp, "unit": units[name]}
        print("%-45s %12.5g %8s  %s" % (name, med, "-" if sp is None else "%.3f" % sp, units[name]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
