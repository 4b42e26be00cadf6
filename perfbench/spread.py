"""Run-to-run spread of the benchmark: run run.py once per seed, one run at a
time, and print per metric the median and (Q3 - Q1) / median against the
bound in BENCHMARK.json, plus the exact counts of each run.

    python3 perfbench/spread.py --workload certify --seeds 1-10

Run it from the root of a checkout.  It stops at the first run that fails
or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchstats  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write runs and summary as JSON here")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, runs = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        counts = next((ln for ln in lines if ln.startswith("# counts:")), "")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {counts}")
        if not result["correct"]:
            print("\n".join(lines[:-1]))
            return 1
        runs.append({"seed": seed, "counts": counts[len("# counts: "):], **result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<52} {'median':>14} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, xs in values.items():
        spread = benchstats.quartile_spread(xs) if len(xs) > 1 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
        print(f"{name:<52} {benchstats.median(xs):>14.6f} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        summary[name] = {"median": benchstats.median(xs), "spread": spread}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
