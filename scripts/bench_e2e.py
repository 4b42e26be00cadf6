"""Record the end-to-end numbers of one checkout: its `src/` line count and
the wall time of tier-1, `migsets repro` and the `bounds` sweep.

    python3 scripts/bench_e2e.py --label change
    python3 scripts/bench_e2e.py --label parent --checkout ../parent

Each command runs RUNS = 3 times, one at a time, in a fresh interpreter
started in --checkout (default: .), the repository root, that imports the
package from its `src/` (as `scripts/bench_search.py --checkout` does):

- tier-1: ``python -m pytest -q --continue-on-collection-errors``;
- repro: ``migsets repro``;
- bounds: ``migsets bounds --from 5 --to 10000``.

The entry records, per command, the wall seconds of every run and their
median, the exit code, and what the output says about the result: pytest's
summary line for tier-1 and the SHA-256 of the TSV for bounds, so two
entries can be seen to have done the same work.  It also records the line
count of `src/migsets/*.py`, the commit of the checkout (with "-dirty" when
its tree has uncommitted changes), the Python version, the CPU model and the
CPU count, and replaces any entry of the same label in --out (default
BENCH_e2e.json).  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from bench_search import CLI, commit_of, cpu_model

COMMANDS = {
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
    "repro": ["-c", CLI, "repro"],
    "bounds": ["-c", CLI, "bounds", "--from", "5", "--to", "10000"],
}
RUNS = 3


def src_lines(checkout):
    pkg = os.path.join(checkout, "src", "migsets")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def run_once(checkout, name):
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, *COMMANDS[name]],
        cwd=checkout,
        env=env,
        capture_output=True,
    )
    wall = time.perf_counter() - start
    out = child.stdout.decode("utf-8", "replace")
    if name == "bounds":
        outcome = "sha256:" + hashlib.sha256(child.stdout).hexdigest()
    else:
        lines = out.strip().splitlines()
        outcome = lines[-1] if lines else ""
        if name == "tier1":  # drop the seconds from "389 passed, ... in 24.95s"
            outcome = outcome.rsplit(" in ", 1)[0]
    return wall, child.returncode, outcome


def measure(checkout, name):
    walls, codes, outcomes = [], set(), set()
    for _ in range(RUNS):
        wall, code, outcome = run_once(checkout, name)
        walls.append(round(wall, 2))
        codes.add(code)
        outcomes.add(outcome)
    if len(codes) != 1 or len(outcomes) != 1:
        raise SystemExit(f"{name}: runs disagree: exit codes {codes}, outcomes {outcomes}")
    return {
        "wall_s": walls,
        "median_s": round(statistics.median(walls), 2),
        "exit_code": codes.pop(),
        "outcome": outcomes.pop(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="name of the entry, e.g. parent or change")
    ap.add_argument("--checkout", default=".", help="root of the checkout to measure")
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if not os.path.isdir(os.path.join(checkout, "src", "migsets")):
        ap.error(f"no src/migsets package in {checkout}")
    entry = {
        "label": args.label,
        "commit": commit_of(checkout),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(checkout),
    }
    for name in COMMANDS:
        entry[name] = measure(checkout, name)
        print(name, json.dumps(entry[name]), flush=True)
    try:
        with open(args.out) as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {"command": "python3 scripts/bench_e2e.py", "entries": []}
    bench["entries"] = [e for e in bench["entries"] if e["label"] != args.label] + [entry]
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
