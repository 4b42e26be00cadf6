"""Time `migsets search --n N --json` for the wide exact searches.

    python3 scripts/bench_search.py --label change
    python3 scripts/bench_search.py --label parent --checkout ../parent

Each N in DEGREES runs once in a fresh interpreter that imports the package
from the `src/` of --checkout (default: .), the repository root, one at a
time.  The entry records, per N, the wall seconds from starting the
interpreter to its exit, the child's peak RSS, and the t_max and
nodes_explored it printed; node counts do not depend on the machine, so two
entries with equal counts searched the same tree.  The entry replaces any
entry of the same label in --out (default BENCH_search.json), next to the
commit of --checkout (with "-dirty" when its tree has uncommitted changes),
the Python version, the CPU model and the CPU count.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

DEGREES = (60, 70, 80)
CLI = "import sys; from migsets.cli import main; sys.exit(main(sys.argv[1:]))"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_of(path):
    try:
        out = subprocess.run(
            ["git", "-C", path, "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_search(src, n):
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", CLI, "search", "--n", str(n), "--json"]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reports this child's own peak RSS (KiB on Linux)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"search --n {n} exited {child.returncode}")
    data = json.loads(out)
    return {
        "n": n,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "t_max": data["t_max"],
        "nodes_explored": data["nodes_explored"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="name of the entry, e.g. parent or change")
    ap.add_argument("--checkout", default=".", help="root of the checkout to measure")
    ap.add_argument("--out", default="BENCH_search.json")
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    src = os.path.join(checkout, "src")
    if not os.path.isdir(os.path.join(src, "migsets")):
        ap.error(f"no src/migsets package in {checkout}")
    results = []
    for n in DEGREES:
        row = run_search(src, n)
        print(json.dumps(row), flush=True)
        results.append(row)
    entry = {
        "label": args.label,
        "commit": commit_of(checkout),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "search": results,
    }
    try:
        with open(args.out) as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {"command": "python3 scripts/bench_search.py", "entries": []}
    bench["entries"] = [e for e in bench["entries"] if e["label"] != args.label] + [entry]
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
