"""Record the end-to-end numbers of one checkout, or of two side by side:
its `src/` line count and the wall time and peak RSS of tier-1, `migsets
repro`, the `bounds` sweep, the wide exact searches and the oracle's
maximal-subgroup load.

    python3 scripts/bench_e2e.py --label change
    python3 scripts/bench_e2e.py --label parent --checkout ../parent \
        --label change --checkout .

Each command runs RUNS = 3 times per checkout, one run at a time, in a
fresh interpreter started in --checkout (default: .), the repository root,
that imports the package from its `src/`.  With two checkouts, each command
alternates between them run by run, and the one that goes first swaps on
every run, so host drift falls on both entries alike.  The commands:

- tier1: ``python -m pytest -q --continue-on-collection-errors``;
- repro: ``migsets repro``;
- bounds: ``migsets bounds --from 5 --to 10000``;
- search60, search70, search80: ``migsets search --n N --json``;
- search_desc40: ``migsets search --descriptors --n 40 --json``, the
  descriptor search at its degree cap;
- search_desc_sweep: the descriptor search for n=5..40 in one interpreter,
  whose peak RSS shows what the process keeps per degree searched;
- oracle_load: ``maximal_subgroups(n)`` for n=5..12, the set-up every exact
  oracle answer pays once per degree;
- oracle_masks: ``incidence_mask(p)`` for every class p of n=5..12 in one
  interpreter, from cold: the load and every class's mask;
- certify10000: ``build_x_family(10000)``, the ``construct --json`` payload
  through a JSON round trip, ``family_from_members`` on the parsed members
  and witnesses, then ``verify_x_family`` and ``verify_mig_lower_bound``.

The entry records, per command, the wall seconds of every run (to the
millisecond), their median and their spread, (max - min) / median, so that
a gap between two entries narrower than the spread reads as unresolved;
the largest peak RSS of a run (from `os.wait4`, so of that child alone),
the exit code, and what the output says about the result: pytest's summary
line for tier-1, the SHA-256 of the TSV for bounds and of the two
certificates for certify10000, ``t_max=T nodes=N`` for a search,
``t_desc=[T5, ..., T40] nodes=N`` (N summed) for the sweep,
``records=55`` for the load and ``masks=260 sha256=H`` (H the first 16 hex
digits of the SHA-256 of the list of masks) for the masks.  Node counts and
the rest do not depend on the machine, so two entries can be seen to have
done the same work.  It also records the line count of `src/migsets/*.py`,
the commit of the checkout (with "-dirty" when its tree has uncommitted
changes), the Python version, the CPU model and the CPU count, and replaces
any entry of the same label in --out (default BENCH_e2e.json), one entry
per label.  Standard library only.
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

CLI = "import sys; from migsets.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = {
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
    "repro": ["-c", CLI, "repro"],
    "bounds": ["-c", CLI, "bounds", "--from", "5", "--to", "10000"],
    **{f"search{n}": ["-c", CLI, "search", "--n", str(n), "--json"] for n in (60, 70, 80)},
    "search_desc40": ["-c", CLI, "search", "--descriptors", "--n", "40", "--json"],
    "search_desc_sweep": [
        "-c",
        "from migsets.subgroup_oracle import max_family_intransitive_imprimitive as search\n"
        "rs = [search(n) for n in range(5, 41)]\n"
        "print(f't_desc={[r.t_max for r in rs]} nodes={sum(r.nodes_explored for r in rs)}')",
    ],
    "oracle_load": [
        "-c",
        "from migsets.subgroup_oracle import maximal_subgroups; "
        "print(f'records={sum(len(maximal_subgroups(n)) for n in range(5, 13))}')",
    ],
    "oracle_masks": [
        "-c",
        "import hashlib\n"
        "from migsets.partitions import enumerate_partitions\n"
        "from migsets.subgroup_oracle import incidence_mask\n"
        "masks = [incidence_mask(p) for n in range(5, 13) for p in enumerate_partitions(n)]\n"
        "print(f'masks={len(masks)} sha256={hashlib.sha256(repr(masks).encode()).hexdigest()[:16]}')",
    ],
    "certify10000": [
        "-c",
        "import json\n"
        "from migsets import Partition, build_x_family, family_from_members\n"
        "from migsets import verify_mig_lower_bound, verify_x_family\n"
        "from migsets.cli import _family_payload\n"
        "data = json.loads(json.dumps(_family_payload(build_x_family(10000))))\n"
        "members = [Partition.from_text(t) for t in data['members']]\n"
        "witnesses = {Partition.from_text(t): w for t, w in data['witnesses'].items()}\n"
        "xf = family_from_members(members, witnesses)\n"
        "print(json.dumps([verify_x_family(xf), verify_mig_lower_bound(xf)]))",
    ],
}
RUNS = 3


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


def src_lines(checkout):
    pkg = os.path.join(checkout, "src", "migsets")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def outcome_of(name, out):
    """What a command's stdout says about the work it did."""
    if name in ("bounds", "certify10000"):
        return "sha256:" + hashlib.sha256(out).hexdigest()
    if name.startswith("search") and name != "search_desc_sweep":
        data = json.loads(out or "{}")
        return f"t_max={data.get('t_max')} nodes={data.get('nodes_explored')}"
    lines = out.decode("utf-8", "replace").strip().splitlines()
    last = lines[-1] if lines else ""
    if name == "tier1":  # drop the seconds from "389 passed, ... in 24.95s"
        last = last.rsplit(" in ", 1)[0]
    return last


def run_once(checkout, name):
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, *COMMANDS[name]],
        cwd=checkout,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reports this child's own peak RSS (KiB on Linux)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, child.returncode, outcome_of(name, out)


def measure(checkouts, name):
    """One row per checkout for command ``name``: RUNS runs in each, the
    checkouts alternating run by run, the first of them swapped on every
    run."""
    runs = [[] for _ in checkouts]
    for r in range(RUNS):
        order = list(enumerate(checkouts))
        for k, checkout in order[::-1] if r % 2 else order:
            runs[k].append(run_once(checkout, name))
    return [summarize(name, rs) for rs in runs]


def summarize(name, runs):
    walls, rss, codes, outcomes = [], [], set(), set()
    for wall, peak, code, outcome in runs:
        walls.append(round(wall, 3))
        rss.append(peak)
        codes.add(code)
        outcomes.add(outcome)
    if len(codes) != 1 or len(outcomes) != 1:
        raise SystemExit(f"{name}: runs disagree: exit codes {codes}, outcomes {outcomes}")
    median = statistics.median(walls)
    return {
        "wall_s": walls,
        "median_s": round(median, 3),
        "spread": round((max(walls) - min(walls)) / median, 3),
        "peak_rss_mb": round(max(rss), 1),
        "exit_code": codes.pop(),
        "outcome": outcomes.pop(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--label",
        action="append",
        required=True,
        help="name of the entry, e.g. parent or change; once per checkout, at most twice",
    )
    ap.add_argument(
        "--checkout",
        action="append",
        help="root of the checkout to measure (default: .); once per label",
    )
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args(argv)
    labels, checkouts = args.label, args.checkout or ["."]
    if len(labels) > 2 or len(labels) != len(checkouts) or len(set(labels)) != len(labels):
        ap.error("give one or two distinct --label values, each with its own --checkout")
    checkouts = [os.path.abspath(c) for c in checkouts]
    for checkout in checkouts:
        if not os.path.isdir(os.path.join(checkout, "src", "migsets")):
            ap.error(f"no src/migsets package in {checkout}")
    entries = [
        {
            "label": label,
            "commit": commit_of(checkout),
            "python": platform.python_version(),
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines(checkout),
        }
        for label, checkout in zip(labels, checkouts)
    ]
    for name in COMMANDS:
        for entry, row in zip(entries, measure(checkouts, name)):
            entry[name] = row
            print(entry["label"], name, json.dumps(row), flush=True)
    try:
        with open(args.out) as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {"command": "python3 scripts/bench_e2e.py", "entries": []}
    bench["entries"] = [e for e in bench["entries"] if e["label"] not in labels] + entries
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
