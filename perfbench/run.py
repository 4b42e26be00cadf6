"""migsets benchmark: one command that measures a workload end to end (or,
with --trace 1, layer by layer), checks every answer, and prints each
metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Everything runs in fresh interpreters, one at a time, single-threaded:

* --trace 0: fresh workers, one after another, each run whole passes over
  the workload's ops for CHUNK_SECONDS (or one pass, for a workload that
  runs one pass per process: certify) until --seconds have passed; each
  op's fastest over all passes counts;
* --trace 1: an untraced worker, then a traced one with spans and probes,
  one chunk each; the per-layer metrics come from the traced one, and
  trace.overhead.s is the difference of their wall_s;
* set-up: every worker, and SETUP_SAMPLES interpreters before the workers
  and as many after, import the package, do the workload's lazy loads and
  report ready; setup_s is the fastest time from starting the interpreter
  to ready (one discarded start first writes the bytecode cache).

Results, with the machine and the code they were measured on, also go to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 4  # set-up-only interpreters before the workers, and as many after
CHUNK_SECONDS = 5  # of passes per worker, so set-up is sampled all through a run
RUN_BUDGET = 175  # seconds for the whole run, children included

sys.path.insert(0, HERE)
import benchstats  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _remaining(deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET}s budget")
    return left


def run_worker(args, deadline, *extra):
    """Start a worker and wait for it; returns the seconds from its start to
    "ready" and its JSON summary (None with --setup-only)."""
    cmd = [
        sys.executable, "-I", WORKER,
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded its {RUN_BUDGET}s budget") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup, (json.loads(out.strip().splitlines()[-1]) if out.strip() else None)


def time_setup(args, deadline, warm_up=False):
    """Seconds from interpreter start to ready, for SETUP_SAMPLES fresh
    processes in a row; with warm_up, one start first is discarded: it
    writes the bytecode cache."""
    samples = [
        run_worker(args, deadline, "--seconds", "0", "--setup-only")[0]
        for _ in range(SETUP_SAMPLES + warm_up)
    ]
    return samples[warm_up:]


def run_timed(args, deadline):
    """The untraced measurement: fresh workers one after another, each for
    CHUNK_SECONDS of passes (or one pass, where the workload runs one pass per
    process), until --seconds have passed.  Returns each worker's set-up time
    and their merged result."""
    started = time.perf_counter()
    setups, runs = [], []
    while not runs or time.perf_counter() - started < args.seconds:
        left = args.seconds - (time.perf_counter() - started)
        chunk = f"{max(0.0, min(CHUNK_SECONDS, left)):.3f}"
        setup, res = run_worker(args, deadline, "--seconds", chunk, "--trace", "0")
        setups.append(setup)
        runs.append(res)
    return setups, benchstats.merge_runs(runs)


def source_digest(src):
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit_id():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    return {
        "commit": commit_id(),
        "src_sha256": source_digest("src"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def report_e2e(res, setup):
    frac = benchstats.fail_frac(res["failed"], res["attempted"])
    rows = [
        (
            "setup_s",
            min(setup),
            f"fastest of {len(setup)} fresh interpreters (median {benchstats.median(setup):.6f})",
        ),
        (
            "wall_s",
            res["wall_s"],
            f"sum over {res['ops_per_pass']} ops of each one's fastest of "
            f"{res['passes']} passes in {res.get('workers', 1)} workers",
        ),
        ("cpu_s", res["cpu_s"], "same with each op's least CPU, process and children"),
        ("ops_per_s", res["ops_per_s"], f"{res['ops_per_pass']} ops / wall_s"),
        ("op_p50_ms", res["op_p50_ms"], f"{res['op_samples']} ops, each its fastest of {res['passes']}"),
        (
            "op_tail_ms",
            res["op_tail_ms"],
            f"p{res['op_tail_percentile']:.2f} of {res['op_samples']} ops, "
            f"{res['op_tail_beyond']} beyond",
        ),
        ("peak_rss_mb", res["peak_rss_mb"], "largest worker process"),
    ]
    for name, value, note in rows:
        print(f"{name:<14} {value:>14.6f} {E2E_UNITS[name]:<5} {note}")
    print(f"{'fail_frac':<14} {frac:>14.6f} {'ratio':<5} {res['failed']} of {res['attempted']}")
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value, _ in rows}


def report_layers(traced, base):
    metrics = {}
    overhead = traced["wall_s"] - base["wall_s"]
    layers = dict(traced["layers"])
    layers["trace.overhead.s"] = (overhead, "s")
    for name in sorted(layers):
        value, unit = layers[name]
        src = traced["layer_sources"].get(name, "loop")
        print(f"{name:<52} {value:>16.6f} {unit:<6} {src}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="migsets benchmark")
    ap.add_argument("--workload", required=True, choices=("certify", "search", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "migsets", "__init__.py")):
        print("error: run from the root of a migsets checkout (no src/migsets)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.perf_counter() + RUN_BUDGET
    try:
        env = environment(args)
        setup = time_setup(args, deadline, warm_up=True)
        if args.trace:
            # one chunk each: the per-layer metrics are per pass
            chunk = ("--seconds", str(CHUNK_SECONDS))
            base_setup, base = run_worker(args, deadline, *chunk, "--trace", "0")
            spans_out = os.path.join(OUT_DIR, f"spans-{label}.json.gz")
            traced_setup, traced = run_worker(
                args, deadline, *chunk, "--trace", "1", "--spans-out", spans_out
            )
            setup += [base_setup, traced_setup]
            runs = [base, traced]
        else:
            worker_setups, merged = run_timed(args, deadline)
            setup += worker_setups
            runs = [merged]
        # set-up samples before, during and after the timed passes see more
        # of the host's fast and slow periods than samples taken in a row
        setup += time_setup(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for key in ("commit", "src_sha256", "nproc", "cpu_model", "python", "seed"):
        print(f"# {key}: {env[key]}")
    print(f"# counts: {json.dumps(runs[-1]['counts'], sort_keys=True)}")
    for res in runs:
        for err in res["errors"]:
            print("# op error: " + err.replace("\n", "\n#   "))
        for fact, ok in res["facts"].items():
            print(f"# fact: {fact}: {'ok' if ok else 'FAILED'}")
    e2e = report_e2e(runs[0], setup)
    metrics = report_layers(runs[1], runs[0]) if args.trace else e2e
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{label}.json"), "w") as fh:
        json.dump({"environment": env, "setup_samples": setup, "runs": runs, "result": result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
