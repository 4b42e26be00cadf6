"""One measured process: a fresh interpreter that sets a workload up, runs
whole passes over its ops until the time is up, checks every answer, and
prints one JSON summary as its last stdout line.

Started by run.py, with -I, from the root of a checkout whose `src/` holds
the package.  It prints "ready" once the first op could run, so run.py can
time set-up from interpreter start; with --setup-only it exits there.  A
workload that runs one pass per process stops after one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _add_counts(total, counts):
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


def run_pass(wl, inputs, tracer, pass_no, seen):
    """Time one pass over inputs, then check every answer.  seen maps each
    input already checked to its verdict, counts and answer, and a repeat
    must give that answer."""
    walls, cpus, results, errors = [], [], [], []
    pass_start = time.perf_counter()
    for i, inp in enumerate(inputs):
        tracer.op = (pass_no, i)
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                res = wl.op(inp, tracer)
        except Exception:  # an op that raises is a failed op, not a crash
            res = None
            errors.append(traceback.format_exc(limit=4))
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu() - c0)
        results.append(res)
    wall = time.perf_counter() - pass_start
    # checks run outside the timed region
    failed, counts = 0, {}
    for inp, res in zip(inputs, results):
        if res is None:
            failed += 1
            continue
        key = repr(inp)
        if key in seen:
            # a repeated input must give the answer already checked
            first_ok, c, first = seen[key]
            ok = first_ok and res == first
        else:
            try:
                ok, c = wl.check(inp, res)
            except Exception:
                ok, c = False, {}
                errors.append(traceback.format_exc(limit=4))
            seen[key] = (ok, c, res)
        failed += not ok
        _add_counts(counts, c)
    entry = {"wall": wall, "failed": failed, "counts": counts}
    return entry, (walls, cpus), results, errors


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path[:0] = [HERE, src]
    import migsets

    if not os.path.abspath(migsets.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported migsets from {migsets.__file__}, not from {src}")
    import benchstats
    import workloads
    from spans import NullTracer, Tracer

    wl = workloads.WORKLOADS[args.workload]
    wl.setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    passes, errors, seen = [], [], {}
    inputs = wl.inputs(args.seed)
    started = time.perf_counter()
    while True:
        results = None  # let the previous pass's answers go before the next
        entry, times, results, errs = run_pass(wl, inputs, tracer, len(passes), seen)
        # interference from other tenants only adds time, so each op's
        # fastest repeat is the steadiest measure of its cost
        if passes:
            times = tuple(list(map(min, old, new)) for old, new in zip(fastest, times))
        fastest = times
        passes.append(entry)
        errors.extend(errs)
        if wl.process_per_pass or time.perf_counter() - started >= args.seconds:
            break
    facts = wl.facts()

    attempted = len(inputs) * len(passes)
    failed = sum(p["failed"] for p in passes) + sum(not ok for ok in facts.values())
    op_walls, op_cpus = fastest
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(inputs),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        # every pass has the same inputs, fixed by the seed
        "counts": passes[0]["counts"],
        "facts": facts,
        "errors": errors[:3],
        # each op's fastest wall and CPU time over the passes
        "op_walls": op_walls,
        "op_cpus": op_cpus,
        **benchstats.op_summary(op_walls, op_cpus),
        "pass_walls": [p["wall"] for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        import probes

        loop = tracer.summary()
        probe, group_counts, micro, wrong = probes.run_probes(
            args.workload, inputs, results, loop, args.seed
        )
        metrics, sources = probes.layer_metrics(
            args.workload, loop, passes[0]["counts"], len(passes), probe, group_counts, micro
        )
        out["layers"] = metrics
        out["layer_sources"] = sources
        out["failed"] += wrong
        out["correct"] = out["failed"] == 0
        if args.spans_out:
            tracer.dump(args.spans_out, f"{args.workload} seed {args.seed}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
