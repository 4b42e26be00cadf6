"""The benchmark's own arithmetic: medians, the tail rule, the timing
summary of a pass and the merge of several workers' results, failure
fraction, quartile spread and span self time.  Pure functions, stdlib
only."""

from __future__ import annotations

import statistics

# Below this many samples the highest percentile with ten samples beyond it
# would sit at or below the median, so the tail falls back to the slowest
# sample (percentile 100, nothing beyond it).
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 2 * TAIL_BEYOND + 2


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def tail(xs):
    """Latency at the highest percentile that has at least ten samples
    beyond it.  Returns (value, percentile, samples beyond, sample count)."""
    if not xs:
        raise ValueError("tail of no samples")
    s = sorted(xs)
    n = len(s)
    if n < TAIL_MIN_SAMPLES:
        return s[-1], 100.0, 0, n
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, n - 1 - k, n


def op_summary(op_walls, op_cpus):
    """The timing metrics of a pass whose op i took op_walls[i] seconds of
    wall time and op_cpus[i] of CPU time."""
    wall = sum(op_walls)
    tail_s, pct, beyond, n = tail(op_walls)
    return {
        "wall_s": wall,
        "cpu_s": sum(op_cpus),
        "ops_per_s": len(op_walls) / wall,
        "op_p50_ms": median(op_walls) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "op_samples": n,
    }


def merge_runs(runs):
    """One result from workers that each ran passes over the same inputs:
    each op's fastest wall and CPU time over all of them.  A worker whose
    exact counts differ from the first's counts all its ops as failed."""
    first = runs[0]
    walls = [min(col) for col in zip(*(r["op_walls"] for r in runs))]
    cpus = [min(col) for col in zip(*(r["op_cpus"] for r in runs))]
    out = dict(first)
    out.update(op_summary(walls, cpus))
    out["op_walls"], out["op_cpus"] = walls, cpus
    out["workers"] = len(runs)
    out["passes"] = sum(r["passes"] for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["failed"] = sum(
        r["attempted"] if r["counts"] != first["counts"] else r["failed"] for r in runs
    )
    out["correct"] = out["failed"] == 0
    out["errors"] = [e for r in runs for e in r["errors"]][:3]
    out["facts"] = {k: all(r["facts"][k] for r in runs) for k in first["facts"]}
    out["pass_walls"] = [w for r in runs for w in r["pass_walls"]]
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    return out


def fail_frac(failed, attempted):
    """Ops that raised or returned a wrong answer, over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def quartile_spread(xs):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans.  spans: iterable of (id, parent, name,
    start, end); returns {id: seconds}."""
    spans = list(spans)
    children = {}
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out
