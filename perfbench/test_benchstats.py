"""Tests of the benchmark's own arithmetic (stdlib and pytest only; no
package code runs here)."""

import statistics

import pytest

import benchstats
from spans import NullTracer, Tracer


def test_tail_has_ten_samples_beyond():
    xs = list(range(1, 101))
    value, pct, beyond, n = benchstats.tail(xs[::-1])
    assert (value, pct, beyond, n) == (90, 90.0, 10, 100)


def test_tail_smallest_sample_count_that_uses_the_rule():
    xs = list(range(22))
    value, pct, beyond, n = benchstats.tail(xs)
    assert (value, beyond, n) == (11, 10, 22)
    assert value > statistics.median(xs)
    assert pct == pytest.approx(100 * 12 / 22)


@pytest.mark.parametrize("n", [1, 10, 12, 21])
def test_tail_falls_back_to_slowest_when_too_few_samples(n):
    xs = [float(i) for i in range(n)]
    assert benchstats.tail(xs) == (n - 1, 100.0, 0, n)


def test_tail_counts_ties_as_samples():
    xs = [5.0] * 30 + [1.0] * 10
    value, _pct, beyond, n = benchstats.tail(xs)
    assert (value, beyond, n) == (5.0, 10, 40)


def test_op_summary():
    walls = [0.001 * (i + 1) for i in range(30)]
    out = benchstats.op_summary(walls, [w / 2 for w in walls])
    assert out["wall_s"] == pytest.approx(0.465)
    assert out["cpu_s"] == pytest.approx(0.2325)
    assert out["ops_per_s"] == pytest.approx(30 / 0.465)
    assert out["op_p50_ms"] == pytest.approx(15.5)
    assert (out["op_tail_ms"], out["op_tail_beyond"], out["op_samples"]) == (
        pytest.approx(20.0), 10, 30
    )


def _worker_result(walls, counts, failed=0, facts=None):
    return {
        "op_walls": walls,
        "op_cpus": [w / 2 for w in walls],
        "passes": 2,
        "attempted": 2 * len(walls),
        "failed": failed,
        "counts": counts,
        "errors": [],
        "facts": facts or {},
        "pass_walls": [sum(walls)] * 2,
        "peak_rss_mb": 10.0 + failed,
    }


def test_merge_runs_keeps_each_ops_fastest():
    runs = [
        _worker_result([3.0, 1.0, 2.0], {"nodes": 7}, facts={"f": True}),
        _worker_result([2.0, 4.0, 2.5], {"nodes": 7}, failed=1, facts={"f": False}),
    ]
    out = benchstats.merge_runs(runs)
    assert out["op_walls"] == [2.0, 1.0, 2.0]
    assert out["op_cpus"] == [1.0, 0.5, 1.0]
    assert out["wall_s"] == 5.0
    assert (out["workers"], out["passes"], out["attempted"]) == (2, 4, 12)
    assert (out["failed"], out["correct"]) == (1, False)
    assert out["facts"] == {"f": False}
    assert out["peak_rss_mb"] == 11.0
    assert len(out["pass_walls"]) == 4


def test_merge_runs_fails_a_worker_whose_counts_differ():
    runs = [
        _worker_result([1.0, 1.0], {"nodes": 7}),
        _worker_result([1.0, 1.0], {"nodes": 8}),
    ]
    out = benchstats.merge_runs(runs)
    assert (out["failed"], out["attempted"], out["correct"]) == (4, 8, False)


def test_fail_frac():
    assert benchstats.fail_frac(0, 59) == 0.0
    assert benchstats.fail_frac(3, 12) == 0.25
    assert benchstats.fail_frac(10, 10) == 1.0


@pytest.mark.parametrize("failed, attempted", [(0, 0), (-1, 5), (6, 5)])
def test_fail_frac_rejects_impossible_counts(failed, attempted):
    with pytest.raises(ValueError):
        benchstats.fail_frac(failed, attempted)


def test_quartile_spread_matches_statistics_quantiles():
    xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 12.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert benchstats.quartile_spread(xs) == pytest.approx((q3 - q1) / statistics.median(xs))


def test_self_time_subtracts_union_of_children():
    spans = [
        (0, None, "op", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 4.0),  # overlaps a: the union 1..4 counts once
        (3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
        (4, 1, "d", 1.5, 2.5),  # a grandchild belongs to a, not to op
    ]
    selfs = benchstats.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_records_parents_and_self_time():
    tr = Tracer()
    tr.op = (0, 0)
    with tr.span("op"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    names = [s[3] for s in tr.spans]
    assert names == ["inner", "inner", "op"]
    op_id = tr.spans[-1][0]
    assert all(s[1] == op_id for s in tr.spans[:2])
    assert all(s[2] == (0, 0) for s in tr.spans)
    summary = tr.summary()
    assert summary["inner"]["count"] == 2
    op = summary["op"]
    assert op["self"] == pytest.approx(op["total"] - summary["inner"]["total"])


def test_tracer_closes_span_when_the_call_raises():
    tr = Tracer()
    with pytest.raises(KeyError):
        with tr.span("op"):
            raise KeyError("x")
    assert [s[3] for s in tr.spans] == ["op"]
    with tr.span("next"):
        pass
    assert tr.spans[-1][1] is None


def test_null_tracer_records_nothing():
    tr = NullTracer()
    with tr.span("op"):
        pass
    assert not hasattr(tr, "spans")
