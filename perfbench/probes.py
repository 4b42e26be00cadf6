"""Per-layer metrics of a traced run.

Spans around the workload's own calls give the per-layer numbers of the
layers its ops use.  After the timed passes, a probe phase replays inputs
through each module's public functions, on fresh `Partition` objects so the
mask cache is cold:

* micro-probes, run on every workload: `partial_sums`, `bitstring` and
  `is_symmetric` on partitions the workload's ops touched; `lemma_partition`
  on its degrees; `enumerate_masks`; and, on the degrees 5..12 that the
  oracle covers, uncached maximal-subgroup loading, Schreier-Sims,
  element enumeration, `class_meets_subgroup` and `wreath_realizable`;
* group probes, run only when the workload's ops never call that group:
  the certify, search and oracle ops on small stand-in inputs, so that every
  per-layer metric is measured on every workload;
* the acceptance criteria, once each as `migsets repro` runs them, timed
  from outside and checked for their documented verdicts.

`sources` in the result says, per metric, whether it came from the timed
passes ("loop", per pass) or from the probe phase ("probe", in total).
"""

from __future__ import annotations

import random
import statistics

from migsets import PermGroup, Partition, lemma_partition, maximal_subgroups
from migsets.family_search import enumerate_masks
from migsets.partitions import partial_sums, wreath_realizable
from migsets.subgroup_oracle import class_meets_subgroup

from spans import Tracer
import workloads as W

PARTITION_SAMPLE = 400


def workload_degrees(name, inputs):
    if name == "certify":
        return list(inputs)
    if name == "search":
        return sorted({n for _kind, n in W.SEARCH_INPUTS})
    return list(W.ORACLE_DEGREES)


def touched_partitions(group, inp, res):
    if group == "certify":
        return res["members"]
    if group == "search":
        return [p.parts for p in res.optimal_family]
    if group == "oracle":
        return list(inp[1])
    return []


# span whose presence in the timed passes shows the workload ran that group
GROUP_KEY = {
    "certify": "constructions.build_x_family",
    "search": "family_search.max_family",
    "oracle": "subgroup_oracle.invariably_generates",
}


def group_probe_inputs(group, degrees):
    if group == "certify":
        return [d for d in degrees if d >= 13] or list(range(13, 21))
    if group == "search":
        small = [d for d in degrees if 14 <= d <= 16] or [14, 15, 16]
        return [("max_family", n) for n in small] + [("descriptor", n) for n in small]
    return [(n, W.ORACLE_FAMILIES[n], "constructed") for n in W.ORACLE_DEGREES]


def run_group(group, inputs, tr):
    """Run a group's op and check over inputs; returns summed counts, the
    partitions touched and the number of wrong answers."""
    wl = W.WORKLOADS[group]
    counts, parts, wrong = {}, [], 0
    for inp in inputs:
        res = wl.op(inp, tr)
        ok, c = wl.check(inp, res)
        wrong += not ok
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
        parts.extend(touched_partitions(group, inp, res))
    return counts, parts, wrong


def micro_probes(tr, parts, degrees, rng):
    counts = {}
    distinct = sorted(set(parts))
    counts["partitions"] = len(distinct)
    for p in rng.sample(distinct, min(PARTITION_SAMPLE, len(distinct))):
        fresh = Partition(p)
        with tr.span("partitions.partial_sums"):
            mask = partial_sums(fresh)
        with tr.span("partitions.bitstring"):
            mask.bitstring()
        with tr.span("partitions.is_symmetric"):
            mask.is_symmetric()
    for n in degrees:
        choices = range(1, (n + 2) // 3)
        for i in rng.sample(choices, min(3, len(choices))):
            with tr.span("constructions.lemma_partition"):
                lemma_partition(i, n)
    groups = 0
    for n in [d for d in degrees if 5 <= d <= 20] or [14, 15, 16]:
        with tr.span("family_search.enumerate_masks"):
            groups += len(enumerate_masks(n))
    counts["mask_groups"] = groups
    records = wreath_true = 0
    for n in W.ORACLE_DEGREES:
        with tr.span("subgroup_oracle.maximal_subgroups"):
            # bypass the lru_cache: this is the load every oracle call pays once
            records += len(maximal_subgroups.__wrapped__(n))
        for rec in maximal_subgroups(n):
            with tr.span("perms.schreier_sims"):
                PermGroup(rec.degree, rec.generators).order()
            if rec.kind in W.PRIMITIVE_KINDS:
                group = rec.group()
                with tr.span("perms.elements"):
                    group.elements()
            for p in W.nontrivial_classes(n):
                fresh = Partition(p)
                with tr.span("subgroup_oracle.class_meets_subgroup"):
                    class_meets_subgroup(rec, fresh)
        shapes = [(a, n // a) for a in range(2, n // 2 + 1) if n % a == 0]
        for p in W.partitions_of(n):
            for a, b in shapes:
                fresh = Partition(p)
                with tr.span("partitions.wreath_realizable"):
                    wreath_true += wreath_realizable(fresh, a, b)
    counts["records"] = records
    counts["wreath_true"] = wreath_true
    return counts


def run_probes(name, inputs, last_results, loop_summary, seed):
    """The probe phase; returns (probe span summary, group counts, micro
    counts, wrong answers among group probes)."""
    rng = random.Random(seed)
    degrees = workload_degrees(name, inputs)
    W.oracle_setup()  # loaded already on the oracle workload; not a probe
    tr = Tracer()
    parts = []
    for inp, res in zip(inputs, last_results):
        if res is not None:
            parts.extend(touched_partitions(name, inp, res))
    group_counts, wrong = {}, 0
    for group, key in GROUP_KEY.items():
        if key in loop_summary:
            continue
        counts, touched, bad = run_group(group, group_probe_inputs(group, degrees), tr)
        group_counts[group] = counts
        parts.extend(touched)
        wrong += bad
    micro = micro_probes(tr, parts, degrees, rng)
    micro["acceptable"] = W.repro(tr)
    wrong += micro["acceptable"] != len(W.acceptance.ALL_CRITERIA)
    return tr.summary(), group_counts, micro, wrong


def layer_metrics(name, loop, loop_counts, passes, probe, group_counts, micro):
    """Every per-layer metric, with where each came from."""
    sources = {}
    out = {}

    def agg(span):
        if span in loop:
            return loop[span], passes, "loop"
        return probe[span], 1, "probe"

    def seconds(metric, span):
        a, div, src = agg(span)
        out[metric] = (a["total"] / div, "s")
        sources[metric] = src

    def micros(metric, span):
        a, _div, src = agg(span)
        out[metric] = (statistics.median(a["durations"]) * 1e6, "us")
        sources[metric] = src

    def counts(group):
        if group == name:
            return loop_counts, "loop"
        return group_counts[group], "probe"

    def count(metric, group, key, unit="count"):
        c, src = counts(group)
        out[metric] = (c.get(key, 0), unit)
        sources[metric] = src

    micros("partitions.partial_sums.us", "partitions.partial_sums")
    out["partitions.partial_sums.calls"] = (micro["partitions"], "count")
    micros("partitions.bitstring.us", "partitions.bitstring")
    micros("partitions.is_symmetric.us", "partitions.is_symmetric")
    micros("partitions.wreath_realizable.us", "partitions.wreath_realizable")
    wr_calls = probe["partitions.wreath_realizable"]["count"]
    out["partitions.wreath_realizable.calls"] = (wr_calls, "count")
    out["partitions.wreath_realizable.true_frac"] = (micro["wreath_true"] / wr_calls, "ratio")

    seconds("constructions.build_x_family.s", "constructions.build_x_family")
    count("constructions.build_x_family.members", "certify", "members")
    micros("constructions.lemma_partition.us", "constructions.lemma_partition")
    seconds("constructions.verify_x_family.s", "constructions.verify_x_family")
    seconds("constructions.family_from_members.s", "constructions.family_from_members")
    seconds("constructions.verify_mig_lower_bound.s", "constructions.verify_mig_lower_bound")
    count("constructions.verify_mig_lower_bound.replay_count", "certify", "replay")
    count("constructions.verify_mig_lower_bound.oracle_count", "certify", "oracle")
    seconds("serialize.s", "serialize")
    seconds("bounds.bound_report.s", "bounds.bound_report")
    seconds("bounds.corollary_inequality.s", "bounds.corollary_inequality")

    for kind in ("max_family", "descriptor"):
        prefix = f"family_search.{kind}"
        seconds(prefix + ".s", prefix)
        count(prefix + ".nodes", "search", kind + ".nodes")
        out[prefix + ".nodes_per_s"] = (out[prefix + ".nodes"][0] / out[prefix + ".s"][0], "1/s")
        sources[prefix + ".nodes_per_s"] = sources[prefix + ".s"]
    seconds("family_search.enumerate_masks.s", "family_search.enumerate_masks")
    out["family_search.enumerate_masks.groups"] = (micro["mask_groups"], "count")

    c, src = counts("oracle")
    for fn, key in (("invariably_generates", "generates"), ("is_mig_set", "minimal")):
        prefix = f"subgroup_oracle.{fn}"
        micros(prefix + ".us", prefix)
        out[prefix + ".calls"] = (c["queries"], "count")
        out[prefix + ".true_frac"] = (c[key] / c["queries"], "ratio")
        sources[prefix + ".calls"] = sources[prefix + ".true_frac"] = src
    micros("subgroup_oracle.class_meets_subgroup.us", "subgroup_oracle.class_meets_subgroup")
    seconds("subgroup_oracle.maximal_subgroups.s", "subgroup_oracle.maximal_subgroups")
    out["subgroup_oracle.maximal_subgroups.records"] = (micro["records"], "count")
    seconds("perms.schreier_sims.s", "perms.schreier_sims")
    seconds("perms.elements.s", "perms.elements")

    for slug in W.CRITERION_SLUGS.values():
        seconds(f"acceptance.{slug}.s", "acceptance." + slug)
    out["acceptance.acceptable"] = (micro["acceptable"], "count")

    # time inside ops that no module span covers: the benchmark's own glue
    out["bench.unspanned.s"] = (loop["op"]["self"] / passes, "s")
    for metric in out:
        sources.setdefault(metric, "probe")
    sources["bench.unspanned.s"] = "loop"
    return out, sources
