"""The workloads: inputs from a seed, one op, and the check of its answer.

Every op calls the package only through the public functions that the
`migsets` CLI commands call, and builds fresh `Partition` objects, because
each partition caches its partial-sum mask.  A check runs outside the timed
op and returns (ok, counts): counts are exact work counts that must repeat
whenever an input repeats, in a run and from run to run of the same code.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from migsets import (
    Partition,
    bound_report,
    build_x_family,
    class_meets_subgroup,
    corollary_inequality,
    family_from_members,
    invariably_generates,
    is_mig_set,
    max_family,
    max_family_intransitive_imprimitive,
    maximal_subgroups,
    partial_sums,
    verify_mig_lower_bound,
    verify_x_family,
)
from migsets import acceptance

ORACLE_DEGREES = range(5, 13)
PRIMITIVE_KINDS = ("affine", "almost_simple", "primitive")


def partitions_of(n, largest=None):
    """All partitions of n as descending tuples (input generation only)."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for a in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - a, a):
            yield (a,) + rest


def nontrivial_classes(n):
    return [p for p in partitions_of(n) if p != (1,) * n]


# --- certify: construct --json -> verify -> bounds for one degree ---------

CERTIFY_LO, CERTIFY_HI, CERTIFY_WINDOW = 13, 300, 8


def certify_inputs(seed):
    """One degree per window of eight in 13..300, drawn by the seed: a
    stratified sample, so per-op cost spans 1 ms to ~90 ms and the tail
    means something.  run.py runs each pass in a fresh process, so no degree
    is built twice in one process and a cross-call build cache stays
    bypassed."""
    out = []
    for lo in range(CERTIFY_LO, CERTIFY_HI + 1, CERTIFY_WINDOW):
        hi = min(lo + CERTIFY_WINDOW - 1, CERTIFY_HI)
        out.append(random.Random(f"{seed}:{lo}").randint(lo, hi))
    return out


def _family_json(xf):
    # the payload `migsets construct --json` prints
    return json.dumps(
        {
            "n": xf.n,
            "members": [p.text() for p in xf.members],
            "witnesses": {p.text(): xf.witnesses[p] for p in xf.members},
            "repair_case": xf.repair_case,
        }
    )


def certify_op(n, tr):
    with tr.span("constructions.build_x_family"):
        xf = build_x_family(n)
    with tr.span("constructions.verify_x_family"):
        built = verify_x_family(xf, raise_on_failure=False)
    with tr.span("serialize"):
        data = json.loads(_family_json(xf))
        members = [Partition.from_text(t) for t in data["members"]]
        witnesses = {Partition.from_text(t): w for t, w in data["witnesses"].items()}
    with tr.span("constructions.family_from_members"):
        imported = family_from_members(members, witnesses)
    with tr.span("constructions.verify_x_family"):
        cert = verify_x_family(imported, raise_on_failure=False)
    with tr.span("constructions.verify_mig_lower_bound"):
        lower = verify_mig_lower_bound(imported, raise_on_failure=False)
    with tr.span("bounds.bound_report"):
        report = bound_report(n)
    with tr.span("bounds.corollary_inequality"):
        corollary = corollary_inequality(n)
    return {
        "built": [p.parts for p in xf.members],
        "members": [p.parts for p in imported.members],
        "witnesses": [imported.witnesses[p] for p in imported.members],
        "certs": (built, cert, lower),
        "upper": report.upper,
        "corollary": corollary["checks"],
    }


def certify_check(n, res):
    members = res["members"]
    k = len(members)
    certs_ok = all(
        check["pass"] for cert in res["certs"] for check in cert["checks"].values()
    )
    # properties (1)-(3) again, from fresh masks of the parsed members
    half = (1 << (n // 2 + 1)) - 2
    masks = [partial_sums(Partition(parts)).bits & half for parts in members]
    inter = half
    for m in masks:
        inter &= m
    wits = res["witnesses"]
    private = len(set(wits)) == k and all(
        1 <= w <= n // 2
        and not masks[i] >> w & 1
        and all(masks[j] >> w & 1 for j in range(k) if j != i)
        for i, w in enumerate(wits)
    )
    corollary = res["corollary"]
    ok = (
        certs_ok
        and res["members"] == res["built"]
        and all(sum(parts) == n for parts in members)
        and inter == 0
        and private
        and k > n / 2 - math.log2(n)
        and k <= res["upper"]
        and all(v for name, v in corollary.items() if name != "final")
        and corollary["final"] == (n >= 71)
    )
    method = res["certs"][2]["checks"]["method"]["detail"]
    return ok, {
        "members": k,
        "replay": int(method == "proof replay"),
        "oracle": int(method != "proof replay"),
    }


# --- search: one exact search ----------------------------------------------

MAX_FAMILY_T = {12: 4, 13: 5, 14: 5, 15: 6, 16: 6, 17: 7, 18: 7, 19: 7, 20: 8}
DESCRIPTOR_T = {14: 5, 15: 6, 16: 6, 17: 7, 18: 7}
# max_family(18..20) and the descriptor search at 18 take 0.4-6 s; a run
# holds too few repeats of them to be steady on a shared host
SEARCH_INPUTS = [("max_family", n) for n in range(14, 18)] + [
    ("descriptor", n) for n in range(14, 18)
]


def search_inputs(seed):
    # the searches are deterministic; the seed is recorded but unused
    return list(SEARCH_INPUTS)


def search_op(inp, tr):
    kind, n = inp
    with tr.span("family_search." + kind):
        if kind == "max_family":
            return max_family(n)
        return max_family_intransitive_imprimitive(n)


def search_check(inp, r):
    kind, n = inp
    table = MAX_FAMILY_T if kind == "max_family" else DESCRIPTOR_T
    witnesses = list(r.witness_assignment.values())
    ok = (
        r.n == n
        and r.t_max == table[n]
        and len(r.optimal_family) == r.t_max
        and len(set(witnesses)) == len(witnesses) == r.t_max
        and r.exhaustive
    )
    return ok, {f"{kind}.nodes": r.nodes_explored, f"{kind}.{n}.nodes": r.nodes_explored}


# --- oracle: one `migsets oracle` query -------------------------------------

# build_x_family(n) for n = 5..12 at the commit that defined this benchmark;
# frozen here as inputs, so the query mix does not follow the construction.
ORACLE_FAMILIES = {
    5: ((4, 1), (3, 2)),
    6: ((5, 1), (2, 2, 2)),
    7: ((6, 1), (5, 2)),
    8: ((6, 1, 1), (3, 3, 2), (4, 3, 1)),
    9: ((7, 1, 1), (4, 4, 1), (3, 2, 2, 2)),
    10: ((7, 1, 1, 1), (6, 3, 1), (4, 4, 1, 1), (3, 3, 2, 2)),
    11: ((4, 3, 2, 2), (4, 3, 3, 1), (9, 1, 1)),
    12: ((5, 3, 2, 2), (4, 4, 3, 1), (10, 1, 1)),
}


def oracle_inputs(seed):
    """Alternating queries: a constructed family with one class swapped for
    another (runs the full leave-one-out scan), then a uniformly random set
    of 2..5 classes (mostly rejected by the first maximal subgroup).  The
    swapped families are all of them (703), in a seeded order; the random
    sets are stratified by degree and size.  The expensive queries, which set
    the tail, are then nearly the same for every seed.  Every pass repeats
    the queries."""
    rng = random.Random(seed)
    degrees = list(ORACLE_DEGREES)
    classes = {n: nontrivial_classes(n) for n in degrees}
    swapped = [
        (n, fam[:i] + (c,) + fam[i + 1 :], "swapped")
        for n, fam in ORACLE_FAMILIES.items()
        for i in range(len(fam))
        for c in classes[n]
        if c not in fam
    ]
    rng.shuffle(swapped)
    out = []
    for q, query in enumerate(swapped):
        n = degrees[q % len(degrees)]
        size = 2 + (q // len(degrees)) % 4
        out.append(query)
        out.append((n, tuple(rng.sample(classes[n], size)), "random"))
    return out


def oracle_setup():
    """What an oracle call loads lazily: the maximal subgroups of each degree
    and the cycle-type sets of the primitive ones."""
    for n in ORACLE_DEGREES:
        for rec in maximal_subgroups(n):
            if rec.kind in PRIMITIVE_KINDS:
                class_meets_subgroup(rec, Partition((1,) * n))


def oracle_op(q, tr):
    n, parts, _kind = q
    classes = [Partition(p) for p in parts]
    with tr.span("subgroup_oracle.invariably_generates"):
        generates = invariably_generates(classes, n)
    with tr.span("subgroup_oracle.is_mig_set"):
        minimal = is_mig_set(classes, n)
    return generates, minimal


def oracle_check(q, res):
    """is_mig_set must match the definition: the set generates invariably and
    no leave-one-out subset does."""
    n, parts, _kind = q
    generates, minimal = res
    fresh = [Partition(p) for p in parts]
    again = invariably_generates(fresh, n)
    loo = again and not any(
        invariably_generates(fresh[:i] + fresh[i + 1 :], n) for i in range(len(fresh))
    )
    ok = generates == again and minimal == loo
    return ok, {"queries": 1, "generates": int(generates), "minimal": int(minimal)}


def oracle_facts():
    """Two known facts about S_6, checked once per run."""
    known = is_mig_set([Partition(p) for p in ((4, 1, 1), (3, 1, 1, 1), (3, 3))], 6)
    nontrivial = [Partition(p) for p in nontrivial_classes(6)]
    subsets = [
        c for k in range(5, len(nontrivial) + 1) for c in itertools.combinations(nontrivial, k)
    ]
    none_big = len(subsets) == 638 and not any(is_mig_set(c, 6) for c in subsets)
    return {"S6 {4,1^2; 3,1^3; 3^2} is MIG": known, "no MIG set of size >= 5 in S6": none_big}


# --- acceptance: every criterion of `migsets repro` ------------------------

CRITERION_SLUGS = {
    "criterion_1": "criterion_1_gap_partitions",
    "criterion_2": "criterion_2_family_sweep",
    "criterion_3": "criterion_3_lower_bound_replay",
    "criterion_4": "criterion_4_oracle_cross_check",
    "criterion_5": "criterion_5_degree6_scan",
    "criterion_6_components": "criterion_6_components",
    "criterion_6_corollary": "criterion_6_corollary",
    "criterion_7": "criterion_7_search_cross_check",
    "criterion_8_wreath": "criterion_8_wreath",
    "criterion_8_sums": "criterion_8_partial_sums",
}
# the two failures README documents as faithful to the source's claims
EXPECTED_FAILURES = ("criterion_4", "criterion_6_components")


def repro(tr):
    """Run the criteria in `migsets repro` order, each timed from outside;
    returns how many gave the verdict the package documents."""
    good = 0
    for _number, fn in acceptance.ALL_CRITERIA:
        with tr.span("acceptance." + CRITERION_SLUGS.get(fn.__name__, fn.__name__)):
            r = fn()
        if fn.__name__ in EXPECTED_FAILURES:
            good += not r.passed and r.expected_failure
        else:
            good += r.passed
    return good


class Workload:
    def __init__(self, inputs, op, check, setup=None, facts=None, process_per_pass=False):
        self.inputs = inputs
        # a workload whose every pass must run in a fresh process (run.py
        # starts one worker per pass and keeps each op's fastest)
        self.process_per_pass = process_per_pass
        self.op = op
        self.check = check
        self.setup = setup or (lambda: None)
        self.facts = facts or (lambda: {})


WORKLOADS = {
    "certify": Workload(certify_inputs, certify_op, certify_check, process_per_pass=True),
    "search": Workload(search_inputs, search_op, search_check),
    "oracle": Workload(oracle_inputs, oracle_op, oracle_check, oracle_setup, oracle_facts),
}
