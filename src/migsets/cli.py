"""Command line front end.

Exit codes: 0 success, 1 verification or oracle failure, 2 usage error.

The family interchange format is JSON with the shape

    {"n": 13, "members": ["3,2^5", ...], "witnesses": {"3,2^5": 1, ...}}

as emitted by `construct --json` and consumed by `verify`.  Class list
files (for `oracle --classes-file`) hold one partition per line in the
compact text form, e.g. `3,2^2`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict

from .acceptance import ALL_CRITERIA
from .acceptance import run as run_acceptance
from .bounds import MAX_BOUNDS_DEGREE, bound_report, table1_lookup
from .constructions import (
    ConstructionError,
    _lower_bound_checks,
    build_x_family,
    family_from_members,
    lemma_partition,
    verify_lemma,
    verify_x_family,
)
from .family_search import MAX_FAMILY_DEGREE, SearchError, _min_bit, max_family
from .partitions import DEFAULT_ENUMERATION_CAP, Partition, PartitionError
from .subgroup_oracle import (
    MAX_DEGREE,
    MIN_DEGREE,
    OracleError,
    incidence,
    max_family_intransitive_imprimitive,
    maximal_subgroups,
)

USAGE_ERROR = 2


class UsageError(ValueError):
    """A command line the CLI refuses: `main` prints it and exits 2."""


# the most degrees one `bounds` sweep computes, checked before the first row
MAX_SWEEP_DEGREES = 10_000
# a report trial-divides up to isqrt(n): cap degrees x isqrt(TO), checked first
MAX_SWEEP_WORK = 10**7


def _family_payload(xf):
    return {
        "n": xf.n,
        "members": [p.text() for p in xf.members],
        "witnesses": {p.text(): xf.witnesses[p] for p in xf.members},
        "repair_case": xf.repair_case,
    }


def _print_checks(cert):
    for name, check in cert["checks"].items():
        mark = "ok" if check["pass"] else "FAIL"
        print(f"  {name}: {mark} ({check['detail']})")


def _open_output(path):
    """The ``--output`` file opened for writing, or a null context when no
    path is given."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc


def _cmd_lemma(args):
    info = verify_lemma(lemma_partition(args.i, args.n))
    if args.json:
        print(json.dumps(info))
    else:
        print(f"partition {info['partition']} of {info['n']}")
        print(f"  case: {info['case']}")
        print(f"  missing partial sums: {info['missing']}")
    return 0


def _cmd_construct(args):
    xf = build_x_family(args.n)
    payload = _family_payload(xf)
    with _open_output(args.output) as fh:
        if fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"family of {len(xf.members)} cycle types of S_{xf.n} ({xf.repair_case})")
        for p in xf.members:
            print(f"  {p.text()}  (witness {xf.witnesses[p]})")
        if args.output is not None:
            print(f"written to {args.output}")
    return 0


def _load_family(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not (
        isinstance(data, dict)
        and isinstance(data.get("members"), list)
        and isinstance(data.get("witnesses", {}), dict)
    ):
        raise TypeError("expected an object with a member list and a witness map")
    if "n" in data and type(data["n"]) is not int:
        raise ConstructionError(f"n must be an integer, got {data['n']!r}")
    texts = data["members"]
    members = [Partition.from_text(t) for t in texts]
    witnesses = None
    if "witnesses" in data:
        # a key spelled like its member is not parsed again; others, such as
        # "7, 5", are
        parsed = dict(zip(texts, members))
        witnesses = {
            parsed[t] if t in parsed else Partition.from_text(t): w
            for t, w in data["witnesses"].items()
        }
        if set(witnesses) != set(members):
            raise ConstructionError("witness keys do not match the member list")
    xf = family_from_members(members, witnesses)
    if data.get("n", xf.n) != xf.n:
        raise ConstructionError(f"n is {data['n']!r} but the members partition {xf.n}")
    return xf


def _cmd_verify(args):
    try:
        xf = _load_family(args.family)
    except (PartitionError, ConstructionError) as exc:
        raise UsageError(f"malformed family: {exc}") from exc
    except (OSError, ValueError, RecursionError, TypeError) as exc:
        # ValueError: not UTF-8, not JSON, or a number of over 4300 digits;
        # RecursionError: nesting too deep for the JSON decoder
        raise UsageError(f"cannot read family: {exc}") from exc
    cert = verify_x_family(xf, raise_on_failure=False)
    if xf.n >= MIN_DEGREE and args.lower_bound:
        cert["checks"].update(_lower_bound_checks(xf))
    ok = all(c["pass"] for c in cert["checks"].values())
    if args.json:
        print(json.dumps({**cert, "pass": ok}))
    else:
        print(f"family of {len(xf.members)} members at n={xf.n}:")
        _print_checks(cert)
        print("verdict:", "valid" if ok else "INVALID")
    return 0 if ok else 1


def _cmd_search(args):
    if args.descriptors:
        r = max_family_intransitive_imprimitive(args.n)
    else:
        r = max_family(args.n)
    payload = {
        "n": r.n,
        "t_max": r.t_max,
        "family": [p.text() for p in r.optimal_family],
        "witnesses": {p.text(): w for p, w in r.witness_assignment.items()},
        "nodes_explored": r.nodes_explored,
        "exhaustive": r.exhaustive,
        "prunes": r.prunes,
    }
    if r.descriptors:
        payload["descriptors"] = [list(d) for d in r.descriptors]
    if args.json:
        print(json.dumps(payload))
        return 0
    kind = "subgroup descriptors" if args.descriptors else "missing partial sums"
    print(f"n={r.n}: largest family size {r.t_max} (witnesses by {kind})")
    for p in r.optimal_family:
        w = r.witness_assignment[p]
        label = " ".join(str(x) for x in r.descriptors[w]) if r.descriptors else w
        print(f"  {p.text()}  (witness {label})")
    print(f"nodes explored: {r.nodes_explored}")
    return 0


def _cmd_bounds(args):
    lo = args.lo
    hi = args.hi if args.hi is not None else lo
    if not 5 <= lo <= hi <= MAX_BOUNDS_DEGREE:
        raise UsageError(f"need 5 <= FROM <= TO <= {MAX_BOUNDS_DEGREE}")
    if hi - lo + 1 > MAX_SWEEP_DEGREES:
        raise UsageError(f"a sweep covers at most {MAX_SWEEP_DEGREES} degrees")
    if (hi - lo + 1) * math.isqrt(hi) > MAX_SWEEP_WORK:
        most = MAX_SWEEP_WORK // math.isqrt(hi)
        raise UsageError(f"a sweep up to {hi} covers at most {most} degrees")
    rows = [bound_report(n) for n in range(lo, hi + 1)]
    if args.json:
        print(json.dumps([r.as_dict() for r in rows]))
        return 0
    print("n\tdelta\ta\tb\tc\tlower\tupper\ttable1")
    for r in rows:
        hits = ",".join(f"{label}:{k}" for label, k in table1_lookup(r.n)) or "-"
        b = r.b_with_k1 if args.k1 else r.b
        print(f"{r.n}\t{r.delta}\t{r.a}\t{b}\t{r.c}\t{r.lower:.3f}\t{r.upper}\t{hits}")
    return 0


def _parse_classes(text, n):
    classes = []
    for token in text.replace("\n", ";").split(";"):
        token = token.strip().strip("()").strip()
        if not token:
            continue
        p = Partition.from_text(token)
        if p.n > n:
            raise PartitionError(f"class {p.text()} exceeds degree {n}")
        classes.append(Partition(p.parts + (1,) * (n - p.n)))
    if not classes:
        raise PartitionError("empty class list")
    return classes


def _cmd_oracle(args):
    try:
        records = maximal_subgroups(args.n)  # refuse the degree before padding
        if args.classes_file:
            with open(args.classes_file, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = args.classes
        classes = _parse_classes(text, args.n)
        common, wsets = incidence(classes, args.n)
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read class list: {exc}") from exc
    # lowest bit = first record in maximal_subgroups order
    generates = common == 0
    minimal = generates and all(wsets)
    blocker = None if generates else records[_min_bit(common)].label
    removal = {
        p.text(): records[_min_bit(m)].label
        for p, m in zip(classes, wsets)
        if generates and m
    }
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "classes": [p.text() for p in classes],
                    "invariably_generates": generates,
                    "minimal": minimal,
                    "blocked_by": blocker,
                    "removal_witnesses": removal,
                }
            )
        )
    else:
        print(f"classes of S_{args.n}: " + "; ".join(p.text() for p in classes))
        if generates:
            print("  invariably generates: yes")
        else:
            print(f"  invariably generates: no (every class meets {blocker})")
        print(f"  minimal invariable generating set: {'yes' if minimal else 'no'}")
        for text_, label in removal.items():
            print(f"    dropping {text_} leaves a set met by {label}")
        if generates and not minimal:
            redundant = [p.text() for p in classes if p.text() not in removal]
            print(f"    redundant classes: {', '.join(redundant)}")
    return 0 if minimal else 1


def _cmd_repro(args):
    numbers = None
    if args.only is not None:
        try:
            numbers = {int(tok) for tok in args.only.split(",")}
        except ValueError as exc:
            raise UsageError(f"bad criterion list {args.only!r}") from exc
        unknown = sorted(numbers - {number for number, _ in ALL_CRITERIA})
        if unknown:
            raise UsageError(f"no criteria match {','.join(map(str, unknown))!r}")
    with _open_output(args.output) as fh:  # refuse a bad path before the run
        results = run_acceptance(numbers)
        ok = all(r.acceptable for r in results)
        summary = [r.line() for r in results]
        summary.append(
            "all checks passed or failed in documented ways"
            if ok
            else "UNEXPECTED FAILURES"
        )
        if fh:
            fh.write("\n".join(summary) + "\n")
    if args.json:
        print(json.dumps([{**asdict(r), "runtime": round(r.runtime, 2)} for r in results]))
    else:
        print("\n".join(summary))
    return 0 if ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="migsets",
        description="Minimal invariable generating sets of symmetric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lemma", help="build and verify one gap partition")
    p.add_argument("--i", type=int, required=True, help="forced gap (1 <= i < n/3)")
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("construct", help="build the family of cycle types at degree n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", metavar="FILE", help="also write the family as JSON")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-verify a family from a JSON file")
    p.add_argument("family", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--no-lower-bound",
        dest="lower_bound",
        action="store_false",
        help="skip the subgroup checks, test only the partial-sum properties",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive search for the largest family")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"5..{MAX_FAMILY_DEGREE}, or 5..{DEFAULT_ENUMERATION_CAP} with --descriptors",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--descriptors",
        action="store_true",
        help="witness by the maximal intransitive/imprimitive subgroups instead",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bounds", help="upper-bound component table (TSV)")
    p.add_argument("--from", dest="lo", type=int, required=True, metavar="N")
    p.add_argument("--to", dest="hi", type=int, metavar="N")
    p.add_argument("--json", action="store_true")
    p.add_argument("--k1", action="store_true", help="count k=1 binomial solutions")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "oracle",
        help=f"exact subgroup oracle ({MIN_DEGREE} <= n <= {MAX_DEGREE})",
    )
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--classes",
        help='semicolon-separated cycle types, e.g. "(4,1);(3,1^3);(3,3)"; '
        "short classes are padded with fixed points",
    )
    group.add_argument(
        "--classes-file", metavar="FILE", help="one partition per line"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("repro", help="run the acceptance checks")
    p.add_argument("--only", metavar="NUMBERS", help="comma-separated criteria, e.g. 1,5")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", metavar="FILE", help="also write the summary to a file")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, PartitionError, SearchError, OracleError, UsageError) as exc:
        # input the CLI or the library refuses, such as a degree outside a
        # command's range
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
