"""Checks on the package source and the README."""

import ast
import doctest
import pathlib
import re

from test_family_search import DESCRIPTOR_T, MAX_FAMILY_T

from migsets.constructions import lemma_partition
from migsets.partitions import Partition, partial_sums

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    # python -O strips asserts; every invariant must be an explicit check
    found = []
    for path in sorted((ROOT / "src" / "migsets").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


# single-valued options turned into module constants
DELETED_PARAMETERS = (
    "prune",
    "known_lower_bound",
    "cap",
    "limit",
    "include_k1",
    "time_budget",
    "samples",
    "seed",
    "require_empty",
)


def test_search_knobs_stay_deleted():
    # the witness-set search has one bound and one mode, nothing to switch
    # or seed; caps, budgets and sample counts are constants, not parameters
    found = []
    for path in sorted((ROOT / "src" / "migsets").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ClassDef) and node.name == "_Engine":
                found.append(f"{where} class _Engine")
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = args.posonlyargs + args.args + args.kwonlyargs
                found += [
                    f"{where} parameter {a.arg}"
                    for a in names
                    if a.arg in DELETED_PARAMETERS
                ]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and any(
                    isinstance(a, ast.Constant) and a.value in ("--seed", "--jobs")
                    for a in node.args
                )
            ):
                found.append(f"{where} flag {node.args[0].value}")
    assert not found, found


# helpers folded into one kernel or test, a field nothing read, the
# mask-group class that the (bits, representatives) pairs replaced, the
# seeded partial chain and its constants that Jordan's theorem replaced, and
# the per-tuple partial sums of the oracle's vectors, which read
# `class_meets_subgroup` instead
FOLDED_FUNCTIONS = (
    "leave_one_out", "minimal_block_systems", "_maximal", "descriptors", "MaskGroup",
    "order_reaches", "_kept_sums",
)
FOLDED_CONSTANTS = ("ORDER_SEED", "ORDER_PATIENCE")


def test_folded_helpers_stay_deleted():
    # `family_search.witness_sets` is the one witness-set kernel,
    # `perms.is_primitive` needs no list of block systems, and the
    # search checks columns on index bitsets, not on maximal vectors; the
    # descriptor search witnesses by the oracle's records, not its own list;
    # every mask grouping is a plain (bits, ...) pair; `PermGroup`'s chain
    # is the one chain engine; the walk is the one source of per-tuple sums
    found = []
    for path in sorted((ROOT / "src" / "migsets").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in FOLDED_FUNCTIONS
            ):
                kind = "class" if isinstance(node, ast.ClassDef) else "def"
                found.append(f"{where} {kind} {node.name}")
            if isinstance(node, ast.Name) and node.id in FOLDED_CONSTANTS:
                found.append(f"{where} name {node.id}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}:{stmt.lineno} field class_count of {node.name}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and getattr(stmt.target, "id", None) == "class_count"
                ]
    assert not found, found


def test_family_search_lists_no_subgroups():
    # which intransitive and imprimitive subgroups S_n has, and which classes
    # meet them, is decided in subgroup_oracle only
    tree = ast.parse((ROOT / "src" / "migsets" / "family_search.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not names & {"wreath_types", "_divisors"}


def test_witness_set_dfs_scans_no_vectors():
    # each DFS node works on index bitsets built once per search; naming
    # the vectors or groups inside `rec` would bring back per-node scans
    tree = ast.parse((ROOT / "src" / "migsets" / "family_search.py").read_text())
    search = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_search"
    )
    rec = next(
        n for n in ast.walk(search) if isinstance(n, ast.FunctionDef) and n.name == "rec"
    )
    found = [
        f"rec:{node.lineno} names {node.id}"
        for node in ast.walk(rec)
        if isinstance(node, ast.Name) and node.id in ("vectors", "groups")
    ]
    assert not found, found


def test_readme_examples_run():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 5
    assert result.failed == 0


def test_readme_t_max_tables_match_frozen():
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(
        r"Exact t_max for n=(\d+)\.\.(\d+) is ([\d,]+) \(mask search\) "
        r"and for n=(\d+)\.\.(\d+) ([\d,]+) \(descriptor search\)",
        text,
    )
    assert found, "README has no exact t_max sentence"

    def table(lo, hi, values):
        degrees = range(int(lo), int(hi) + 1)
        return dict(zip(degrees, map(int, values.split(",")), strict=True))

    assert table(*found.groups()[:3]) == MAX_FAMILY_T
    assert table(*found.groups()[3:]) == DESCRIPTOR_T


def test_perms_draws_nothing():
    # the chain is deterministic: no module of random numbers at all
    tree = ast.parse((ROOT / "src" / "migsets" / "perms.py").read_text())
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None), *(alias.name for alias in node.names))
    }
    assert "random" not in imported, imported


def test_stabilizer_chain_hot_loop_stays_c_level():
    # the chain multiplies byte tables with bytes.translate and sifts with
    # cached inverses: no per-element Python loop in multiply, and no tuple
    # product or inversion inside its loops
    tree = ast.parse((ROOT / "src" / "migsets" / "perms.py").read_text())
    funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    loops = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp, ast.For, ast.While)
    found = [
        f"multiply:{node.lineno} per-element loop"
        for node in ast.walk(funcs["multiply"])
        if isinstance(node, loops)
    ]
    for name in ("_strip", "_verify_level", "_rebuild_orbit"):
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Call):
                callee = node.func
                called = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if called in ("inverse", "multiply"):
                    found.append(f"{name}:{node.lineno} calls {called}()")
    assert not found, found


def test_parsed_and_lemma_partitions_are_built_from_runs(monkeypatch):
    # parsing and the lemma build per run: neither may fall back to the
    # per-part constructor, and both partitions keep their runs, so the
    # partial-sum DP splits runs instead of shifting once per part
    def refuse(self, parts):
        raise AssertionError("built through Partition.__init__")

    monkeypatch.setattr(Partition, "__init__", refuse)
    parsed = Partition.from_text("7,4,3^2,2^140")
    lemma = lemma_partition(5, 297).p
    assert parsed._runs == ((7, 1), (4, 1), (3, 2), (2, 140))
    assert lemma._runs == ((10, 1), (7, 1), (6, 46), (1, 4))
    for p in (parsed, lemma):
        assert p.multiplicities() is p._runs
        assert partial_sums(p).bits >> p.n == 1
    # nor do they make a parts tuple until it is read: the base slot, not
    # the property that fills it, stays empty through hashing, comparing,
    # counting and printing
    stored = Partition.parts.__get__
    for p in (parsed, lemma):
        assert hash(p) == hash(p._runs) and p == p and len(p) == sum(c for _, c in p._runs)
        assert str(p) == p.text() and stored(p) is None
        assert p.parts == tuple(v for v, c in p._runs for _ in range(c))
        assert stored(p) is p.parts


def test_one_partial_sum_dp():
    # every partition goes through its runs, and one function holds the
    # DP's size cap (partition text has its own cap on the parsed total)
    fn = next(f for f in _top_level_functions("partitions.py") if f.name == "partial_sums")
    found = [
        f"partial_sums:{node.lineno} reads .parts"
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "parts"
    ]
    for path in sorted((ROOT / "src" / "migsets").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [
                f"{path.name}:{getattr(top, 'name', top.lineno)} cap message"
                for node in ast.walk(top)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "partial-sum DP capped" in node.value
            ]
    assert found == ["partitions.py:_check_sum_cap cap message"], found


def _top_level_functions(module):
    tree = ast.parse((ROOT / "src" / "migsets" / module).read_text())
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def test_primitive_tables_stay_deleted():
    # a primitive record's kind comes from its label and its cycle types
    # ride on the record, so no module keeps a table beside the records
    found = []
    for path in sorted((ROOT / "src" / "migsets").glob("*.py")):
        found += [
            f"{path.name}:{node.lineno} {node.id}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id in ("_PRIMITIVE_KIND", "_PRIMITIVE_TYPES")
        ]
    assert not found, found


def test_one_criterion_runner():
    # each criterion returns (passed, expected_failure, detail); only the
    # decorator times it and builds the CriterionResult
    builders = {
        fn.name
        for fn in _top_level_functions("acceptance.py")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CriterionResult"
    }
    assert builders == {"_criterion"}


def test_one_cli_error_exit():
    # `main` turns a library error into "error: ..." and exit 2; only
    # `verify` keeps its own prefixes for a family file it cannot use
    errors = {
        "ConstructionError", "PartitionError", "PartitionTooLarge", "SearchError",
        "OracleError", "BoundsError", "PermError",
    }
    catchers = {
        fn.name
        for fn in _top_level_functions("cli.py")
        for node in ast.walk(fn)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and errors & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    }
    assert catchers == {"main", "_cmd_verify"}
    # and `main` is the one place that writes to stderr
    writers = [
        f"{fn.name}:{node.lineno}"
        for fn in _top_level_functions("cli.py")
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    ]
    assert len(writers) == 1 and writers[0].startswith("main:"), writers


def test_one_bisection_in_bounds():
    # `_solve` is the one bisection; the counts only loop over d and k
    funcs = {fn.name: fn for fn in _top_level_functions("bounds.py")}
    found = []
    for name in ("count_projective", "count_binomial"):
        fn = funcs[name]
        calls = {getattr(n.func, "id", None) for n in ast.walk(fn) if isinstance(n, ast.Call)}
        if "_solve" not in calls:
            found.append(f"{name} does not call _solve")
        found += [
            f"{name}:{inner.lineno} while inside a while"
            for outer in ast.walk(fn)
            if isinstance(outer, ast.While)
            for inner in ast.walk(outer)
            if isinstance(inner, ast.While) and inner is not outer
        ]
    assert not found, found


def test_descriptor_path_walks_parts_tuples(monkeypatch):
    # the descriptor vectors and the mask groups come from parts tuples, from
    # the one walk of the partitions, which carries each prefix's partial
    # sums: no Partition per partition, no partial-sum DP, no shift-or per
    # part of a tuple, and no second enumerator of the partitions
    from migsets import family_search, partitions, subgroup_oracle

    def refuse(*args):
        raise AssertionError("called on the descriptor path")

    for module in (partitions, family_search, subgroup_oracle):
        monkeypatch.setattr(module, "enumerate_partitions", refuse, raising=False)
        monkeypatch.setattr(module, "partial_sums", refuse, raising=False)
    subgroup_oracle.structural_groups.cache_clear()
    r = subgroup_oracle.max_family_intransitive_imprimitive(16)
    groups = family_search.enumerate_masks(16)
    assert r.t_max == DESCRIPTOR_T[16]
    # the mask-state DP reaches the same groups and first representatives
    assert [(bits, ps[0].parts) for bits, ps in groups] == family_search.mask_groups(16)
    # `_walk_partitions` is the one enumerator: defined once, and the tuples
    # `enumerate_partitions` and `wreath_types` read are its visits
    walks = [
        path.name
        for path in sorted((ROOT / "src" / "migsets").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_walk_partitions"
    ]
    assert walks == ["partitions.py"], walks
    seen = []
    monkeypatch.setattr(partitions, "_walk_partitions", lambda n, window, visit: seen.append(n))
    assert partitions._partition_tuples(7) == [] and seen == [7]
