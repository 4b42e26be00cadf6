import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migsets import cli
from migsets.acceptance import CriterionResult
from migsets.cli import main
from migsets.constructions import build_x_family


def test_lemma_text(capsys):
    assert main(["lemma", "--i", "2", "--n", "11"]) == 0
    out = capsys.readouterr().out
    assert "4,3^2,1" in out
    assert "[2, 9]" in out


def test_lemma_eight_one(capsys):
    assert main(["lemma", "--i", "1", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "3^2,2" in out
    assert "[1, 4, 7]" in out


def test_lemma_degree_past_cap(capsys):
    # refused before a 50-million-part list is built
    assert main(["lemma", "--i", "1", "--n", "100000000"]) == 2
    _assert_one_line_error(capsys)


def test_lemma_json(capsys):
    assert main(["lemma", "--i", "1", "--n", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "i": 1,
        "n": 6,
        "partition": "2^3",
        "case": "n_eq_4i_plus_2",
        "missing": [1, 3, 5],
    }


def test_lemma_domain_error(capsys):
    assert main(["lemma", "--i", "5", "--n", "14"]) == 2
    assert "error" in capsys.readouterr().err


def test_construct_json_matches_builder(capsys):
    assert main(["construct", "--n", "13", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    xf = build_x_family(13)
    assert data["members"] == [p.text() for p in xf.members]
    assert data["witnesses"]["3,2^5"] == 1
    assert data["repair_case"] == "case1_z_added"


def test_construct_small_degrees(capsys):
    assert main(["construct", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "family of 2 cycle types" in out
    assert main(["construct", "--n", "11"]) == 0
    assert "family of 4 cycle types" in capsys.readouterr().out


def test_construct_output_file(tmp_path, capsys):
    target = tmp_path / "fam.json"
    assert main(["construct", "--n", "24", "--output", str(target)]) == 0
    assert "written to" in capsys.readouterr().out
    data = json.loads(target.read_text())
    assert data["n"] == 24
    assert len(data["members"]) == 10


def test_construct_domain_error(capsys):
    assert main(["construct", "--n", "4"]) == 2
    assert "error" in capsys.readouterr().err


def _write_family(tmp_path, n, mutate=None):
    xf = build_x_family(n)
    data = {
        "n": n,
        "members": [p.text() for p in xf.members],
        "witnesses": {p.text(): xf.witnesses[p] for p in xf.members},
    }
    if mutate:
        mutate(data)
    path = tmp_path / f"fam{n}.json"
    path.write_text(json.dumps(data))
    return path


def test_verify_round_trip(tmp_path, capsys):
    path = _write_family(tmp_path, 11)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: valid" in out
    assert "exact maximal-subgroup oracle" in out


def test_construct_verify_pipe(tmp_path):
    for n in (5, 13, 24, 96):
        target = tmp_path / f"pipe{n}.json"
        assert main(["construct", "--n", str(n), "--output", str(target)]) == 0
        assert main(["verify", str(target)]) == 0


def test_verify_rejects_degree6_family(tmp_path, capsys):
    # the searched family 5,1; 2^3 has private witnesses, but both classes
    # meet PGL(2,5), so it does not even generate S_6
    target = tmp_path / "fam6.json"
    assert main(["construct", "--n", "6", "--output", str(target)]) == 0
    capsys.readouterr()
    assert main(["verify", str(target)]) == 1
    out = capsys.readouterr().out
    assert "property2: ok" in out
    assert "minimal: FAIL (oracle rejects the family)" in out
    assert "method: ok (exact maximal-subgroup oracle)" in out
    assert "verdict: INVALID" in out
    assert main(["oracle", "--n", "6", "--classes", "5,1;2^3"]) == 1


def test_verify_skips_lower_bound_on_request(tmp_path, capsys):
    path = _write_family(tmp_path, 11)
    assert main(["verify", str(path), "--no-lower-bound"]) == 0
    out = capsys.readouterr().out
    assert "property3" in out
    assert "parity" not in out


def test_verify_tampered_family(tmp_path, capsys):
    def swap_tail(data):
        data["members"] = ["10,1" if m == "8,1^3" else m for m in data["members"]]
        data["witnesses"] = {
            ("10,1" if k == "8,1^3" else k): v for k, v in data["witnesses"].items()
        }

    def negative_witness(data):
        # reported like any other invalid witness, not as a traceback
        data["witnesses"][data["members"][0]] = -1

    for mutate in (swap_tail, negative_witness):
        path = _write_family(tmp_path, 11, mutate=mutate)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "property2: FAIL" in out
        assert "verdict: INVALID" in out


def test_verify_recomputes_missing_witnesses(tmp_path):
    path = _write_family(tmp_path, 13, mutate=lambda d: d.pop("witnesses"))
    assert main(["verify", str(path)]) == 0


def test_verify_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert main(["verify", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err

    path2 = _write_family(tmp_path, 12, mutate=lambda d: d["witnesses"].popitem())
    assert main(["verify", str(path2)]) == 2


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_verify_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"members": ["3,2\xff"]}')
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys)


def test_verify_rejects_oversized_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in (
        json.dumps({"members": ["1^3000000"]}),  # refused before expanding
        "9" * 5000,  # more digits than int() parses
        "[" * 100_000,  # deeper than the JSON decoder recurses
    ):
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        _assert_one_line_error(capsys)


def test_verify_rejects_non_string_member(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"members": [5]}))
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys)


def test_verify_rejects_non_ascii_digits_and_newlines(tmp_path, capsys):
    # "3\n" and the Arabic-Indic three are not the documented 7,5,1^3 form
    for bad in ("3\n,2\n", "\u0663,2"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"members": [bad, "4,1"]}))
        assert main(["verify", str(path)]) == 2
        _assert_one_line_error(capsys)
        path.write_text(json.dumps({"members": ["3,2", "4,1"], "witnesses": {bad: 1}}))
        assert main(["verify", str(path)]) == 2
        _assert_one_line_error(capsys)


def test_verify_accepts_spaced_witness_key(tmp_path, capsys):
    def space_keys(data):
        data["witnesses"] = {k.replace(",", ", "): v for k, v in data["witnesses"].items()}

    path = _write_family(tmp_path, 13, mutate=space_keys)
    assert "3, 2^5" in json.loads(path.read_text())["witnesses"]
    assert main(["verify", str(path)]) == 0
    assert "verdict: valid" in capsys.readouterr().out


def test_verify_rejects_non_integer_witness(tmp_path, capsys):
    def spoil(data):
        data["witnesses"]["3,2^5"] = "x"

    path = _write_family(tmp_path, 13, mutate=spoil)
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "shift",
    [lambda w: w + 0.9, str, lambda w: True],
    ids=["fraction", "string", "bool"],
)
def test_verify_rejects_fractional_string_and_bool_witnesses(tmp_path, capsys, shift):
    # a fractional witness must not be truncated into a valid one
    def spoil(data):
        data["witnesses"] = {k: shift(v) for k, v in data["witnesses"].items()}

    path = _write_family(tmp_path, 13, mutate=spoil)
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys)


def test_verify_accepts_degree25_family_with_odd_member_outside_first(
    tmp_path, capsys
):
    # 5,4^2,3^4 is the only member without the partial sum 1, and it is even;
    # the odd member 7^2,4,3^2,1 rules out A_25
    members = (
        "12,5,4,3,1; 13,5,3^2,1; 7^2,4,3^2,1; 11,5^2,3,1; 9,4^3,3,1; 8,7,3^3,1; "
        "6,5^2,4^2,1; 5,4^2,3^4; 14,1^11; 9^2,1^7; 6^2,5^2,1^3"
    ).split("; ")
    path = tmp_path / "fam25.json"
    path.write_text(json.dumps({"n": 25, "members": members}))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "family of 11 members at n=25:" in out
    assert "verdict: valid" in out


def test_verify_rejects_wrong_degree_field(tmp_path, capsys):
    path = _write_family(tmp_path, 13, mutate=lambda d: d.update(n=99))
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys)


def test_verify_rejects_malformed_witness_map_and_duplicates(tmp_path, capsys):
    def duplicate(data):
        data["members"].append(data["members"][0])
        data.pop("witnesses")

    path = _write_family(tmp_path, 13, mutate=lambda d: d.update(witnesses=[1]))
    assert main(["verify", str(path)]) == 2
    _assert_one_line_error(capsys)
    for n in (12, 13):
        path = _write_family(tmp_path, n, mutate=duplicate)
        assert main(["verify", str(path)]) == 2
        _assert_one_line_error(capsys)


NOT_A_FAMILY = "error: cannot read family: expected an object with a member list and a witness map\n"
BAD_N = "error: malformed family: n must be an integer, got "


@pytest.mark.parametrize(
    "family, err",
    [
        ({"members": "5"}, NOT_A_FAMILY),
        ({"members": {"5": 1}}, NOT_A_FAMILY),
        ({"n": 5}, NOT_A_FAMILY),
        (
            {"n": 5, "members": ["4,1", "3,2"], "witnesses": {"4,1": 1}},
            "error: malformed family: witness keys do not match the member list\n",
        ),
        ({"n": True, "members": ["1"]}, BAD_N + "True\n"),
        ({"n": 13.0, "members": ["13"]}, BAD_N + "13.0\n"),
        ({"n": "13", "members": ["13"]}, BAD_N + "'13'\n"),
    ],
    ids=[
        "string-members",
        "map-members",
        "no-members",
        "missing-witness",
        "bool-n",
        "float-n",
        "string-n",
    ],
)
def test_verify_names_a_bad_member_list_or_witness_map(tmp_path, capsys, family, err):
    # a member list that is not a list is not iterated as one, and no
    # KeyError repr reaches the message; n is refused unless it is an
    # integer, like a witness, so true does not pass for 1 nor 13.0 for 13
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(family))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_verify_json_mode(tmp_path, capsys):
    path = _write_family(tmp_path, 20)
    assert main(["verify", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["checks"]["method"]["detail"] == "proof replay"


def test_search_spec_point(capsys):
    assert main(["search", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "largest family size 2" in out
    assert "prune" not in out


def test_search_json(capsys):
    assert main(["search", "--n", "10", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["t_max"] == 4
    assert data["exhaustive"] is True
    assert len(data["family"]) == 4
    assert set(data["prunes"]) == {"bound"}
    assert data["prunes"]["bound"] > 0


def test_search_descriptors(capsys):
    assert main(["search", "--n", "12", "--descriptors", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["t_max"] == 5
    assert ["imprimitive", 2, 6] in data["descriptors"]
    # S_6 x S_6 is not maximal in S_12: it lies in S_6 wr S_2
    assert ["intransitive", 6] not in data["descriptors"]


# SHA-256 of the stdout of `search --n N --descriptors --json` for
# N = 5..30, concatenated: frozen from the search that grouped every
# Partition object, so the parts-tuple grouping must print the same bytes
SEARCH_DESCRIPTORS_DIGEST = "cc851fd5c922ae4c62e4f8e62e728ff4d02e6ce0210ded6dbf7c8413fc98aaf8"


def test_search_descriptors_digest(capsys):
    h = hashlib.sha256()
    for n in range(5, 31):
        assert main(["search", "--n", str(n), "--descriptors", "--json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == SEARCH_DESCRIPTORS_DIGEST


# SHA-256 of the stdout of `search --n N --json` for N = 5..50,
# concatenated: frozen from the search that built a MaskGroup and a
# Partition per mask, so no family, witness or node count may move
SEARCH_MASK_DIGEST = "71f995885148eee8f9aa013e7a56731b19cdb9c97d72816e99933954d91992e4"


def test_search_mask_digest(capsys):
    h = hashlib.sha256()
    for n in range(5, 51):
        assert main(["search", "--n", str(n), "--json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == SEARCH_MASK_DIGEST


def test_search_usage_error(capsys):
    assert main(["search", "--n", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_search_runs_past_partition_enumeration(capsys):
    # the mask search runs on the mask-state DP, so n=41 is in range
    assert main(["search", "--n", "41", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["t_max"] == 18
    assert len(data["witnesses"]) == 18


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "81"], "the mask search capped at n=80, got 81"),
        (
            ["--n", "41", "--descriptors"],
            "the descriptor search (full partition enumeration) capped at n=40, got 41",
        ),
    ],
)
def test_search_refuses_degree_before_work(argv, message, capsys, monkeypatch):
    # each search names its own cap, and neither builds a vector first
    from migsets import family_search, subgroup_oracle

    def refuse(*args):
        raise AssertionError("vectors built")

    monkeypatch.setattr(family_search, "mask_groups", refuse)
    monkeypatch.setattr(subgroup_oracle, "structural_records", refuse)
    monkeypatch.setattr(subgroup_oracle, "vector_groups", refuse)
    monkeypatch.setattr(subgroup_oracle, "structural_groups", refuse)
    assert main(["search", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bounds_single_row(capsys):
    assert main(["bounds", "--from", "22"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n\tdelta")
    assert lines[1] == "22\t4\t0\t0\t0\t6.541\t14\tM_22.2:21"


def test_bounds_range_row_count(capsys):
    assert main(["bounds", "--from", "5", "--to", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 97  # header + 96 rows
    assert lines[1].startswith("5\t")
    assert lines[-1].startswith("100\t")


def test_python_dash_m_runs_the_cli(capsys):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "migsets", "bounds", "--from", "5"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert main(["bounds", "--from", "5"]) == 0
    assert done.stdout == capsys.readouterr().out


def test_bounds_k1_flag(capsys):
    assert main(["bounds", "--from", "10"]) == 0
    plain = capsys.readouterr().out.splitlines()[1]
    assert main(["bounds", "--from", "10", "--k1"]) == 0
    flagged = capsys.readouterr().out.splitlines()[1]
    assert int(plain.split("\t")[3]) + 1 == int(flagged.split("\t")[3])


@pytest.mark.parametrize("hi", ["10005", "100000000"])
def test_bounds_refuses_oversized_sweep(hi, capsys, monkeypatch):
    # refused before the first row: bound_report is never called
    monkeypatch.setattr(cli, "bound_report", None)
    assert main(["bounds", "--from", "5", "--to", hi]) == 2
    assert capsys.readouterr().err.startswith("error: a sweep covers at most 10000 degrees")


@pytest.mark.parametrize(
    "lo, hi, most",
    [
        ("999999999990", "1000000000000", 10),
        ("1000001", "1010000", 9960),
        ("100000000", "100001000", 1000),
    ],
)
def test_bounds_refuses_costly_sweep(lo, hi, most, capsys, monkeypatch):
    # few enough degrees, but each trial-divides up to isqrt(TO): refused
    # before the first row, so bound_report is never called
    monkeypatch.setattr(cli, "bound_report", None)
    assert main(["bounds", "--from", lo, "--to", hi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a sweep up to {hi} covers at most {most} degrees\n"


@pytest.mark.parametrize(
    "lo, hi",
    [("5", "10000"), ("1000000000000", "1000000000000"), ("999999999991", "1000000000000")],
)
def test_bounds_accepts_sweep_within_work_cap(lo, hi, monkeypatch):
    # the largest sweeps each cap allows still run, one report per degree
    real = cli.bound_report
    seen = []
    monkeypatch.setattr(cli, "bound_report", lambda n: seen.append(n) or real(40))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bounds", "--from", lo, "--to", hi]) == 0
    assert seen == list(range(int(lo), int(hi) + 1))


@pytest.mark.parametrize(
    "bounds", [["--from", "1000000000001"], ["--from", "999999999990", "--to", "1000000000001"]]
)
def test_bounds_refuses_oversized_degree(bounds, capsys, monkeypatch):
    # refused before the first row: bound_report is never called
    monkeypatch.setattr(cli, "bound_report", None)
    assert main(["bounds", *bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need 5 <= FROM <= TO <= 1000000000000\n"


def test_bounds_json(capsys):
    assert main(["bounds", "--from", "40", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1
    assert data[0]["upper"] == 28
    assert data[0]["table1_hits"] == [["SU_4(2).2", 25]]


def test_bounds_bad_range(capsys):
    assert main(["bounds", "--from", "4"]) == 2
    assert main(["bounds", "--from", "10", "--to", "8"]) == 2


def test_oracle_mig_with_witnesses(capsys):
    assert main(["oracle", "--n", "6", "--classes", "(2);(3,3);(5,1)"]) == 0
    out = capsys.readouterr().out
    assert "2,1^4; 3^2; 5,1" in out
    assert "minimal invariable generating set: yes" in out
    assert "dropping 2,1^4 leaves a set met by A_6" in out


def test_oracle_blocked(capsys):
    assert main(["oracle", "--n", "6", "--classes", "(5,1);(2^3)"]) == 1
    out = capsys.readouterr().out
    assert "invariably generates: no (every class meets" in out


def test_oracle_redundant_class(capsys):
    assert main(["oracle", "--n", "6", "--classes", "(4,1);(3,1^3);(3,3);(6)"]) == 1
    out = capsys.readouterr().out
    assert "minimal invariable generating set: no" in out
    assert "redundant classes: 3^2, 6" in out


def test_oracle_json_padding(capsys):
    assert main(["oracle", "--n", "7", "--classes", "6;(5,2)", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classes"] == ["6,1", "5,2"]
    assert data["invariably_generates"] is True
    assert data["blocked_by"] is None
    assert set(data["removal_witnesses"]) == {"6,1", "5,2"}


def test_oracle_json_blocker_is_first_record(capsys):
    # S_2 wr S_3, S_3 wr S_2 and A_6 all meet both classes; the first is named
    assert main(["oracle", "--n", "6", "--classes", "(4,2);(3,3)", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["invariably_generates"] is False
    assert data["blocked_by"] == "S_2 wr S_3"
    assert data["removal_witnesses"] == {}


def test_oracle_json_removal_witness_labels(capsys):
    # each pair is met by two records; the first in record order is named
    assert main(["oracle", "--n", "6", "--classes", "4,1^2;3,1^3;3,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["minimal"] is True
    assert data["removal_witnesses"] == {
        "4,1^2": "S_3 wr S_2",
        "3,1^3": "S_2 wr S_3",
        "3^2": "S_1 x S_5",
    }


def test_oracle_classes_file(tmp_path, capsys):
    listing = tmp_path / "classes.txt"
    listing.write_text("4,1\n3,1^3\n3,3\n")
    assert main(["oracle", "--n", "6", "--classes-file", str(listing)]) == 0
    assert "minimal invariable generating set: yes" in capsys.readouterr().out


def test_oracle_errors(capsys):
    assert main(["oracle", "--n", "6", "--classes", "(7)"]) == 2
    assert main(["oracle", "--n", "13", "--classes", "(13)"]) == 2
    assert main(["oracle", "--n", "6", "--classes", ";;"]) == 2
    capsys.readouterr()
    assert main(["oracle", "--n", "6", "--classes-file", "/nonexistent"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read class list: [Errno 2] No such file or directory:"
        " '/nonexistent'\n"
    )


@pytest.mark.parametrize("n", [13, 100_000_000])
def test_oracle_refuses_degree_before_parsing(monkeypatch, capsys, n):
    # padding every class to degree n would cost time and memory linear in n
    def refuse(*args):
        raise AssertionError("classes parsed before the degree was checked")

    monkeypatch.setattr(cli, "_parse_classes", refuse)
    assert main(["oracle", "--n", str(n), "--classes", "(5)"]) == 2
    assert "outside supported range" in capsys.readouterr().err


def test_oracle_rejects_non_utf8_file_and_huge_exponent(tmp_path, capsys):
    listing = tmp_path / "classes.txt"
    listing.write_bytes(b"4,1\n3,1^3\xe9\n")
    assert main(["oracle", "--n", "6", "--classes-file", str(listing)]) == 2
    _assert_one_line_error(capsys)
    assert main(["oracle", "--n", "6", "--classes", "1^3000000"]) == 2
    _assert_one_line_error(capsys)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@FUZZ
@given(
    n=st.integers(min_value=5, max_value=8),
    text=st.text(alphabet="0123456789^,;() \n-x", max_size=24),
)
def test_oracle_classes_fuzz(n, text):
    code, err = _run_quietly(["oracle", "--n", str(n), f"--classes={text}"])
    assert code in (0, 1, 2) and "Traceback" not in err, (text, err)


@FUZZ
@given(data=st.binary(max_size=64))
def test_verify_file_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    code, err = _run_quietly(["verify", str(path)])
    assert code in (0, 1, 2) and "Traceback" not in err, (data, err)


def test_repro_only(capsys):
    assert main(["repro", "--only", "5"]) == 0
    out = capsys.readouterr().out
    assert "criterion 5" in out
    assert "documented ways" in out


def test_repro_documented_failure_accepted(capsys):
    assert main(["repro", "--only", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1
    assert data[0]["passed"] is False
    assert data[0]["expected_failure"] is True


def test_repro_json_rows(monkeypatch, capsys):
    # every CriterionResult field in declaration order, runtime to 2 places
    result = CriterionResult(9, "probe", True, False, 1.23456, "detail")
    monkeypatch.setattr(cli, "run_acceptance", lambda numbers: [result])
    assert main(["repro", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert list(row) == ["number", "name", "passed", "expected_failure", "runtime", "detail"]
    assert row == {
        "number": 9,
        "name": "probe",
        "passed": True,
        "expected_failure": False,
        "runtime": 1.23,
        "detail": "detail",
    }


def test_repro_summary_file(tmp_path, capsys):
    target = tmp_path / "summary.txt"
    assert main(["repro", "--only", "5", "--output", str(target)]) == 0
    capsys.readouterr()
    assert "criterion 5" in target.read_text()


def test_repro_bad_selection(capsys):
    # "" is malformed like "5,", not a request for every criterion
    for only in ("five", "", "5,"):
        assert main(["repro", "--only", only]) == 2
        assert "bad criterion list" in capsys.readouterr().err
    assert main(["repro", "--only", "99"]) == 2
    assert capsys.readouterr().err == "error: no criteria match '99'\n"
    # one unknown number refuses the list, before any criterion runs
    assert main(["repro", "--only", "6,99"]) == 2
    assert capsys.readouterr() == ("", "error: no criteria match '99'\n")


@pytest.mark.parametrize(
    "target", ["missing_dir/out.json", "."], ids=["missing-dir", "directory"]
)
@pytest.mark.parametrize(
    "command",
    [["construct", "--n", "13"], ["repro", "--only", "5"]],
    ids=["construct", "repro"],
)
def test_unwritable_output_is_a_usage_error(
    tmp_path, monkeypatch, capsys, command, target
):
    def no_run(numbers):
        raise AssertionError("repro ran criteria before refusing the path")

    monkeypatch.setattr(cli, "run_acceptance", no_run)
    assert main(command + ["--output", str(tmp_path / target)]) == 2
    _assert_one_line_error(capsys)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
