"""The one bench script, `scripts/bench_e2e.py`, run on cheap commands."""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from migsets.family_search import max_family
from migsets.partitions import enumerate_partitions
from migsets.subgroup_oracle import incidence_mask

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_e2e.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_e2e", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_hold_one_bench_script():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == ["bench_e2e.py"]


def test_bench_entry(tmp_path, monkeypatch, capsys):
    bench = _load_bench()
    monkeypatch.setattr(
        bench,
        "COMMANDS",
        {
            "bounds": ["-c", bench.CLI, "bounds", "--from", "5", "--to", "6"],
            "search5": ["-c", bench.CLI, "search", "--n", "5", "--json"],
            "oracle_load": bench.COMMANDS["oracle_load"],
        },
    )
    out = tmp_path / "bench.json"
    stale = {"label": "change", "src_lines": -1}
    kept = {"label": "parent", "src_lines": 1}
    out.write_text(json.dumps({"command": "bench", "entries": [kept, stale]}))

    assert bench.main(["--label", "change", "--checkout", str(ROOT), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["command"] == "bench"
    # the entry of the same label is replaced, the other one kept
    assert [e["label"] for e in data["entries"]] == ["parent", "change"]
    assert data["entries"][0] == kept
    entry = data["entries"][1]
    assert entry["src_lines"] == bench.src_lines(str(ROOT)) > 0
    for name in ("bounds", "search5", "oracle_load"):
        row = entry[name]
        assert len(row["wall_s"]) == bench.RUNS == 3
        # walls to the millisecond, and their spread relative to the median
        assert all(w == round(w, 3) for w in row["wall_s"])
        assert row["median_s"] == sorted(row["wall_s"])[1]
        spread = (max(row["wall_s"]) - min(row["wall_s"])) / row["median_s"]
        assert row["spread"] == round(spread, 3)
        assert row["peak_rss_mb"] > 0
        assert row["exit_code"] == 0
    assert entry["bounds"]["outcome"].startswith("sha256:")
    r = max_family(5)
    assert entry["search5"]["outcome"] == f"t_max={r.t_max} nodes={r.nodes_explored}"
    assert entry["oracle_load"]["outcome"] == "records=55"
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "x", "--checkout", str(tmp_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "no src/migsets package" in capsys.readouterr().err


def test_two_checkouts_interleave_their_runs(tmp_path, monkeypatch, capsys):
    # each command alternates between the checkouts run by run, the first
    # of them swapped on every run, and each label gets its own entry
    bench = _load_bench()
    search5 = ["-c", bench.CLI, "search", "--n", "5", "--json"]
    monkeypatch.setattr(bench, "COMMANDS", {"search5": search5})
    other = tmp_path / "other"
    other.mkdir()
    (other / "src").symlink_to(ROOT / "src")
    calls = []
    real = bench.run_once

    def recorded(checkout, name):
        calls.append((checkout, name))
        return real(checkout, name)

    monkeypatch.setattr(bench, "run_once", recorded)
    out = tmp_path / "bench.json"
    argv = ["--label", "parent", "--checkout", str(other), "--label", "change"]
    assert bench.main([*argv, "--checkout", str(ROOT), "--out", str(out)]) == 0
    a, b = str(other), str(ROOT)
    assert calls == [(c, "search5") for c in (a, b, b, a, a, b)]
    entries = json.loads(out.read_text())["entries"]
    assert [e["label"] for e in entries] == ["parent", "change"]
    r = max_family(5)
    for entry in entries:
        assert entry["src_lines"] == bench.src_lines(str(ROOT))
        row = entry["search5"]
        assert len(row["wall_s"]) == 3 and row["exit_code"] == 0
        assert row["outcome"] == f"t_max={r.t_max} nodes={r.nodes_explored}"
    capsys.readouterr()

    for bad in (
        ["--label", "a", "--label", "b"],
        ["--label", "a", "--label", "a", "--checkout", b, "--checkout", b],
        ["--label", "a", "--label", "b", "--label", "c"] + ["--checkout", b] * 3,
    ):
        with pytest.raises(SystemExit) as exc:
            bench.main([*bad, "--out", str(out)])
        assert exc.value.code == 2
        assert "one or two distinct --label values" in capsys.readouterr().err


def test_descriptor_sweep_outcome_is_its_printed_line():
    # the sweep prints its own outcome; the single searches print JSON
    bench = _load_bench()
    assert "range(5, 41)" in bench.COMMANDS["search_desc_sweep"][1]
    line = b"t_desc=[2, 3, 3] nodes=11\n"
    assert bench.outcome_of("search_desc_sweep", line) == "t_desc=[2, 3, 3] nodes=11"
    search = b'{"t_max": 2, "nodes_explored": 3}'
    assert bench.outcome_of("search_desc40", search) == "t_max=2 nodes=3"


def test_oracle_masks_outcome_is_its_printed_line():
    # the command prints the count and digest of every mask of n=5..12
    bench = _load_bench()
    _, _, code, outcome = bench.run_once(str(ROOT), "oracle_masks")
    masks = [incidence_mask(p) for n in range(5, 13) for p in enumerate_partitions(n)]
    digest = hashlib.sha256(repr(masks).encode()).hexdigest()[:16]
    assert (code, outcome) == (0, f"masks=260 sha256={digest}")
