"""``benchmarks/compare.py`` — the perf-diff CLI's contract.

Pinned here because the script is a CI gate: it must exit non-zero on
a regression even when only a single benchmark pair is comparable,
and it must tolerate pre-PR-4 records that carry no ``engine`` stamp
(printing ``unknown``) instead of erroring — trajectory history spans
PRs that predate the stamp.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_COMPARE = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE)
compare_mod = importlib.util.module_from_spec(_spec)
sys.modules["bench_compare"] = compare_mod
_spec.loader.exec_module(compare_mod)


def _record(path: Path, benchmarks: dict, engine: str | None = None) -> str:
    record = {"benchmarks": {
        name: {"ops_per_sec": ops} for name, ops in benchmarks.items()
    }}
    if engine is not None:
        record["engine"] = engine
    path.write_text(json.dumps(record))
    return str(path)


def test_records_without_engine_print_unknown(tmp_path, capsys):
    base = _record(tmp_path / "a.json", {"bench": 100.0})
    cand = _record(tmp_path / "b.json", {"bench": 101.0})
    assert compare_mod.main([base, cand]) == 0
    out = capsys.readouterr().out
    assert "engines: baseline=unknown  candidate=unknown" in out


def test_mixed_engine_stamps_still_compare(tmp_path, capsys):
    base = _record(tmp_path / "a.json", {"bench": 100.0})
    cand = _record(tmp_path / "b.json", {"bench": 99.0}, engine="c")
    assert compare_mod.main([base, cand]) == 0
    out = capsys.readouterr().out
    assert "engines: baseline=unknown  candidate=c" in out


def test_single_comparable_pair_regression_exits_nonzero(tmp_path, capsys):
    # Only "shared" exists in both records; it regressed 50%.  The
    # disjoint benchmarks must not mask the failure.
    base = _record(tmp_path / "a.json", {"shared": 100.0, "only_old": 5.0})
    cand = _record(tmp_path / "b.json", {"shared": 50.0, "only_new": 5.0})
    assert compare_mod.main([base, cand]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "not in both records (ignored): only_new, only_old" in out


def test_single_comparable_pair_within_threshold_passes(tmp_path, capsys):
    base = _record(tmp_path / "a.json", {"shared": 100.0})
    cand = _record(tmp_path / "b.json", {"shared": 95.0})
    assert compare_mod.main([base, cand]) == 0
    assert "no regression" in capsys.readouterr().out


def test_disjoint_records_error_cleanly(tmp_path):
    base = _record(tmp_path / "a.json", {"x": 1.0})
    cand = _record(tmp_path / "b.json", {"y": 1.0})
    with pytest.raises(SystemExit, match="share no benchmarks"):
        compare_mod.main([base, cand])


def test_trajectory_entries_without_engine(tmp_path, capsys, monkeypatch):
    trajectory = tmp_path / "BENCH_trajectory.json"
    trajectory.write_text(json.dumps([
        {"commit": "aaaa11112222",  # pre-PR-4 shape: no engine field
         "benchmarks": {"bench": {"ops_per_sec": 100.0}}},
        {"commit": "bbbb33334444", "engine": "specialized",
         "benchmarks": {"bench": {"ops_per_sec": 60.0}}},
    ]))
    monkeypatch.setattr(compare_mod, "TRAJECTORY_PATH", trajectory)
    assert compare_mod.main(["aaaa", "bbbb", "--trajectory"]) == 1
    out = capsys.readouterr().out
    assert "engines: baseline=unknown  candidate=specialized" in out
    assert "REGRESSION" in out


def test_trajectory_entry_missing_benchmarks_errors(tmp_path, monkeypatch):
    trajectory = tmp_path / "BENCH_trajectory.json"
    trajectory.write_text(json.dumps([{"commit": "cccc"}]))
    monkeypatch.setattr(compare_mod, "TRAJECTORY_PATH", trajectory)
    with pytest.raises(SystemExit, match="no benchmarks section"):
        compare_mod.main(["cccc", "cccc", "--trajectory"])


def test_trajectory_skips_non_hotpath_records(tmp_path, capsys, monkeypatch):
    """A commit may also carry `lsm` sweep stamps (no benchmarks
    section); the lookup must fall back to the latest hotpath record
    instead of erroring on the sweep entry."""
    trajectory = tmp_path / "BENCH_trajectory.json"
    trajectory.write_text(json.dumps([
        {"commit": "aaaa", "engine": "c",
         "benchmarks": {"bench": {"ops_per_sec": 100.0}}},
        {"commit": "aaaa", "engine": "c",
         "lsm": {"keys_per_cell": 10_000_000}},
    ]))
    monkeypatch.setattr(compare_mod, "TRAJECTORY_PATH", trajectory)
    assert compare_mod.main(["aaaa", "aaaa", "--trajectory"]) == 0
    assert "bench" in capsys.readouterr().out


def test_trajectory_prefix_skips_a_dirty_record(tmp_path, capsys, monkeypatch):
    """A parent's record stays selectable once its change's
    `<sha>-dirty` record follows it: an exact stamp wins, and a prefix
    reaches a -dirty entry only when it ends in -dirty itself."""
    trajectory = tmp_path / "BENCH_trajectory.json"
    trajectory.write_text(json.dumps([
        {"commit": "aaaa", "engine": "c",
         "benchmarks": {"bench": {"ops_per_sec": 100.0}}},
        {"commit": "aaaa-dirty", "engine": "c",
         "benchmarks": {"bench": {"ops_per_sec": 200.0}}},
    ]))
    monkeypatch.setattr(compare_mod, "TRAJECTORY_PATH", trajectory)
    for source, ops in (("aaaa", 100.0), ("aa", 100.0),
                        ("aaaa-dirty", 200.0)):
        record = compare_mod.load_record(source, trajectory=True)
        assert record["benchmarks"]["bench"]["ops_per_sec"] == ops, source
    assert compare_mod.main(["aaaa", "aaaa-dirty", "--trajectory"]) == 0
    assert "2.00" in capsys.readouterr().out


def test_cell_groups_match_bench_hotpath():
    """CELL_GROUPS must name exactly the cells bench_hotpath.py
    defines — a renamed or added cell that is not grouped would
    silently vanish from every --group diff."""
    bench = (Path(__file__).resolve().parents[1]
             / "benchmarks" / "bench_hotpath.py")
    import re

    defined = set(re.findall(r"^def (test_\w+)\(", bench.read_text(),
                             flags=re.MULTILINE))
    grouped = {name for cells in compare_mod.CELL_GROUPS.values()
               for name in cells}
    assert grouped == defined


def test_group_flag_filters_the_diff(tmp_path, capsys):
    base = _record(tmp_path / "a.json", {
        "test_filter_batch_insert_cold": 100.0,
        "test_access_l1_hit": 100.0,
    })
    cand = _record(tmp_path / "b.json", {
        "test_filter_batch_insert_cold": 120.0,
        "test_access_l1_hit": 10.0,  # out-of-group regression: ignored
    })
    assert compare_mod.main([base, cand, "--group", "filter_batch"]) == 0
    out = capsys.readouterr().out
    assert "test_filter_batch_insert_cold" in out
    assert "test_access_l1_hit" not in out


def test_group_flag_matches_parametrized_cells(tmp_path, capsys):
    base = _record(tmp_path / "a.json", {
        "test_pointer_chain_build[python]": 100.0,
        "test_pointer_chain_build[c]": 2000.0,
        "test_access_l1_hit": 100.0,
    })
    cand = _record(tmp_path / "b.json", {
        "test_pointer_chain_build[python]": 100.0,
        "test_pointer_chain_build[c]": 1000.0,
        "test_access_l1_hit": 100.0,
    })
    assert compare_mod.main([base, cand, "--group", "setup"]) == 1
    out = capsys.readouterr().out
    assert "test_pointer_chain_build[c]" in out
    assert "test_pointer_chain_build[python]" in out
    assert "test_access_l1_hit" not in out


def test_group_with_no_shared_cells_errors(tmp_path):
    base = _record(tmp_path / "a.json", {"test_access_l1_hit": 1.0})
    cand = _record(tmp_path / "b.json", {"test_access_l1_hit": 1.0})
    with pytest.raises(SystemExit, match="group 'filter_batch'"):
        compare_mod.main([base, cand, "--group", "filter_batch"])


def _raw(cells: dict) -> dict:
    """A pytest-benchmark dump: ``{name: (operations, rounds)}``."""
    return {"benchmarks": [
        {"name": name, "extra_info": {"operations": ops},
         "stats": {"min": min(rounds), "data": rounds}}
        for name, (ops, rounds) in cells.items()
    ]}


def test_merge_process_bests_keeps_the_median_best():
    """Each cell's record is the median of the processes' bests, not
    the best of all rounds: one process in a fast host state must not
    set the number on its own."""
    raws = [
        _raw({"cell": (1000, [0.5, 0.2, 0.3]), "other": (10, [1.0])}),
        _raw({"cell": (1000, [0.1, 0.4, 0.1]), "other": (10, [3.0])}),
        _raw({"cell": (1000, [0.6, 0.4, 0.5]), "other": (10, [2.0])}),
    ]
    merged = compare_mod.merge_process_bests(raws)
    cell = merged["cell"]
    assert cell["process_best_seconds"] == [0.2, 0.1, 0.4]
    assert cell["best_seconds"] == 0.2
    assert cell["ops_per_sec"] == 5000.0
    assert cell["operations"] == 1000
    assert cell["rounds_seconds"] == [
        0.5, 0.2, 0.3, 0.1, 0.4, 0.1, 0.6, 0.4, 0.5]
    assert merged["other"]["best_seconds"] == 2.0
    assert merged["other"]["ops_per_sec"] == 5.0
