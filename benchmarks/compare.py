#!/usr/bin/env python
"""Diff two hot-path benchmark records and flag regressions.

Usage::

    python benchmarks/compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Both inputs are compact records as written by ``benchmarks/run_perf.sh``
(``BENCH_hotpath.json``) *or* entries inside ``BENCH_trajectory.json``
selected by commit::

    python benchmarks/compare.py --trajectory abc123def456 deadbeef0123

A commit can carry one trajectory entry per engine leg; ``--engine``
selects which leg to load, and records from *different* engines are
refused by default — a python-leg baseline against a c-leg candidate
measures the engine, not the commit, and every apparent regression or
win it prints is bogus.  Pass ``--cross-engine`` when the engine gap
is exactly what you mean to measure (the PERFORMANCE.md speedup
tables do).

Exit status is 1 when any shared benchmark regressed by more than the
threshold (default 10 %), which makes the script usable as a CI gate.
On the shared 1-CPU hosts a single pair of runs carries ±30 % noise —
for decisions, compare records produced by the interleaved best-of
methodology described in PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TRAJECTORY_PATH = Path(__file__).resolve().parent / "results" / "BENCH_trajectory.json"

#: The bench_hotpath.py cells by subsystem, so a diff can focus on the
#: layer a PR touched (``--group filter_batch`` after a batch-kernel
#: change, ``--group walk`` after a cache-walk change).  Kept in sync
#: with bench_hotpath.py by tests/test_compare_tool.py.  A
#: parametrized cell is grouped by its function name.
CELL_GROUPS = {
    "access": (
        "test_access_l1_hit",
        "test_access_llc_hit",
        "test_access_miss",
    ),
    "walk": (
        "test_walk_l1_hit_dominated",
        "test_walk_miss_fill",
        "test_walk_evict_heavy_monitored",
    ),
    "filter": (
        "test_filter_access_hits",
        "test_filter_access_mixed",
    ),
    "filter_batch": (
        "test_filter_batch_insert_cold",
        "test_filter_batch_query_hits",
        "test_filter_batch_mixed_deletes",
        "test_filter_build_install",
    ),
    "setup": (
        "test_derive_seed",
        "test_pointer_chain_build",
    ),
    "emit": (
        "test_emit_records",
    ),
    "end_to_end": (
        "test_fig8_single_cell",
        "test_fig8_single_cell_generator_loop",
        "test_campaign_throughput",
        "test_campaign_throughput_generator_loop",
        "test_fig10_detection_cell",
    ),
    "telemetry": (
        "test_telemetry_detached",
        "test_telemetry_attached",
    ),
}

#: Host-provenance fields run_perf.sh stamps into each record; a diff
#: across hosts is noise, so mismatches on any of these warn loudly.
HOST_KEYS = ("cpu", "cores", "python", "compiler")


def warn_cross_host(baseline: dict, candidate: dict) -> None:
    """Print a loud warning when the two records came from visibly
    different hosts (CPU model, core count, Python, or compiler).

    Non-fatal by design: cross-host diffs are sometimes exactly what
    is wanted (same commit on two machines), but an *unnoticed* host
    change masquerades as a perf regression — rule 3 of PERFORMANCE.md
    (never compare across machines) needs teeth in the tool.  Records
    that predate the host stamp stay silent.
    """
    b_host = baseline.get("host") or {}
    c_host = candidate.get("host") or {}
    if not b_host or not c_host:
        return
    diffs = [
        key for key in HOST_KEYS
        if b_host.get(key) is not None
        and c_host.get(key) is not None
        and b_host.get(key) != c_host.get(key)
    ]
    if diffs:
        print(
            "WARNING: records came from different hosts "
            f"({', '.join(f'{k}: {b_host[k]!r} vs {c_host[k]!r}' for k in diffs)}) "
            "— every ratio below measures the machine as much as the "
            "change",
            file=sys.stderr,
        )


def merge_process_bests(raws: list[dict]) -> dict:
    """The compact ``benchmarks`` section of a record, from the
    pytest-benchmark dumps of several processes that ran the same cells
    one after another (``run_perf.sh`` runs three).

    A whole process can land in a fast or a slow host state, so a cell's
    ``best_seconds`` is the median of the processes' bests, and
    ``ops_per_sec`` is its ``operations`` over that median.  Each
    process's best (``process_best_seconds``) and every round
    (``rounds_seconds``) are kept, in run order.
    """
    cells: dict[str, dict] = {}
    for raw in raws:
        for bench in raw["benchmarks"]:
            cell = cells.setdefault(bench["name"], {
                "operations": bench.get("extra_info", {}).get(
                    "operations", 1),
                "process_best_seconds": [],
                "rounds_seconds": [],
            })
            cell["process_best_seconds"].append(
                round(bench["stats"]["min"], 6))
            cell["rounds_seconds"] += [
                round(v, 6) for v in bench["stats"]["data"]
            ]
    for cell in cells.values():
        best = statistics.median(cell["process_best_seconds"])
        cell["best_seconds"] = round(best, 6)
        cell["ops_per_sec"] = round(cell["operations"] / best, 1)
    return cells


def load_record(source: str, trajectory: bool, engine: str | None = None) -> dict:
    """Load a compact benchmark record from a file or a trajectory commit.

    Every failure mode exits with a one-line diagnosis (missing file,
    malformed JSON, unknown SHA) instead of a traceback — this script
    is the first thing run when chasing a perf report, so its own
    errors must read instantly.
    """
    if not trajectory:
        try:
            with open(source) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            raise SystemExit(
                f"error: no benchmark record at {source!r} "
                "(run benchmarks/run_perf.sh to produce one)"
            ) from None
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: {source}: not valid JSON ({exc})") from None
        if "benchmarks" not in record:
            raise SystemExit(f"error: {source}: not a compact benchmark record")
        return record
    try:
        with open(TRAJECTORY_PATH) as fh:
            entries = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(
            f"error: no trajectory file at {TRAJECTORY_PATH} — run "
            "benchmarks/run_perf.sh at least once to start one"
        ) from None
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {TRAJECTORY_PATH}: not valid JSON ({exc})"
        ) from None
    # An exact stamp wins.  A prefix reaches the `<sha>-dirty` stamp of
    # an uncommitted change only when it ends in -dirty itself, so a
    # parent's record stays selectable once its change's record follows.
    matches = [e for e in entries if e.get("commit") == source] or [
        e for e in entries
        if e.get("commit", "").startswith(source)
        and (source.endswith("-dirty")
             or not e.get("commit", "").endswith("-dirty"))
    ]
    if not matches:
        known = sorted({e.get("commit", "?") for e in entries})
        raise SystemExit(
            f"error: no trajectory entry for commit {source!r}; "
            f"recorded commits: {', '.join(known) if known else '(none)'}"
        )
    if engine is not None:
        legs = [e for e in matches if e.get("engine") == engine]
        if not legs:
            recorded = sorted(
                {e.get("engine") or "unstamped" for e in matches}
            )
            raise SystemExit(
                f"error: commit {source!r} has no {engine}-leg trajectory "
                f"entry (recorded legs: {', '.join(recorded)}).  Record "
                f"one with: REPRO_ENGINE={engine} benchmarks/run_perf.sh"
            )
        matches = legs
    # A commit can also carry non-hotpath records (e.g. `lsm` sweep
    # entries); prefer the latest entry that actually has a
    # benchmarks section rather than erroring on a newer sweep stamp.
    with_benchmarks = [e for e in matches if "benchmarks" in e]
    record = (with_benchmarks or matches)[-1]
    if "benchmarks" not in record:
        raise SystemExit(
            f"error: trajectory entry for commit {source!r} has no "
            "benchmarks section"
        )
    return record


def compare(
    baseline: dict, candidate: dict, threshold: float,
    cross_engine: bool = False, group: str | None = None,
) -> int:
    base = baseline["benchmarks"]
    cand = candidate["benchmarks"]
    shared = sorted(set(base) & set(cand))
    if group is not None:
        wanted = set(CELL_GROUPS[group])
        shared = [
            name for name in shared if name.partition("[")[0] in wanted
        ]
        if not shared:
            raise SystemExit(
                f"error: the records share no benchmarks in group "
                f"{group!r} ({', '.join(CELL_GROUPS[group])})"
            )
    if not shared:
        raise SystemExit("error: records share no benchmarks")
    # Pre-PR-4 trajectory records carry no engine stamp; print
    # ``unknown`` rather than erroring or hiding the line — a cross-
    # engine comparison must stay visible even when one side predates
    # the stamp.
    b_eng = baseline.get("engine")
    c_eng = candidate.get("engine")
    print(
        f"engines: baseline={b_eng or 'unknown'}  "
        f"candidate={c_eng or 'unknown'}"
    )
    warn_cross_host(baseline, candidate)
    if b_eng and c_eng and b_eng != c_eng and not cross_engine:
        raise SystemExit(
            f"error: the records ran different engines ({b_eng} vs "
            f"{c_eng}), so any regression this diff flags measures the "
            "engine, not the change.  Pick matching legs with "
            "--engine, or pass --cross-engine if the engine gap is "
            "what you mean to measure."
        )
    width = max(len(n) for n in shared)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>14}  {'candidate':>14}  {'ratio':>7}")
    regressions = []
    for name in shared:
        b = base[name]["ops_per_sec"]
        c = cand[name]["ops_per_sec"]
        ratio = c / b if b else float("inf")
        flag = ""
        if ratio < 1.0 - threshold:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        elif ratio > 1.0 + threshold:
            flag = "  improved"
        print(f"{name.ljust(width)}  {b:>14,.1f}  {c:>14,.1f}  {ratio:>6.2f}x{flag}")
    only = sorted(set(base) ^ set(cand))
    if only:
        print(f"\nnot in both records (ignored): {', '.join(only)}")
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print(f"\nno regression beyond {threshold:.0%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="compact record path (or commit with --trajectory)")
    parser.add_argument("candidate", help="compact record path (or commit with --trajectory)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="regression threshold as a fraction (default 0.10)")
    parser.add_argument("--trajectory", action="store_true",
                        help="treat the two arguments as commit prefixes to "
                             "look up in BENCH_trajectory.json")
    parser.add_argument("--engine", metavar="ENGINE", default=None,
                        help="with --trajectory, select this engine's leg "
                             "of each commit (a commit may carry one entry "
                             "per engine; historical records keep the "
                             "engine names they were stamped with)")
    parser.add_argument("--cross-engine", action="store_true",
                        help="allow records from different engines to be "
                             "diffed (default: refuse — such a diff "
                             "measures the engine, not the change)")
    parser.add_argument("--group", choices=sorted(CELL_GROUPS),
                        default=None,
                        help="diff only this subsystem's cells (see "
                             "CELL_GROUPS)")
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be in (0, 1)")
    if args.engine and not args.trajectory:
        parser.error("--engine only applies with --trajectory")
    baseline = load_record(args.baseline, args.trajectory, args.engine)
    candidate = load_record(args.candidate, args.trajectory, args.engine)
    return compare(baseline, candidate, args.threshold,
                   cross_engine=args.cross_engine, group=args.group)


if __name__ == "__main__":
    sys.exit(main())
