"""LSM-scale key workloads over ``from_fpp``-sized Auto-Cuckoo filters.

Not a paper figure: this is the storage-shaped scenario axis from
ROADMAP ("the Auto-Cuckoo filter as a standalone high-throughput
library"), the first non-security workload family.  Each cell of the
sweep drives one :class:`repro.workloads.lsm.LSMFilterTree` — per-level
filters sized by ``AutoCuckooFilter.from_fpp``, zipf-skewed get
streams, delete waves through the classic purge path, compaction-style
bulk rebuilds — at one target false-positive rate, and reports both
the deterministic tree state (engine-independent; the conformance
scenarios pin a small pinned-seed variant) and wall-clock throughput.

Cells run through the fault-tolerant fan-out (``run_cells``), so
``--jobs``, ``--checkpoint-dir`` and ``--resume`` work exactly as for
the attack grids.  A full-scale run (>= 10 M keys per cell) appends a
git-SHA- and engine-stamped record to ``BENCH_trajectory.json``
alongside the run_perf.sh entries.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from array import array
from datetime import datetime, timezone
from pathlib import Path

from repro.engine import effective_engine
from repro.experiments.common import ExperimentResult, is_full_scale
from repro.experiments.parallel import run_cells
from repro.filters.metrics import theoretical_false_positive_rate
from repro.utils.rng import derive_seed
from repro.workloads.lsm import LSMFilterTree, ZipfRanks, resident_key

#: Distinct keys loaded per cell: scaled default vs the >= 10 M-key
#: full-scale sweep the acceptance artefact requires.
DEFAULT_SCALED_KEYS = 200_000
DEFAULT_FULL_KEYS = 10_000_000

#: Target false-positive sweep.  1e-4 derives f = 17 fingerprints, so
#: every sweep drives 17-bit rows through the filter at scale: through
#: the C kernels' 32-bit rows under ``c``, and through the hasher's
#: alternate index (no Python ``_alt_xor`` memo) under ``python``.
FPP_SWEEP = (1e-2, 1e-3, 1e-4)

DEFAULT_THETA = 0.8

#: Keys per put/get/delete batch: large enough to amortise the batch
#: boundary, small enough to keep peak buffer memory trivial.
CHUNK = 1 << 16


def _run_cell(cell):
    """One sweep cell: load ``keys`` residents into the tree, run a
    zipf-skewed get phase, a negative-probe fpp measurement, and a
    zipf-skewed delete wave.  Everything except the ``timing`` block
    is a deterministic function of the cell tuple."""
    fpp, keys, theta, seed = cell
    cell_seed = derive_seed(seed, "lsm-cell", repr(fpp))
    tree = LSMFilterTree(
        memtable_size=max(2048, keys // 128),
        fanout=4,
        levels=4,
        fpp=fpp,
        seed=cell_seed,
    )
    key_salt = derive_seed(cell_seed, "resident-keys")

    started = time.perf_counter()
    for start in range(0, keys, CHUNK):
        end = min(start + CHUNK, keys)
        tree.put_many(array("Q", (
            resident_key(i, key_salt) for i in range(start, end)
        )))
    tree.flush_pending()
    load_seconds = time.perf_counter() - started

    # Get phase: zipf-skewed re-reads of resident keys, all levels
    # probed per get (the worst-case read amplification).
    gets = keys // 2
    ranks = ZipfRanks(theta=theta, seed=derive_seed(cell_seed, "gets"))
    get_maybe = [0] * len(tree.levels)
    phase = time.perf_counter()
    remaining = gets
    while remaining > 0:
        span = min(CHUNK, remaining)
        batch = array("Q", (
            resident_key(r, key_salt) for r in ranks.draw(span, keys)
        ))
        for depth, count in enumerate(tree.get_many(batch)):
            get_maybe[depth] += count
        remaining -= span
    get_seconds = time.perf_counter() - phase

    # Negative probes: every positive is a false positive.
    probes = min(1_000_000, max(20_000, keys // 10))
    phase = time.perf_counter()
    fp_counts = tree.false_positive_counts(probes)
    probe_seconds = time.perf_counter() - phase

    # Delete wave: zipf-skewed purge through the classic delete path.
    deletes = keys // 10
    del_ranks = ZipfRanks(
        theta=theta, seed=derive_seed(cell_seed, "deletes")
    )
    removed = 0
    phase = time.perf_counter()
    remaining = deletes
    while remaining > 0:
        span = min(CHUNK, remaining)
        batch = array("Q", (
            resident_key(r, key_salt)
            for r in del_ranks.draw(span, keys)
        ))
        removed += tree.delete_many(batch)
        remaining -= span
    delete_seconds = time.perf_counter() - phase

    stats = tree.stats()
    levels = len(tree.levels)
    # Filter operations actually executed, for throughput accounting:
    # every put reaches level 0 once, rebuilds re-insert merged runs,
    # and each get/probe/delete key crosses every level's filter.
    filter_ops = (
        stats["puts"] + stats["rebuilt_keys"]
        + (gets + probes + deletes) * levels
    )
    total_seconds = (
        load_seconds + get_seconds + probe_seconds + delete_seconds
    )
    bottom = stats["levels"][-1]
    return {
        "fpp": fpp,
        "keys": keys,
        "theta": theta,
        "gets": gets,
        "probes": probes,
        "deletes": deletes,
        "removed": removed,
        "get_maybe": get_maybe,
        "fp_counts": fp_counts,
        "measured_fpp": [count / probes for count in fp_counts],
        "analytic_fpp": theoretical_false_positive_rate(
            bottom["geometry"]["entries_per_bucket"],
            bottom["geometry"]["fingerprint_bits"],
        ),
        "fingerprint_bits": bottom["geometry"]["fingerprint_bits"],
        "stats": stats,
        "digests": tree.filter_digests(),
        "timing": {
            "load_seconds": load_seconds,
            "get_seconds": get_seconds,
            "probe_seconds": probe_seconds,
            "delete_seconds": delete_seconds,
            "total_seconds": total_seconds,
            "filter_ops": filter_ops,
            "filter_ops_per_sec": filter_ops / total_seconds
            if total_seconds else 0.0,
            "load_keys_per_sec": stats["puts"] / load_seconds
            if load_seconds else 0.0,
        },
    }


def run(
    seed: int = 0,
    full: bool | None = None,
    jobs: int | None = None,
    keys: int | None = None,
    theta: float = DEFAULT_THETA,
    stamp: bool | None = None,
) -> ExperimentResult:
    """Sweep the fpp targets at ``keys`` distinct resident keys each.

    ``keys`` defaults to 200 k per cell (10 M under ``REPRO_FULL``/
    ``full=True``).  ``stamp`` controls the trajectory record: by
    default a record is appended exactly when the sweep is full scale
    (>= 10 M keys per cell).
    """
    if keys is None:
        keys = DEFAULT_FULL_KEYS if is_full_scale(full) else DEFAULT_SCALED_KEYS
    cells = [(fpp, keys, theta, seed) for fpp in FPP_SWEEP]
    results = run_cells(cells, _run_cell, jobs=jobs, label="fig_lsm")

    result = ExperimentResult(
        "lsm",
        "LSM-tree filter workload: from_fpp sizing at storage scale",
    )
    rows = []
    for r in results:
        worst_measured = max(r["measured_fpp"])
        rows.append([
            f"{r['fpp']:g}",
            r["keys"],
            r["fingerprint_bits"],
            r["stats"]["compactions"],
            r["stats"]["levels"][-1]["occupancy"],
            f"{r['analytic_fpp']:.3g}",
            f"{worst_measured:.3g}",
            sum(level["autonomic_deletions"]
                for level in r["stats"]["levels"]),
            r["removed"],
        ])
    result.add_table(
        "fpp sweep (per cell)",
        ["target fpp", "keys", "f bits", "compactions", "bottom load",
         "analytic fpp", "worst measured fpp", "autonomic dels",
         "deleted"],
        rows,
    )
    mid = results[len(results) // 2]
    result.add_table(
        f"per-level detail (target fpp {mid['fpp']:g})",
        ["level", "capacity", "resident", "valid", "occupancy",
         "generation", "measured fpp"],
        [
            [level["depth"], level["capacity"], level["resident_keys"],
             level["valid_count"], level["occupancy"],
             level["generation"],
             f"{mid['measured_fpp'][i]:.3g}"]
            for i, level in enumerate(mid["stats"]["levels"])
        ],
    )
    result.add_note(
        f"zipf theta {theta}; gets/cell {keys // 2}, deletes/cell "
        f"{keys // 10} (filter-purge semantics, tombstone-free)"
    )
    result.add_note("fpp=1e-4 derives f=17 fingerprints, the widest cell")
    # Wall-clock throughput, the one engine- and host-dependent line.
    result.add_note(
        f"throughput (engine {effective_engine()}, filter ops/s): "
        + ", ".join(
            f"fpp={r['fpp']:g} {round(r['timing']['filter_ops_per_sec'])}"
            for r in results
        )
    )
    result.data["cells"] = results
    if stamp is None:
        stamp = keys >= DEFAULT_FULL_KEYS
    if stamp:
        path = _stamp_trajectory(results, keys)
        if path is not None:
            result.add_note(f"trajectory record appended to {path}")
    return result


def _stamp_trajectory(results, keys) -> str | None:
    """Append the sweep's throughput record to BENCH_trajectory.json
    (same shape as run_perf.sh entries: git SHA, machine, effective
    engine).  Quietly skips when the benchmarks tree is absent (e.g.
    an installed package outside the repo)."""
    root = Path(__file__).resolve().parents[3]
    results_dir = root / "benchmarks" / "results"
    if not results_dir.is_dir():
        return None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if dirty:
            sha += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    entry = {
        "machine": os.uname().nodename,
        "datetime": datetime.now(timezone.utc).isoformat(),
        "commit": sha,
        "engine": effective_engine(),
        "lsm": {
            "keys_per_cell": keys,
            "cells": {
                f"fpp={r['fpp']:g}": {
                    "fingerprint_bits": r["fingerprint_bits"],
                    "filter_ops": r["timing"]["filter_ops"],
                    "filter_ops_per_sec": round(
                        r["timing"]["filter_ops_per_sec"], 1
                    ),
                    "load_keys_per_sec": round(
                        r["timing"]["load_keys_per_sec"], 1
                    ),
                    "worst_measured_fpp": max(r["measured_fpp"]),
                }
                for r in results
            },
        },
    }
    trajectory = results_dir / "BENCH_trajectory.json"
    history = []
    if trajectory.exists():
        history = json.loads(trajectory.read_text())
    history.append(entry)
    tmp = trajectory.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, trajectory)
    return str(trajectory.relative_to(root))


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
