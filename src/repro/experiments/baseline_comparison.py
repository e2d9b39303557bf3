"""§VIII extension — PiPoMonitor against the prior-work defenses.

Three comparisons the related-work section argues qualitatively,
measured here:

* **storage**: Auto-Cuckoo filter vs the full-tag stateful recorder;
* **reverse-attack cost**: crafted fills to evict a chosen record —
  linear (``ways``) for the deterministic table, b**(MNK+1)-class for
  the Auto-Cuckoo filter;
* **benign false positives**: prefetches per million instructions on a
  Table III mix under PiPoMonitor, the table recorder, and stateless
  BITP (which fires on every back-invalidation).
"""

from __future__ import annotations

from repro.attacks.filter_attacks import analytic_eviction_set_size
from repro.baselines.table_recorder import TableRecorder, table_eviction_attack
from repro.core.config import TABLE_II_FILTER
from repro.cpu.system import run_workloads
from repro.experiments.common import (
    ExperimentResult,
    instructions_per_core,
    is_full_scale,
    scaled_mix_workloads,
    scaled_system_config,
)
from repro.experiments.parallel import run_cells
from repro.utils.events import EventQueue

DEFAULT_MIX = "mix1"


def _run_benign_cell(cell):
    """One benign-mix simulation per scheme (module-level so the
    parallel runner can fan the four schemes out across processes).

    table/bitp come from the defence registry (table sized to the
    filter's reach, BITP's short delay — the same configurations fig9
    and the conformance harness run against)."""
    scheme, mix, full, instructions, seed = cell
    outcome = run_workloads(
        scaled_system_config(full), scaled_mix_workloads(mix, full),
        instructions, seed=seed,
        defence="none" if scheme == "base" else scheme,
    )
    stats = outcome.monitor_stats
    fp = None if stats is None else (
        stats.false_positives_per_million_instructions(
            outcome.total_instructions
        )
    )
    return scheme, outcome.mean_time, fp


def run(
    seed: int = 0,
    full: bool | None = None,
    mix: str = DEFAULT_MIX,
    instructions: int | None = None,
    jobs: int | None = None,
) -> ExperimentResult:
    if instructions is None:
        instructions = instructions_per_core(full)
    full = is_full_scale(full)
    result = ExperimentResult(
        "ablate-baselines", "PiPoMonitor vs table recorder vs BITP"
    )

    # --- storage ---
    recorder = TableRecorder(EventQueue(), num_sets=1024, ways=8)
    filter_kib = TABLE_II_FILTER.geometry.storage_kib
    recorder_kib = recorder.storage_bits() / 8 / 1024
    result.add_table(
        "recording-structure storage (8192 tracked lines)",
        ["scheme", "KiB", "relative"],
        [
            ["Auto-Cuckoo filter (PiPoMonitor)", round(filter_kib, 1), 1.0],
            ["full-tag table (prior stateful)", round(recorder_kib, 1),
             round(recorder_kib / filter_kib, 2)],
            ["BITP (stateless)", 0.0, 0.0],
        ],
    )

    # --- reverse-attack cost ---
    attack_recorder = TableRecorder(EventQueue(), num_sets=1024, ways=8)
    target = 0xDEAD00
    attack_recorder.on_access(target, 0)
    table_fills = table_eviction_attack(attack_recorder, target)
    result.add_table(
        "crafted fills to evict a chosen record",
        ["scheme", "fills", "deterministic?"],
        [
            ["full-tag table", table_fills, "yes (LRU set)"],
            ["Auto-Cuckoo filter (MNK=4, b=8)",
             f">= {analytic_eviction_set_size(8, 4)} set size",
             "no (random kick walk)"],
        ],
    )

    # --- benign behaviour on a mix (independent cells, fanned out) ---
    cells = [
        (scheme, mix, full, instructions, seed)
        for scheme in ("base", "pipo", "table", "bitp")
    ]
    outcomes = {
        scheme: (mean_time, fp)
        for scheme, mean_time, fp in run_cells(
            cells, _run_benign_cell, jobs=jobs, label="baselines"
        )
    }
    base_time = outcomes["base"][0]
    pipo_time, pipo_fp = outcomes["pipo"]
    table_time, table_fp = outcomes["table"]
    bitp_time, bitp_fp = outcomes["bitp"]
    pipo_norm = base_time / pipo_time
    table_norm = base_time / table_time
    bitp_norm = base_time / bitp_time

    result.add_table(
        f"benign run on {mix} ({instructions:,} insns/core)",
        ["scheme", "prefetches/Minsn", "normalized perf"],
        [
            ["PiPoMonitor", round(pipo_fp, 1), round(pipo_norm, 5)],
            ["full-tag table recorder", round(table_fp, 1),
             round(table_norm, 5)],
            ["BITP (stateless)", round(bitp_fp, 1), round(bitp_norm, 5)],
        ],
    )
    result.add_note(
        "BITP prefetches every back-invalidated line, so its benign "
        "prefetch rate dwarfs the stateful schemes' (the paper's "
        "false-positive argument against stateless detection)"
    )
    result.data["fp"] = {"pipo": pipo_fp, "table": table_fp, "bitp": bitp_fp}
    return result


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
