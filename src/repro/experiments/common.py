"""Shared experiment infrastructure: result tables and scale control.

Scale control
-------------
The paper simulates 1 B instructions per core on a 4 MB LLC.  A pure-
Python simulator cannot do that in benchmark time, so the performance
experiments run a *uniformly scaled* system by default: every cache
capacity, every working set, and the filter's bucket count divided by
``PERFORMANCE_SCALE_FACTOR`` (8).  Uniform scaling preserves the ratios
that drive the results (working set : LLC, filter reach : LLC lines),
so regimes — who misses, who ping-pongs, who benefits from prefetch —
are unchanged.

``REPRO_FULL=1`` (or ``run(full=True)``) switches to the paper's exact
Table II geometry; ``REPRO_INSNS`` overrides the instruction budget.

The scaled default budget is 2 M instructions/core (10× the original
200 k): the array-native engine (packed line words, the C-resident
run loop — see PERFORMANCE.md) plus ``REPRO_JOBS`` fan-out brought a
fig8 cell at this budget back into benchmark-suite time, an order of
magnitude closer to the paper's 1 B/core evaluation regime.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.config import (
    CacheLevelConfig,
    FilterConfig,
    SystemConfig,
    TABLE_II,
)
from repro.workloads.mixes import TABLE_III_MIXES
from repro.workloads.spec import BENCHMARK_PROFILES, SpecWorkload

PERFORMANCE_SCALE_FACTOR = 8
DEFAULT_SCALED_INSTRUCTIONS = 2_000_000
DEFAULT_FULL_INSTRUCTIONS = 20_000_000


def is_full_scale(full: bool | None = None) -> bool:
    """Resolve the scale flag: explicit argument beats environment."""
    if full is not None:
        return full
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def instructions_per_core(full: bool | None = None) -> int:
    """Instruction budget per core for performance runs."""
    override = os.environ.get("REPRO_INSNS", "")
    if override:
        return int(override)
    return (
        DEFAULT_FULL_INSTRUCTIONS
        if is_full_scale(full)
        else DEFAULT_SCALED_INSTRUCTIONS
    )


def scaled_system_config(
    full: bool | None = None,
    filter_size: tuple[int, int] | None = None,
    security_threshold: int = 3,
    monitor_enabled: bool = True,
) -> SystemConfig:
    """Table II, optionally divided by the uniform scale factor.

    ``filter_size`` is the paper-scale (l, b) pair; when scaling, l is
    divided by the same factor as the caches.
    """
    factor = 1 if is_full_scale(full) else PERFORMANCE_SCALE_FACTOR
    if filter_size is None:
        filter_size = (TABLE_II.filter.num_buckets,
                       TABLE_II.filter.entries_per_bucket)
    num_buckets, entries = filter_size
    scaled_filter = replace(
        TABLE_II.filter,
        num_buckets=max(2, num_buckets // factor),
        entries_per_bucket=entries,
        security_threshold=security_threshold,
    )
    return replace(
        TABLE_II,
        l1=CacheLevelConfig(TABLE_II.l1.size_bytes // factor,
                            TABLE_II.l1.ways, TABLE_II.l1.latency),
        l2=CacheLevelConfig(TABLE_II.l2.size_bytes // factor,
                            TABLE_II.l2.ways, TABLE_II.l2.latency),
        llc=CacheLevelConfig(TABLE_II.llc.size_bytes // factor,
                             TABLE_II.llc.ways, TABLE_II.llc.latency),
        filter=scaled_filter,
        monitor_enabled=monitor_enabled,
    )


def scaled_mix_workloads(mix_name: str, full: bool | None = None) -> list[SpecWorkload]:
    """Table III mix with working sets scaled alongside the caches.

    The conflict-component stride is set to one slice-set stride of the
    (scaled) LLC so the conflict lines stay congruent.
    """
    factor = 1 if is_full_scale(full) else PERFORMANCE_SCALE_FACTOR
    llc_size = TABLE_II.llc.size_bytes // factor
    sets_per_slice = llc_size // TABLE_II.llc_slices // TABLE_II.llc.ways // 64
    conflict_stride = sets_per_slice * 64
    names = TABLE_III_MIXES[mix_name]
    workloads = []
    for name in names:
        profile = BENCHMARK_PROFILES[name]
        if factor > 1:
            profile = replace(
                profile,
                working_set_bytes=max(64 * 1024,
                                      profile.working_set_bytes // factor),
                hot_bytes=(
                    None if profile.hot_bytes is None
                    else max(8 * 1024, profile.hot_bytes // factor)
                ),
            )
        workloads.append(SpecWorkload(profile, conflict_stride))
    return workloads


@dataclass
class ExperimentResult:
    """A rendered experiment: one or more labelled tables plus notes."""

    experiment_id: str
    title: str
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add_table(self, name: str, headers: list[str], rows: list[list]) -> None:
        self.tables[name] = (headers, rows)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        """Human-readable rendering (fixed-width tables)."""
        blocks = [f"== {self.experiment_id}: {self.title} =="]
        for name, (headers, rows) in self.tables.items():
            blocks.append(f"\n-- {name} --")
            blocks.append(format_table(headers, rows))
        if self.notes:
            blocks.append("")
            blocks.extend(f"note: {note}" for note in self.notes)
        return "\n".join(blocks)


def format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return f"{value:.4f}"
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render rows as an aligned fixed-width table."""
    cells = [[format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    def render(row):
        return "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in cells)
    return "\n".join(lines)
