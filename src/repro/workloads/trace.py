"""Trace capture and replay.

Materialises a workload generator into a list of records (standalone,
feeding back a constant latency), and round-trips traces through CSV so
experiments can be inspected or replayed deterministically.

Two replay forms:

* :func:`scripted_from_trace` + a :class:`repro.cpu.core.Core` — the
  cycle-accurate form (compute gaps advance time, latencies feed back).
* :func:`replay_trace` — the order-insensitive form: the records go
  straight through the hierarchy's engine kernel
  (``CacheHierarchy.engine_access``), which is the right tool for
  warming hierarchies and cache-state studies where only the
  *sequence* of operations matters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from repro.cache.hierarchy import (
    OP_FLUSH,
    OP_IFETCH,
    OP_READ,
    OP_WRITE,
    CacheHierarchy,
)
from repro.workloads.base import ScriptedWorkload, Workload

_OP_NAMES = {OP_READ: "R", OP_WRITE: "W", OP_IFETCH: "I", OP_FLUSH: "F",
             None: "-"}
_OP_VALUES = {name: op for op, name in _OP_NAMES.items()}


@dataclass(frozen=True)
class TraceRecord:
    """One workload record in materialised form."""

    compute: int
    op: int | None
    address: int

    def as_tuple(self) -> tuple[int, int | None, int]:
        return self.compute, self.op, self.address


def record_trace(
    workload: Workload,
    core_id: int = 0,
    seed: int = 0,
    max_ops: int = 1000,
    fed_latency: int = 100,
) -> list[TraceRecord]:
    """Run a workload generator standalone and capture its records.

    ``fed_latency`` is sent back for every memory operation (workloads
    that branch on observed latency — the attacker — will follow the
    path that latency implies).
    """
    if max_ops < 1:
        raise ValueError("max_ops must be >= 1")
    generator = workload.generator(core_id, seed)
    records: list[TraceRecord] = []
    try:
        item = next(generator)
        while True:
            compute, op, addr = item
            records.append(TraceRecord(compute, op, addr))
            if len(records) >= max_ops:
                break
            item = generator.send(fed_latency if op is not None else 0)
    except StopIteration:
        pass
    return records


def write_trace_csv(records: list[TraceRecord], path: str | Path) -> None:
    """Write records as ``compute,op,address`` CSV rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["compute", "op", "address"])
        for record in records:
            writer.writerow(
                [record.compute, _OP_NAMES[record.op], f"{record.address:#x}"]
            )


def read_trace_csv(path: str | Path) -> list[TraceRecord]:
    """Read records written by :func:`write_trace_csv`."""
    records: list[TraceRecord] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["compute", "op", "address"]:
            raise ValueError(f"unrecognised trace header: {header}")
        for row in reader:
            compute, op_name, addr = row
            if op_name not in _OP_VALUES:
                raise ValueError(
                    f"{path}: line {reader.line_num}: unknown op "
                    f"{op_name!r} (expected one of {', '.join(_OP_VALUES)})"
                )
            records.append(
                TraceRecord(int(compute), _OP_VALUES[op_name], int(addr, 16))
            )
    return records


def scripted_from_trace(records: list[TraceRecord], name: str = "trace") -> ScriptedWorkload:
    """Wrap a materialised trace back into a replayable workload."""
    return ScriptedWorkload([r.as_tuple() for r in records], name=name)


def replay_trace(
    hierarchy: CacheHierarchy,
    records: list[TraceRecord],
    core_id: int = 0,
) -> list[int]:
    """Replay a trace's memory operations through the hierarchy's
    engine kernel; returns the per-operation latencies.

    Order-insensitive: compute gaps are skipped and every operation
    runs at ``now=0``, so the cache/filter state ends identical to
    calling :meth:`CacheHierarchy.access` per operation — use the
    scripted-workload path when the timeline itself matters.
    """
    access = hierarchy.engine_access()
    return [
        access(core_id, r.op, r.address, 0)
        for r in records
        if r.op is not None
    ]
