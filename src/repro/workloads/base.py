"""Workload protocol and shared generator helpers.

A workload produces, per core, a generator yielding
``(compute_instructions, op, byte_address)`` records; the core sends
back the latency of each memory operation (attack workloads use it,
benchmark workloads ignore it).

Streams that ignore the feedback may also run inside the compiled run
loop: :meth:`Workload.emitter_state` describes such a stream as the C
emitter's fields, and a core that carries its ``(workload, seed)``
source hands the whole stream over (PERFORMANCE.md rule 19).  Only the
synthetic archetypes are ported; the equivalence tests pin the C
stream to the generator record for record.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Generator, Iterable

#: yields (compute_instructions, op_or_None, byte_address); receives
#: the memory operation's latency.  Defined here (a leaf module) so
#: both the CPU package and the workload implementations can share it
#: without an import cycle.
WorkloadGenerator = Generator[tuple[int, int | None, int], int, None]

#: Disjoint per-core address regions: data at (core+1)·1 TiB, code 64 GiB
#: above it.  Benchmarks in a mix therefore never share lines, like
#: separate processes with distinct physical pages.
_CORE_REGION_BYTES = 1 << 40
_CODE_OFFSET_BYTES = 1 << 36


def core_data_base(core_id: int) -> int:
    """Base byte address of a core's private data region."""
    if core_id < 0:
        raise ValueError("core_id must be non-negative")
    return (core_id + 1) * _CORE_REGION_BYTES


def core_code_base(core_id: int) -> int:
    """Base byte address of a core's private code region."""
    return core_data_base(core_id) + _CODE_OFFSET_BYTES


def compute_gap(mem_fraction: float, rng: random.Random) -> int:
    """Number of compute instructions between memory operations.

    Chosen so memory operations make up ``mem_fraction`` of retired
    instructions on average: the gap dithers between ``floor`` and
    ``ceil`` of ``1/mem_fraction - 1``.
    """
    if not 0.0 < mem_fraction <= 1.0:
        raise ValueError("mem_fraction must be in (0, 1]")
    gap = 1.0 / mem_fraction - 1.0
    base = int(gap)
    return base + (1 if rng.random() < gap - base else 0)


class Workload(ABC):
    """A per-core instruction/memory stream factory."""

    name: str = "workload"

    @abstractmethod
    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        """Build this workload's generator for ``core_id``.

        Generators must be infinite or long enough for any experiment;
        the simulator enforces the instruction budget.
        """

    def emitter_state(self, core_id: int, seed: int) -> dict | None:
        """This stream as the compiled run loop's emitter fields, or
        None when the C port does not reproduce it (the default: only
        the synthetic archetypes are ported)."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ScriptedWorkload(Workload):
    """Replays an explicit list of records — used by tests and by the
    trace tools."""

    def __init__(self, records: Iterable[tuple[int, int | None, int]],
                 name: str = "scripted"):
        self.records = list(records)
        self.name = name

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        for record in self.records:
            yield record
