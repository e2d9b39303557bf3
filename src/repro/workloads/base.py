"""Workload protocol and shared generator helpers.

A workload produces, per core, a generator yielding
``(compute_instructions, op, byte_address)`` records; the core sends
back the latency of each memory operation (attack workloads use it,
benchmark workloads ignore it).

Batch emission
--------------
Workloads that *ignore* the latency feedback declare ``batchable =
True`` and can then be consumed through :meth:`Workload.record_chunks`:
lists of record tuples, one producer suspension per chunk instead of
one generator suspension per record.  The chunked stream is
**record-for-record identical** to the generator (pinned by the
equivalence tests), so the per-core chunked prefetch in
:class:`repro.cpu.core.Core` produces bit-identical simulations.  The
synthetic archetypes go one step further and hand their whole stream
to the compiled run loop (:meth:`Workload.emitter_state`,
PERFORMANCE.md rule 19).

The ``batchable`` gate is :func:`packable`: line-aligned addresses,
every hierarchy opcode including ``OP_FLUSH``, and compute gaps up to
:data:`REC_COMPUTE_MAX`.  The flush *attackers*
(:mod:`repro.attacks.flush_reload`) nevertheless stay ``batchable =
False``: their probes time the returned latencies, the one thing batch
consumption cannot feed back.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Generator, Iterable, Iterator

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


#: Largest compute gap a batchable record may carry (a 14-bit field).
REC_COMPUTE_MAX = (1 << 14) - 1

#: Default records per batch chunk: large enough to amortise the
#: producer call, small enough that short runs stay cheap.
DEFAULT_BATCH_CHUNK = 1024


def packable(records: Iterable[tuple[int, int | None, int]]) -> bool:
    """True when every record fits the batchable record shape: a
    compute gap in ``[0, REC_COMPUTE_MAX]``, and either a hierarchy
    opcode with a line-aligned address or a pure-compute record at
    address 0.

    Pure-compute records only qualify with address 0, so a nonzero
    address (meaningless to the simulator but visible to trace
    capture) never rides a batch path.
    """
    return all(
        0 <= compute <= REC_COMPUTE_MAX
        and (
            (op is None and addr == 0)
            or (op is not None and 0 <= op <= 14 and addr >= 0
                and addr % 64 == 0)
        )
        for compute, op, addr in records
    )


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

    #: True when this workload's generator ignores the latency values
    #: sent back to it — the contract that makes batch consumption
    #: legal.  Attack workloads (which time their probes) must leave
    #: this False.
    batchable: bool = False

    @abstractmethod
    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        """Build this workload's generator for ``core_id``.

        Generators must be infinite or long enough for any experiment;
        the simulator enforces the instruction budget.
        """

    def record_chunks(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[list]:
        """Yield lists of ``(compute, op, byte_address)`` record tuples.

        The concatenated stream is identical to :meth:`generator`'s
        output for the same ``(core_id, seed)``.  This is the form the
        scheduler's chunked per-core prefetch consumes — measured
        faster than both the generator protocol (no frame resume per
        record) and packed ints (no re-boxing per record).

        This default materialises from the generator (correct for any
        ``batchable`` workload, no speedup); stream-native workloads
        override it with a loop that never suspends per record.

        Only valid when ``batchable`` is True — the generator is fed a
        constant 0 latency, which a feedback-driven workload would
        misread.
        """
        if not self.batchable:
            raise ValueError(
                f"{self.name}: not batchable (generator consumes latency "
                "feedback)"
            )
        gen = self.generator(core_id, seed)
        out = []
        append = out.append
        try:
            item = next(gen)
            while True:
                append(item)
                if len(out) == chunk:
                    yield out
                    out = []
                    append = out.append
                item = gen.send(0)
        except StopIteration:
            pass
        if out:
            yield out

    def emitter_state(self, core_id: int, seed: int) -> dict | None:
        """This stream as the compiled run loop's emitter fields, or
        None when the C port does not reproduce it (the default: only
        the synthetic archetypes are ported)."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ScriptedWorkload(Workload):
    """Replays an explicit list of records — used by tests and by the
    trace tools.

    Scripted streams never react to latency, so they are batchable
    whenever every record is :func:`packable` (line-aligned addresses,
    compute gaps under 2**14).
    """

    def __init__(self, records: Iterable[tuple[int, int | None, int]],
                 name: str = "scripted"):
        self.records = list(records)
        self.name = name
        # Batch emission replays ``self.records`` — only legal when
        # the generator is the stock replay (a subclass overriding
        # ``generator`` streams something else entirely) and every
        # record is packable.
        self.batchable = (
            type(self).generator is ScriptedWorkload.generator
            and packable(self.records)
        )

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        for record in self.records:
            yield record

    def record_chunks(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[list]:
        if not self.batchable:
            raise ValueError(
                f"{self.name}: records are not packable"
            )
        records = self.records
        for start in range(0, len(records), chunk):
            yield records[start:start + chunk]
