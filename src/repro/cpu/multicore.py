"""Multicore scheduler: advance the earliest core first.

Shared structures (LLC, filter, memory channel) therefore observe
memory operations in global timestamp order, and scheduled events
(PiPoMonitor's delayed prefetches) fire before any operation with a
later timestamp touches the hierarchy — the property the defense
evaluation depends on.

The loop runs in one of two places with identical results.  When the
C cache walk is installed and every core is a fresh core whose source
is a synthetic archetype, the whole loop — record emission included —
runs inside the walk (``CWalkState.run_cores``, PERFORMANCE.md rule
19) and comes back to Python only for due events and monitor
callbacks.  A detection unit does not change that: alarms reach it
through monitor callbacks, its responses through the event queue, and
the one core state a response changes mid-run, the throttle penalty,
is copied into C before every re-entry.  Every other system — one with
an attacker or a scripted core, cores bound without a source
(``REPRO_BATCH=0``), the ``python`` engine — runs the Python loop
below.  The cache configuration never decides it: every hierarchy
takes the C walk.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass, field

from repro.cache.hierarchy import AccessStats, CacheHierarchy
from repro.cpu.core import Core
from repro.utils.events import EventQueue


@dataclass
class SimulationResult:
    """Outcome of one multicore run."""

    core_times: list[int]
    core_instructions: list[int]
    core_memory_ops: list[int]
    stats: AccessStats
    monitor_stats: object | None = None
    extra: dict = field(default_factory=dict)

    @property
    def mean_time(self) -> float:
        """Average per-core completion time — the 'overall execution
        time' the paper compares (Section VII-A)."""
        return sum(self.core_times) / len(self.core_times)

    @property
    def max_time(self) -> int:
        return max(self.core_times)

    @property
    def total_instructions(self) -> int:
        return sum(self.core_instructions)


class MulticoreSystem:
    """Cores + hierarchy + event queue, run to an instruction budget."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        cores: list[Core],
        events: EventQueue | None = None,
        detection=None,
    ):
        if not cores:
            raise ValueError("at least one core required")
        self.hierarchy = hierarchy
        self.cores = cores
        self.events = events if events is not None else EventQueue()
        #: Optional online :class:`repro.detection.DetectionUnit`.
        #: The scheduler itself never consults it (alarms reach it
        #: through the bus, responses through the event queue); it is
        #: held here so the run's result carries its report.
        self.detection = detection

    def run(self, max_instructions_per_core: int | None = None) -> SimulationResult:
        """Run every core until its workload ends or it retires the
        instruction budget; then drain remaining events."""
        if max_instructions_per_core is not None and max_instructions_per_core <= 0:
            raise ValueError("instruction budget must be positive")
        # Scheduler keys are single ints, ``time << 8 | core_id`` —
        # identical ordering (time, then core id) to the former tuple
        # keys, but int comparisons and no per-push allocation.
        if len(self.cores) > 256:
            raise ValueError("scheduler supports at most 256 cores")
        # Both loops allocate only acyclic objects (record tuples,
        # ints) that reference counting frees immediately, so the
        # cyclic collector's periodic gen-0 sweeps are pure overhead
        # here — pause it for the duration of the run.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            completion = None
            walk = self.hierarchy._c_state
            if walk is not None and max_instructions_per_core is not None:
                completion = walk.run_cores(
                    self.cores, max_instructions_per_core, self.events
                )
            if completion is None:
                completion = self._run_python(max_instructions_per_core)
            # Late events (e.g. prefetches scheduled near the end).
            while (next_time := self.events.next_time()) is not None:
                self.events.run_until(next_time)
        finally:
            if gc_was_enabled:
                gc.enable()
        # Under the C cache walk, the Python-side counters (AccessStats,
        # per-cache and monitor/filter counters) are stale until a
        # batch sync; resync here so the result below reads consistent
        # state.  The sync copies counters only: the cache line dicts,
        # _memory_versions and the LLC MT states are refreshed by the
        # first introspection call that reads them, which a tenant
        # never makes.
        self.hierarchy.engine_sync()
        monitor = self.hierarchy.monitor
        result = SimulationResult(
            core_times=completion,
            core_instructions=[c.instructions for c in self.cores],
            core_memory_ops=[c.memory_ops for c in self.cores],
            stats=self.hierarchy.stats,
            monitor_stats=getattr(monitor, "stats", None),
        )
        if self.detection is not None:
            result.extra["detection"] = self.detection.report()
        return result

    def _run_python(self, max_instructions_per_core: int | None) -> list[int]:
        """The earliest-core-first loop in Python; returns each core's
        completion time."""
        heap: list[int] = []
        for core in self.cores:
            if core.advance():
                heapq.heappush(heap, core.time << 8 | core.core_id)
        completion = {core.core_id: core.time for core in self.cores}
        # Hot loop: one iteration per memory operation across all
        # cores.  Locals for everything touched every iteration; the
        # event-queue drain is skipped outright while no events are
        # scheduled (the monitor-less baseline never schedules any);
        # ``heapreplace`` re-queues a stepped core with one sift
        # instead of a pop + push pair.
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        cores = self.cores
        events = self.events
        run_until = events.run_until
        # The heap list object itself is stable (EventQueue only ever
        # mutates it in place), so one binding outlives the loop.
        event_heap = events._heap
        budget = (
            max_instructions_per_core
            if max_instructions_per_core is not None
            else float("inf")
        )
        while heap:
            key = heap[0]
            cid = key & 255
            core = cores[cid]
            # Fire every event due at or before this operation.
            if event_heap:
                run_until(key >> 8)
            if core.step(budget):
                heapreplace(heap, core.time << 8 | cid)
            else:
                heappop(heap)
                completion[cid] = core.time
        return [completion[core.core_id] for core in self.cores]
