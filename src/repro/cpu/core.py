"""In-order blocking core model.

A core executes a *workload generator*: a Python generator yielding
``(compute_instructions, op, byte_address)`` records and receiving the
latency of its previous memory operation via ``send`` (attack code uses
that feedback to time its probes, exactly like ``rdtsc`` around a load).

Timing model: non-memory instructions retire at CPI = 1; a memory
operation blocks the core for the hierarchy-reported latency.  ``op``
may be ``None`` for a pure-compute record.

The core keeps one memory operation pending so the multicore
scheduler can interleave shared-state mutations in global time order:
:meth:`advance` consumes the next record and adds its compute time, so
``time`` is then the cycle at which the pending operation will reach
the hierarchy; :meth:`step` performs that operation, adds its latency,
and advances to the next record.  Every operation, the L1 read hit
included, goes through the access binding resolved once from
``hierarchy.engine_access()``; the core keeps no view of the cache
arrays, so a ``python``-bound core stays correct when a later
``engine_access()`` installs the C walk (``access`` then routes into
it).

A core bound by :func:`repro.cpu.system.bind_cores` also records its
``source`` — the workload and seed its generator comes from — so
:meth:`repro.cpu.multicore.MulticoreSystem.run` can hand a fresh
core's whole stream to the compiled run loop instead
(:meth:`native_source`, PERFORMANCE.md rule 19); the generator is then
never advanced.
"""

from __future__ import annotations

from repro.cache.hierarchy import CacheHierarchy
from repro.workloads.base import Workload, WorkloadGenerator


class Core:
    """One hardware thread bound to a private L1/L2 stack."""

    __slots__ = (
        "core_id",
        "workload",
        "hierarchy",
        "time",
        "instructions",
        "memory_ops",
        "finished",
        "_pending_op",
        "_pending_addr",
        "_last_latency",
        "_primed",
        "_send",
        "_access",
        "_throttle_base",
        "penalty",
        "source",
    )

    def __init__(
        self,
        core_id: int,
        workload: WorkloadGenerator,
        hierarchy: CacheHierarchy,
        source: tuple[Workload, int] | None = None,
    ):
        self.core_id = core_id
        self.workload = workload
        self.hierarchy = hierarchy
        self.time = 0
        self.instructions = 0
        self.memory_ops = 0
        self.finished = False
        # Pending memory op as two plain slots (op None = no op):
        # packing/unpacking a tuple per record is measurable in the
        # scheduler loop.
        self._pending_op: int | None = None
        self._pending_addr = 0
        self._last_latency = 0
        self._primed = False
        # Bound-method caches for the calls made per scheduler step;
        # the advance/execute loop dominates simulation time.  The
        # access entry point is resolved through the engine seam
        # (REPRO_ENGINE): cores are constructed after the monitor is
        # attached, so the C walk installs with the final monitor
        # configuration.
        self._send = workload.send
        self._access = hierarchy.engine_access()
        #: ``(workload, seed)`` the generator was built from, when the
        #: caller binds it (None: the stream is opaque).
        self.source = source
        # Original access binding while a throttle wrapper is active
        # (None = unthrottled).  Throttling swaps the binding instead
        # of adding a per-op check, so unthrottled cores — the only
        # state outside an active OS response — pay zero.
        self._throttle_base = None
        #: Active throttle penalty in cycles (0 = unthrottled); the
        #: compiled run loop reads it before every re-entry.
        self.penalty = 0

    # ------------------------------------------------------------------
    # OS response hook: throttling
    # ------------------------------------------------------------------

    def throttle(self, penalty: int) -> None:
        """Add ``penalty`` cycles to every operation past the L1 read
        hit (the probes, flushes, and misses an attack consists of).

        A read that comes back at exactly the L1 latency is that hit
        and pays nothing; a read that misses L1 costs at least the L1
        plus L2 latency.  :meth:`step` sends every operation, the L1
        read hit included, through the access binding, so on the
        Python loop this wrapper's latency test is the one place the
        exemption lives, under either engine.

        Re-throttling replaces the previous wrapper (penalties do not
        stack).  Implemented by wrapping the engine access binding, so
        it composes with every engine and never touches the shared
        hierarchy state; the compiled run loop applies ``penalty``
        with the same rule.
        """
        if penalty < 1:
            raise ValueError("penalty must be >= 1")
        if self._throttle_base is None:
            self._throttle_base = self._access
        base = self._throttle_base
        self.penalty = penalty

        def throttled(core, op, addr, now=0, _base=base, _penalty=penalty,
                      _l1=self.hierarchy.l1_latency):
            latency = _base(core, op, addr, now)
            if op == 0 and latency == _l1:
                return latency
            return latency + _penalty

        self._access = throttled

    def unthrottle(self) -> None:
        """Restore the unpenalised access binding (no-op if not
        throttled)."""
        if self._throttle_base is not None:
            self._access = self._throttle_base
            self._throttle_base = None
            self.penalty = 0

    @property
    def throttled(self) -> bool:
        return self._throttle_base is not None

    def native_source(self) -> tuple[Workload, int] | None:
        """``(workload, seed)`` when this core's whole run may move into
        the compiled run loop: a core with a known source that has not
        consumed a record, retired an instruction or finished.  None
        otherwise."""
        if (
            self.source is None
            or self._primed
            or self.time
            or self.instructions
            or self.memory_ops
            or self.finished
        ):
            return None
        return self.source

    def advance(self) -> bool:
        """Consume the next workload record (compute phase).

        Returns False when the workload stream is exhausted, in which
        case the core is marked finished.
        """
        if self.finished:
            return False
        try:
            if self._primed:
                item = self._send(self._last_latency)
            else:
                item = next(self.workload)
                self._primed = True
        except StopIteration:
            self._pending_op = None
            self.finished = True
            return False
        compute, op, addr = item
        if compute < 0:
            raise ValueError("compute instruction count must be >= 0")
        self.time += compute
        self.instructions += compute
        if op is None:
            self._pending_op = None
            self._last_latency = 0
        else:
            self._pending_op = op
            self._pending_addr = addr
        return True

    def step(self, budget: int | float) -> bool:
        """Execute the pending operation, then advance one record.

        The scheduler's per-operation unit of work as a single call
        (the pending access through the engine binding + budget check
        + :meth:`advance`).  ``budget`` is the per-core instruction
        budget (``float('inf')`` for unbounded).  Returns False — with
        the core marked finished — when the budget is exhausted or the
        workload ends.
        """
        op = self._pending_op
        if op is not None:
            latency = self._access(
                self.core_id, op, self._pending_addr, self.time
            )
            self.time += latency
            self.instructions += 1
            self.memory_ops += 1
            self._last_latency = latency
        if self.instructions >= budget:
            self._pending_op = None
            self.finished = True
            return False
        return self.advance()

    def __repr__(self) -> str:
        return (
            f"Core({self.core_id}, t={self.time}, "
            f"insns={self.instructions}, "
            f"{'finished' if self.finished else 'running'})"
        )
