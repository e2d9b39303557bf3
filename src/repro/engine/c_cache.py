"""Install and sync for the C cache walk (the ``c`` engine's second
half).

:mod:`repro.engine._walk_src` holds the C source,
:mod:`repro.engine.c_backend` builds it; this module mirrors a
hierarchy's storage into C-owned arrays and syncs the mirror back.

Storage-mirror contract (PERFORMANCE.md design rule 16)
-------------------------------------------------------
Installation is **one-way**: :func:`install` copies the current
packed-word state — every ``_map``/``_sets`` dict, per-cache and
AccessStats counters, the memory-controller channel clock,
``_memory_versions``, and the LLC policies' Mersenne-Twister states —
into flat C arrays, and from then on the C side is authoritative.
The Python objects become a *mirror* that is refreshed only at batch
boundaries, in two steps:

* :meth:`CWalkState.sync` (reached through
  ``CacheHierarchy.engine_sync``, which ``MulticoreSystem.run`` calls
  after every run) copies the counters — per-cache stamp and counters,
  ``AccessStats``, the controller state, the monitor/filter counters
  and the counter export to the trace recorder — and marks the rest
  of the mirror stale;
* :meth:`CWalkState.sync_lines` refreshes that rest, only when stale,
  on the first read: every ``_map``/``_sets`` dict and
  ``_memory_versions`` **in place** (object identity preserved, so
  held references stay valid), and the LLC policies' MT states.  The
  line readers of ``SetAssociativeCache`` call it through
  ``_c_sync``, and ``read_version``/``holders_of``/``check_invariants``
  directly; under the C walk they are the only readers of that state.

A run whose caller reads only counters (a campaign tenant) never
pays for the per-line rebuild, the memory-version copy or the MT
readback.  Sync is a snapshot refresh, never a hand-back: mutating
the Python dicts afterwards does not reach the C arrays, which is why
every mutator of an installed hierarchy routes into C, and the
object-level mutators of ``SetAssociativeCache``
(``insert``/``remove``/``touch``/``probe``) raise ``RuntimeError``
instead of writing the mirror.  Introspection hands out detached
``CacheLine`` snapshots, so nothing can write through them either.

Every hierarchy takes the walk: the C port covers each configuration
the hierarchy can be built in (private LRU levels, one geometry per
level, an LLC of ``lru``, ``lru_rand`` with any pool size, or
``random``, any number of ways and slices, the flat-latency memory
controller).  :func:`install` fails only when the extension cannot be
built, so there is no per-configuration fallback.

Monitor side effects stay in Python.  The walk classifies the attached
monitor once at install time:

* **kind 0** — no monitor: the walk never leaves C;
* **kind 1** — PiPoMonitor over an Auto-Cuckoo filter that was built
  into C (any non-instrumented filter of any fingerprint width built
  under ``c``: filters bind their engine at build, and the walk
  installs none), with ``needs_all_evictions`` False: the Query/insert
  runs inline in C against the *shared* ``acf_state`` (same struct the
  filter's own C kernel uses), and Python is called back only for
  captures that must publish alarms or record captured lines, and for
  tagged evictions (the pEvict/prefetch tail, handed a ``CacheLine``
  snapshot it only reads);
* **kind 2** — any other monitor: ``on_access``/``on_llc_eviction``
  come back through callbacks per event (bit-exact, slower).

Callbacks only schedule events (alarm subscribers and response
policies go through the event queue — pinned by the conformance
suite), so they never re-enter the walk synchronously.

:meth:`CWalkState.run_cores` runs a whole ``MulticoreSystem.run`` of
synthetic streams inside the walk (PERFORMANCE.md rule 19), detection
unit or not, with every stream's MT state seeded in C
(``cw_mt_seed``, from the seed ``emitter_state`` hands over) and each
pointer chase's chain built in C (``cw_chain``); the event queue stays
in Python, which is why the C loop comes back after every step that
made a callback.
"""

from __future__ import annotations

import dataclasses
import weakref
from array import array

from repro.cache.coherence import CoherenceViolation
from repro.cache.hierarchy import AccessStats
from repro.cache.line import CacheLine
from repro.engine import c_backend
from repro.obs.trace import current_recorder

#: Aggregate counters the C walk exports to the trace recorder attached
#: at install time — read off the ``cw_hier`` struct as deltas at each
#: sync (PERFORMANCE.md rules 16-18), never per event.
_COUNTER_EXPORTS = (
    "engine.llc_fills",
    "engine.llc_evictions",
    "engine.monitor_probes",
    "engine.captures",
    "engine.kick_steps",
)

_U64 = (1 << 64) - 1
_EMPTY = 0xFFFFFFFFFFFFFFFF
_I64_MAX = (1 << 63) - 1

#: ``cw_schedule`` return codes (2, "a step made a callback", needs
#: no action beyond re-reading the event queue).
_SCHED_DONE = 0
_SCHED_EVENT = 1
_SCHED_ERROR = 3

#: One-shot ``@ffi.def_extern`` registration (process-wide, like the
#: extension itself).
_REGISTERED = False


def _register_callbacks(ffi) -> None:
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True

    @ffi.def_extern()
    def cw_cb_access(ctx, line_addr, now):
        state = ffi.from_handle(ctx)
        try:
            return 1 if state.monitor.on_access(line_addr, now) else 0
        except BaseException as exc:  # noqa: BLE001 — crosses the C boundary
            state.exc = exc
            return -1

    @ffi.def_extern()
    def cw_cb_capture(ctx, line_addr, now):
        state = ffi.from_handle(ctx)
        try:
            monitor = state.monitor
            captured = monitor.captured_lines
            if captured is not None:
                captured.add(line_addr)
            alarms = monitor.alarms
            if alarms is not None:
                # ALARM_CAPTURE — same tuple the Python engines publish.
                alarms.publish(0, now, line_addr, -1, 0)
            return 0
        except BaseException as exc:  # noqa: BLE001
            state.exc = exc
            return -1

    @ffi.def_extern()
    def cw_cb_evict(ctx, vaddr, vword, vstamp, now):
        state = ffi.from_handle(ctx)
        try:
            state.monitor.on_llc_eviction(CacheLine(vaddr, vword, vstamp), now)
            return 0
        except BaseException as exc:  # noqa: BLE001
            state.exc = exc
            return -1


def install(h) -> bool:
    """Route the full cache walk of ``h`` through C.

    Returns False — leaving the hierarchy untouched — only when the
    extension cannot be built.  Idempotent (True when already
    installed).
    """
    if h._c_state is not None:
        return True
    pair = c_backend._load_lib()
    if pair is None:
        return False
    ffi, lib = pair
    _register_callbacks(ffi)
    state = CWalkState(ffi, lib, h)
    h._c_state = state
    for cobj in state.cache_objs:
        cobj._c_sync = state.sync_lines
    return True


class CWalkState:
    """Owner of one hierarchy's C-side arrays and the sync machinery.

    Keeps every cffi buffer alive for the lifetime of the install; the
    C-malloc'd ``_memory_versions`` map is released by a finalizer.
    """

    def __init__(self, ffi, lib, h):
        self.ffi = ffi
        self.lib = lib
        self.hier = h
        #: True when C state may be ahead of the Python scalars.
        self.dirty = False
        #: True when the line dicts, ``_memory_versions`` and the LLC
        #: MT states lag the C side: :meth:`sync` leaves them to the
        #: first reader (:meth:`sync_lines`).
        self.mirror_stale = False
        #: Exception raised inside a callback, re-raised by the wrapper.
        self.exc = None

        monitor = h.monitor
        self.monitor = monitor
        # The counter export follows the alarm-bus contract: the
        # recorder attached *now* (install time) is the one this walk
        # exports to, its identity joins the install key, and
        # attaching a different recorder under a live C state is
        # refused by ``hierarchy_access``.
        self.recorder = current_recorder()
        self.monitor_key = (
            id(monitor),
            id(getattr(monitor, "alarms", None)),
            id(self.recorder),
        )
        kind, capture_cb, thresh, flt = self._classify(monitor)
        self.flt = flt
        # Keep the shared filter state (and its buffers) alive even if
        # the filter object is later released by the monitor.
        self._flt_state = flt._c_state if flt is not None else None

        C = h.num_cores
        slices = h.llc.slices
        S = len(slices)
        cache_objs = [*h.l1d, *h.l1i, *h.l2, *slices]
        self.cache_objs = cache_objs

        st = ffi.new("cw_hier *")
        bufs = []
        carr = ffi.new("cw_cache[]", len(cache_objs))
        bufs.append(carr)
        for i, cobj in enumerate(cache_objs):
            ways = cobj.ways
            nsets = cobj._set_mask + 1
            n = nsets * ways
            tags = ffi.new("uint64_t[]", n)
            ffi.buffer(tags)[:] = b"\xff" * (n * 8)
            words = ffi.new("uint64_t[]", n)
            stamps = ffi.new("uint64_t[]", n)
            # Born zeroed: only an occupied set needs a store, and a
            # fresh cache (empty ``_map``) none at all.
            counts = ffi.new("uint16_t[]", nsets)
            cmap = cobj._map
            if cmap:
                for si, sdict in enumerate(cobj._sets):
                    if not sdict:
                        continue
                    base = si * ways
                    counts[si] = len(sdict)
                    w = 0
                    # Slot order mirrors dict insertion order; victim
                    # selection only reads stamps (unique per cache),
                    # so the packing order is unobservable.
                    for laddr, stamp in sdict.items():
                        tags[base + w] = laddr
                        words[base + w] = cmap[laddr]
                        stamps[base + w] = stamp
                        w += 1
            cc = carr[i]
            cc.tags = tags
            cc.words = words
            cc.stamps = stamps
            cc.counts = counts
            cc.stamp = cobj._stamp
            cc.hits = cobj.hits
            cc.misses = cobj.misses
            cc.evictions = cobj.evictions
            cc.set_mask = cobj._set_mask
            cc.ways = ways
            bufs += [tags, words, stamps, counts]
        st.caches = carr

        st.num_cores = C
        st.num_slices = S
        st.line_bits = h._line_bits
        st.l1_lat = h.l1_latency
        st.l2_lat = h.l2_latency
        st.llc_lat = h.llc_latency
        st.dfp = h.dirty_forward_penalty
        st.llc_set_bits = h.llc._set_bits
        # num_slices == 1 keeps Python's shift-by-64 out of C (UB);
        # the C slice index short-circuits to 0 in that case.
        st.llc_slice_shift = h.llc._slice_shift if S > 1 else 0
        slref = slices[0]
        st.llc_touch = 1 if slref._touch_stamps else 0
        if slref._victim_is_min_stamp:
            st.llc_victim_rand = 0
            st.pool_size = 0
            st.rbits = 0
            st.rng = ffi.NULL
        else:
            # lru_rand draws from its pool_size smallest stamps, random
            # (pool_size None) from the whole set; a pool larger than
            # the set clamps to it, as Python's slice does.
            pool = slref.policy.pool_size
            pool = slref.ways if pool is None else min(pool, slref.ways)
            st.llc_victim_rand = 1
            st.pool_size = pool
            st.rbits = pool.bit_length()
            rng = ffi.new("cw_mt[]", S)
            bufs.append(rng)
            for i, sl in enumerate(slices):
                _load_mt(ffi, lib, rng[i], sl.policy._rng.getstate()[1])
            st.rng = rng
        st.write_counter = h._write_counter

        mc = h.mc
        st.channel_free_at = mc._channel_free_at
        st.burst_cycles = mc.burst_cycles
        st.dram_latency = mc.dram_latency
        st.total_queue_wait = mc.total_queue_wait
        st.demand_fetches = mc.demand_fetches
        st.prefetch_fetches = mc.prefetch_fetches
        st.writebacks = mc.writebacks

        stats = h.stats
        for name in _STAT_FIELDS:
            setattr(st, "s_" + name, getattr(stats, name))
        per_core = ffi.new("uint64_t[]", list(stats.per_core_accesses))
        bufs.append(per_core)
        st.per_core = per_core

        st.mon_kind = kind
        st.needs_all = (
            1 if (monitor is not None
                  and getattr(monitor, "needs_all_evictions", True))
            else 0
        )
        st.capture_cb = capture_cb
        st.thresh = thresh
        st.acf = flt._c_state.st if flt is not None else ffi.NULL
        st.m_accesses = 0
        st.m_captures = 0
        self._last_m = 0
        self._last_c = 0

        self._handle = ffi.new_handle(self)
        st.ctx = self._handle
        # cw_hier.memver starts zeroed (cap 0); the first put allocates.
        for key, val in h._memory_versions.items():
            if lib.cw_map_put(st, key & _U64, val & _U64) < 0:
                raise MemoryError("memory-version map allocation failed")

        self.st = st
        self._bufs = bufs
        # The memver arrays are C-malloc'd (they must grow unboundedly
        # over a run); everything else is ffi-owned via _bufs.
        self._finalizer = weakref.finalize(self, lib.cw_hier_free, st)

        # Export baseline: the struct was seeded with the Python
        # counters' current values, and only *deltas* from here on are
        # this walk's contribution.
        self._counters_last = self._counter_values()

        self._build_wrappers()

    # ------------------------------------------------------------------

    @staticmethod
    def _classify(monitor):
        """(mon_kind, capture_cb, thresh, flt) — see module docstring."""
        if monitor is None:
            return 0, 0, 0, None
        if (
            type(monitor).__name__ == "PiPoMonitor"
            and not getattr(monitor, "needs_all_evictions", True)
            and monitor.filter._c_state is not None
        ):
            flt = monitor.filter
            capture_cb = (
                1
                if (monitor.captured_lines is not None
                    or monitor.alarms is not None)
                else 0
            )
            return 1, capture_cb, flt.security_threshold, flt
        return 2, 0, 0, None

    def _build_wrappers(self):
        lib = self.lib
        st = self.st
        c_access = lib.cw_access
        c_flush = lib.cw_clflush
        c_prefetch = lib.cw_prefetch_fill

        def kernel(core, op, addr, now=0, _c=c_access, _st=st, _self=self):
            latency = _c(_st, core, op, addr & _U64, now)
            _self.dirty = True
            if latency < 0:
                _self._raise()
            return latency

        def clflush(core, addr, now=0, _c=c_flush, _st=st, _self=self):
            latency = _c(_st, core, addr & _U64, now)
            _self.dirty = True
            if latency < 0:
                _self._raise()
            return latency

        def prefetch_fill(line_addr, now, tag=True,
                          _c=c_prefetch, _st=st, _self=self):
            r = _c(_st, line_addr & _U64, now, 1 if tag else 0)
            _self.dirty = True
            if r < 0:
                _self._raise()
            return bool(r)

        self.kernel = kernel
        self.clflush = clflush
        self.prefetch_fill = prefetch_fill

    def _counter_values(self) -> tuple[int, int, int, int, int]:
        """Current struct-side values of the exported counters (one
        cheap cffi read each; no C call)."""
        st = self.st
        kicks = (
            st.acf.total_relocations if st.acf != self.ffi.NULL else 0
        )
        return (
            st.s_llc_misses,
            st.s_llc_evictions,
            st.m_accesses,
            st.m_captures,
            kicks,
        )

    def _export_counters(self) -> None:
        """Fold counter deltas since the last export into the
        recorder attached at install time."""
        recorder = self.recorder
        if recorder is None:
            return
        current = self._counter_values()
        for name, now_v, last_v in zip(
            _COUNTER_EXPORTS, current, self._counters_last
        ):
            if now_v != last_v:
                recorder.count(name, now_v - last_v)
        self._counters_last = current

    def run_cores(self, cores, budget: int, events) -> list[int] | None:
        """Run ``MulticoreSystem.run``'s loop for ``cores`` in C
        (PERFORMANCE.md rule 19): ``cw_schedule`` emits every core's
        records and steps the earliest core through the walk until each
        has retired ``budget`` instructions.  Python keeps the event
        queue: C comes back when an event is due at the next core's
        time (run here with ``run_until``, as the Python loop does) and
        after a step that made a monitor callback (it may have
        scheduled one).  Each core's throttle penalty
        (``Core.penalty``) is copied in before every entry, since an
        event is the only thing that changes it.

        Returns each core's completion time, with ``time``,
        ``instructions`` and ``memory_ops`` written back to the cores.
        Returns None, touching nothing, unless every core is a fresh
        core with a source whose stream the C emitter reproduces
        (``Core.native_source`` + ``Workload.emitter_state``).
        """
        states = []
        for index, core in enumerate(cores):
            source = core.native_source()
            if source is None or core.core_id != index:
                return None
            workload, seed = source
            state = workload.emitter_state(index, seed)
            if state is None:
                return None
            states.append(state)
        ffi = self.ffi
        carr = ffi.new("cw_core[]", len(cores))
        chains = []
        for c, state in zip(carr, states):
            _load_emitter(ffi, self.lib, c, state, chains)
        sched = ffi.new("cw_sched *")
        sched.cores = carr
        sched.num_cores = len(cores)
        sched.budget = min(budget, _I64_MAX)
        schedule = self.lib.cw_schedule
        st = self.st
        try:
            while True:
                # An event (a throttle response) may have changed a
                # core's penalty since the last entry.
                for core, c in zip(cores, carr):
                    c.penalty = core.penalty
                due = events.next_time()
                sched.event_at = _I64_MAX if due is None else due
                rc = schedule(st, sched)
                self.dirty = True
                if rc == _SCHED_DONE:
                    break
                if rc == _SCHED_EVENT:
                    events.run_until(sched.due)
                elif rc == _SCHED_ERROR:
                    self._raise()
        finally:
            for core, c in zip(cores, carr):
                core.time = c.time
                core.instructions = c.instructions
                core.memory_ops = c.memory_ops
                if c.finished:
                    core.finished = True
        return [c.time for c in carr]

    def _raise(self):
        """Re-raise the exact exception the generic engine would have."""
        st = self.st
        err = st.err
        addr = st.err_addr
        cidx = st.err_cache
        st.err = 0
        st.err_cache = 0
        st.err_addr = 0
        if err == 100:
            exc = self.exc
            self.exc = None
            if exc is not None:
                raise exc
            raise RuntimeError("C walk callback failed without exception")
        if err == 1:
            name = self.cache_objs[cidx].name
            raise ValueError(
                f"{name}: duplicate insert of line {addr:#x}"
            )
        if err == 2:
            raise CoherenceViolation(
                f"inclusion broken: L2 victim {addr:#x} absent from LLC"
            )
        if err == 3:
            raise CoherenceViolation(
                f"inclusion broken: private line {addr:#x} "
                "absent from LLC during upgrade"
            )
        if err == 4:
            raise MemoryError("memory-version map allocation failed")
        if err == 5:
            raise RuntimeError(
                f"prefetched line {addr:#x} vanished mid-fill"
            )
        raise RuntimeError(f"C cache walk failed (err={err})")

    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Copy the C side's counters into the Python objects and mark
        the rest of the mirror stale: the line dicts,
        ``_memory_versions`` and the LLC MT states wait for
        :meth:`sync_lines`.

        Cheap when nothing ran since the last sync.  Read-only from
        the C side's perspective: C stays authoritative afterwards.
        """
        if not self.dirty:
            return
        self.dirty = False
        self.mirror_stale = True
        st = self.st
        carr = st.caches
        for i, cobj in enumerate(self.cache_objs):
            cc = carr[i]
            cobj._stamp = cc.stamp
            cobj.hits = cc.hits
            cobj.misses = cc.misses
            cobj.evictions = cc.evictions
        h = self.hier
        stats = h.stats
        for name in _STAT_FIELDS:
            setattr(stats, name, getattr(st, "s_" + name))
        stats.per_core_accesses[:] = self.ffi.unpack(
            st.per_core, st.num_cores
        )
        h._write_counter = st.write_counter
        mc = h.mc
        mc._channel_free_at = st.channel_free_at
        mc.total_queue_wait = st.total_queue_wait
        mc.demand_fetches = st.demand_fetches
        mc.prefetch_fetches = st.prefetch_fetches
        mc.writebacks = st.writebacks
        if st.mon_kind == 1:
            # Inline-monitor counters: deltas for the additive Python
            # counters (the monitor/filter may also be driven from
            # Python between walks), absolutes for the insert-side
            # scalars mirrored off the shared acf struct.
            monitor = self.monitor
            flt = self.flt
            da = st.m_accesses - self._last_m
            dc = st.m_captures - self._last_c
            self._last_m = st.m_accesses
            self._last_c = st.m_captures
            monitor.stats.accesses += da
            monitor.stats.captures += dc
            flt.total_accesses += da
            acf = st.acf
            flt.valid_count = acf.valid_count
            flt.autonomic_deletions = acf.autonomic_deletions
            flt.total_relocations = acf.total_relocations
            flt._lcg = acf.lcg
        # Kernel runs reach the recorder here: sync is the boundary
        # the introspection paths already pay for.
        self._export_counters()

    def sync_lines(self) -> None:
        """:meth:`sync`, then, when stale, refill every cache's
        ``_map``/``_sets`` (in place), ``_memory_versions`` (in place)
        and the LLC policies' MT states from the C side.  The line
        readers reach it: ``SetAssociativeCache._c_sync`` and the
        hierarchy's ``read_version``/``holders_of``/``check_invariants``.
        """
        self.sync()
        if not self.mirror_stale:
            return
        self.mirror_stale = False
        ffi = self.ffi
        unpack = ffi.unpack
        st = self.st
        h = self.hier
        memver = h._memory_versions
        memver.clear()
        count = st.memver.count
        if count:
            keys = ffi.new("uint64_t[]", count)
            vals = ffi.new("uint64_t[]", count)
            self.lib.cw_map_items(st, keys, vals)
            memver.update(zip(unpack(keys, count), unpack(vals, count)))
        if st.llc_victim_rand:
            for i, sl in enumerate(h.llc.slices):
                rng = st.rng[i]
                sl.policy._rng.setstate(
                    (3, (*unpack(rng.mt, 624), rng.mti), None)
                )
        carr = st.caches
        for i, cobj in enumerate(self.cache_objs):
            cc = carr[i]
            ways = cc.ways
            n = (cc.set_mask + 1) * ways
            tags = unpack(cc.tags, n)
            words = unpack(cc.words, n)
            stamps = unpack(cc.stamps, n)
            cmap = cobj._map
            cmap.clear()
            sets = cobj._sets
            for sdict in sets:
                sdict.clear()
            for j in range(n):
                tag = tags[j]
                if tag == _EMPTY:
                    continue
                cmap[tag] = words[j]
                sets[j // ways][tag] = stamps[j]


def _load_mt(ffi, lib, rng, state: tuple) -> None:
    """Fill the ``cw_mt`` ``rng`` from ``Random.getstate()[1]``: the
    624 words in one copy, then the index, then ``cw_mt_temper``
    tempers the block into ``out`` without twisting it, so the next
    draw reads word ``mti`` as ``Random`` would (a twist here would
    skip the rest of the block and move ``getstate()``)."""
    ffi.memmove(rng.mt, array("I", state), 624 * 4)
    rng.mti = state[624]
    lib.cw_mt_temper(ffi.addressof(rng))


def _load_emitter(ffi, lib, c, state: dict, keep: list) -> None:
    """Fill the ``cw_core`` ``c`` from an ``emitter_state`` dict; the
    buffers ``c`` points into are appended to ``keep``.  The stream's
    MT state is seeded in C from ``seed`` (``cw_mt_seed``), and a
    pointer chase's chain is built here, by ``cw_chain`` from an MT
    state seeded with ``chain_seed``."""
    for name, value in state.items():
        if name == "seed":
            lib.cw_mt_seed(ffi.addressof(c, "rng"), value)
        elif name == "chain_seed":
            rng = ffi.new("cw_mt *")
            lib.cw_mt_seed(rng, value)
            n = state["num_lines"]
            chain = ffi.new("uint64_t[]", n)
            if lib.cw_chain(rng, n, chain) < 0:
                raise MemoryError("pointer-chase chain allocation failed")
            keep.append(chain)
            c.chain = chain
        else:
            setattr(c, name, value)


def emit_records(workload, core_id: int, seed: int, n: int) -> list[tuple]:
    """The first ``n`` records of the C emitter for ``workload``'s
    stream (the equivalence tests compare them with its generator).
    ``workload.emitter_state`` must accept the stream, and the backend
    must build."""
    ffi, lib = c_backend._load_lib()
    c = ffi.new("cw_core *")
    keep: list = []
    _load_emitter(ffi, lib, c, workload.emitter_state(core_id, seed), keep)
    gaps = ffi.new("int64_t[]", n)
    ops = ffi.new("int32_t[]", n)
    addrs = ffi.new("uint64_t[]", n)
    lib.cw_emit(c, n, gaps, ops, addrs)
    return list(zip(ffi.unpack(gaps, n), ffi.unpack(ops, n),
                    ffi.unpack(addrs, n)))


#: AccessStats counter fields mirrored into ``cw_hier.s_*`` (order
#: matches the struct; ``per_core_accesses`` is the separate array).
_STAT_FIELDS = tuple(
    f.name for f in dataclasses.fields(AccessStats)
    if f.name != "per_core_accesses"
)
