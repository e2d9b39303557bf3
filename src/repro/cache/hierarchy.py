"""The quad-core inclusive cache hierarchy (Table II).

Structure per core: private L1I + L1D (64 KB, 4-way, 2 cycles) and a
private L2 (256 KB, 8-way, 18 cycles), both inclusive; a shared sliced
LLC (4 MB, 16-way, 35 cycles) inclusive of everything; DRAM behind a
memory controller (200 cycles).  Coherence is MESI with the directory
embedded in the LLC (the ``sharers`` bit-field of the packed line
word).

An access walks down the levels; the returned latency is the sum of the
lookup latencies of every level visited plus memory time, mirroring a
blocking in-order load.  All *policy* decisions of the hierarchy —
inclusion victims (back-invalidation), dirty forwarding, upgrades,
writebacks — happen here, in one place, so they can be tested directly.

Per-line state is **array-native**: every resident line is a packed
int in its array's flat ``_map`` (see :mod:`repro.cache.line` for the
bit layout) plus a stamp int in its per-set dict, and this module
mutates those words in place.  Fills, evictions, and coherence actions
therefore allocate no objects; :class:`~repro.cache.line.CacheLine`
snapshots are materialised only at the monitor boundary (eviction
hooks) and on introspection APIs, and nothing is read back from them.

This is the reference walk, with one body per operation: every fill
goes through ``SetAssociativeCache._fill``, every hit's recency update
through ``touch``, every LLC slice through ``SlicedLLC.slice_for``,
and every line that leaves the LLC — a capacity victim or a
``clflush`` — through one hook → scrub → writeback body
(:meth:`CacheHierarchy._handle_llc_eviction`).  The C engine
(:mod:`repro.engine._walk_src`) ports each of these bodies to one C
function, as the twin table there pairs them; every hierarchy takes it
under ``c``, and it must stay bit-identical to this one.

PiPoMonitor (or any baseline defense) plugs in as ``monitor`` with two
hooks:

* ``on_access(line_addr, now) -> bool`` — called for every *demand*
  fetch that reaches memory; the return value tags the filled LLC line
  as Ping-Pong (the paper's capture path).
* ``on_llc_eviction(line, now)``       — called with a snapshot of the
  victim when a tagged line is evicted from the LLC (the paper's
  pEvict message; the monitor only reads it).  Monitors that only
  react to tagged lines declare ``needs_all_evictions = False`` and
  the hierarchy then skips materialising untagged victims — the
  common case on the miss path.

The monitor prefetches by calling :meth:`CacheHierarchy.prefetch_fill`.

Flush-induced invalidations (:meth:`CacheHierarchy.clflush`, the
Flush+Reload / Flush+Flush attack primitive) raise the same eviction
hook with the same gating, so every defense observes a flushed tagged
line exactly like a capacity-evicted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.addr import AddressMapper
from repro.cache.coherence import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CoherenceViolation,
    check_mesi_invariants,
)
from repro.cache.line import (
    ACCESSED,
    DIRTY,
    PINGPONG,
    SHARERS_BITS,
    SHARERS_SHIFT,
    STATE_MASK,
    STATE_SHIFT,
    VERSION_BELOW,
    VERSION_SHIFT,
    CacheLine,
    decode_sharers,
)
from repro.cache.llc import SlicedLLC
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache
from repro.memory.controller import MemoryController

#: Memory operation kinds.
OP_READ = 0
OP_WRITE = 1
OP_IFETCH = 2
OP_FLUSH = 3

#: Table II latencies (cycles).
DEFAULT_L1_LATENCY = 2
DEFAULT_L2_LATENCY = 18
DEFAULT_LLC_LATENCY = 35

# Short aliases for the packed-word arithmetic below.
_VS = VERSION_SHIFT
_SS = SHARERS_SHIFT
_SMASK = (1 << SHARERS_BITS) - 1
_SHARERS_FIELD = _SMASK << _SS
#: ``word & _KEEP_ON_FLUSH`` drops dirty + state + version (the fields
#: a snoop-flush rewrites) while keeping pingpong/accessed/sharers.
_KEEP_ON_FLUSH = (VERSION_BELOW ^ DIRTY) & ~STATE_MASK


@dataclass(slots=True)
class AccessStats:
    """Aggregate hierarchy counters (one instance per hierarchy).

    ``per_core_accesses`` is a plain list indexed by core id — the
    hierarchy preallocates it to ``num_cores`` so the demand path is a
    single list-index increment, not a dict get/set per access.  The
    dataclass is slotted: several counters are bumped per memory
    operation, and slot access skips the instance-dict lookup.

    ``accesses`` and ``reads`` are *derived* properties, not stored
    fields: every access hits or misses L1 exactly once, so
    ``accesses == l1_hits + l1_misses``, and reads are whatever is
    neither a write nor an ifetch.  Deriving them removes two counter
    increments from the busiest basic block in the simulator.

    Flushes (``clflush``) are accounted in their own counters and are
    **not** demand accesses: they contribute to neither ``accesses``
    nor ``total_latency`` (``average_latency`` stays the demand-access
    metric), and ``per_core_accesses`` keeps summing to ``accesses``.
    ``flush_hits`` counts flushes that found the line resident — the
    timing channel Flush+Flush measures; ``flush_back_invalidations``
    counts private copies scrubbed by flushes (kept separate from
    ``back_invalidations`` so the inclusion-victim metric is not
    polluted by attacker flushes).
    """

    writes: int = 0
    ifetches: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    llc_evictions: int = 0
    l2_evictions: int = 0
    back_invalidations: int = 0
    writebacks_to_memory: int = 0
    upgrades: int = 0
    dirty_forwards: int = 0
    prefetch_fills: int = 0
    prefetch_skipped: int = 0
    flushes: int = 0
    flush_hits: int = 0
    flush_writebacks: int = 0
    flush_back_invalidations: int = 0
    total_latency: int = 0
    per_core_accesses: list[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        """Total demand accesses (every one probes L1 exactly once)."""
        return self.l1_hits + self.l1_misses

    @property
    def reads(self) -> int:
        """Demand reads (accesses that are neither writes nor ifetches)."""
        return self.l1_hits + self.l1_misses - self.writes - self.ifetches

    @property
    def average_latency(self) -> float:
        accesses = self.l1_hits + self.l1_misses
        return self.total_latency / accesses if accesses else 0.0

    @property
    def llc_miss_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        return self.llc_misses / total if total else 0.0


class CacheHierarchy:
    """Quad-core (configurable) inclusive MESI hierarchy."""

    __slots__ = (
        "num_cores",
        "mapper",
        "l1d",
        "l1i",
        "l2",
        "llc",
        "mc",
        "l1_latency",
        "l2_latency",
        "llc_latency",
        "dirty_forward_penalty",
        "monitor",
        "stats",
        "_memory_versions",
        "_write_counter",
        "_line_bits",
        "_c_state",
    )

    def __init__(
        self,
        num_cores: int = 4,
        l1_geometry: CacheGeometry | None = None,
        l2_geometry: CacheGeometry | None = None,
        llc: SlicedLLC | None = None,
        mc: MemoryController | None = None,
        l1_latency: int = DEFAULT_L1_LATENCY,
        l2_latency: int = DEFAULT_L2_LATENCY,
        llc_latency: int = DEFAULT_LLC_LATENCY,
        dirty_forward_penalty: int | None = None,
        monitor=None,
        seed: int = 0,
    ):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if num_cores > SHARERS_BITS:
            raise ValueError(
                f"num_cores must be <= {SHARERS_BITS}: the directory "
                "presence mask is a fixed bit-field of the packed line word"
            )
        self.num_cores = num_cores
        self.mapper = AddressMapper()
        l1_geometry = l1_geometry or CacheGeometry(64 * 1024, 4)
        l2_geometry = l2_geometry or CacheGeometry(256 * 1024, 8)
        # The private levels are always LRU: their hits stamp (here
        # through ``touch``, and in the C walk), and their fills evict
        # the smallest stamp.
        self.l1d = [
            SetAssociativeCache(l1_geometry, name=f"l1d{c}")
            for c in range(num_cores)
        ]
        self.l1i = [
            SetAssociativeCache(l1_geometry, name=f"l1i{c}")
            for c in range(num_cores)
        ]
        self.l2 = [
            SetAssociativeCache(l2_geometry, name=f"l2_{c}")
            for c in range(num_cores)
        ]
        self.llc = llc if llc is not None else SlicedLLC(seed=seed)
        self.mc = mc if mc is not None else MemoryController()
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.llc_latency = llc_latency
        self.dirty_forward_penalty = (
            dirty_forward_penalty
            if dirty_forward_penalty is not None
            else llc_latency
        )
        self.monitor = monitor
        self.stats = AccessStats(per_core_accesses=[0] * num_cores)
        self._memory_versions: dict[int, int] = {}
        self._write_counter = 0
        self._line_bits = self.mapper.line_bits
        # C cache-walk seam (repro.engine.c_cache): once installed,
        # ``_c_state`` owns the authoritative C-side storage and every
        # mutator below routes through it; the counters are refreshed
        # by :meth:`engine_sync`, the line dicts, ``_memory_versions``
        # and the LLC MT states on their first read.
        self._c_state = None

    def engine_access(self):
        """The per-event access entry point under the selected engine
        (``REPRO_ENGINE``): the C cache-walk kernel under ``c``, the
        generic :meth:`access` bound method for the ``python`` engine
        (and for ``c`` on a host where the extension cannot build).

        Callers that loop over memory operations (cores, trace replay)
        bind this once — after the monitor is attached — and call it
        per operation; there is no batch entry point.  Both entry
        points mutate the same state (once the C walk is installed,
        :meth:`access`, :meth:`clflush` and :meth:`prefetch_fill` route
        into it too), so they interleave freely.
        """
        from repro.engine import hierarchy_access

        return hierarchy_access(self)

    # ------------------------------------------------------------------
    # The demand access path
    # ------------------------------------------------------------------

    def access(self, core: int, op: int, addr: int, now: int = 0) -> int:
        """Perform one memory operation; return its latency in cycles.

        The walk stops at the first level that holds the line: an L1
        hit (a write to a non-M copy upgrades it), an L2 hit (which
        fills the L1), an LLC hit (:meth:`_serve_llc_hit`) or a fetch
        from memory (:meth:`_fetch_into_llc` + :meth:`_fill_private`);
        one tail then stamps a write's fresh version into the L1D copy
        and counts the access.  A flush takes :meth:`clflush`.  Once
        the C walk is installed, every call routes into it.
        """
        cs = self._c_state
        if cs is not None:
            # C-side storage is authoritative; the Python walk would
            # read a stale mirror.
            return cs.kernel(core, op, addr, now)
        if op == OP_FLUSH:  # its own service path, not a demand access
            return self.clflush(core, addr, now)
        line_addr = addr >> self._line_bits
        stats = self.stats
        l1 = (self.l1i if op == OP_IFETCH else self.l1d)[core]
        latency = self.l1_latency
        w = l1._map.get(line_addr)
        if w is not None:
            l1.hits += 1
            stats.l1_hits += 1
            if op == OP_WRITE:
                state = (w >> STATE_SHIFT) & 0b11
                # A repeat write to an M line skips the upgrade: an M
                # L1 copy implies M on every private level.
                if state != MODIFIED:
                    latency += self._write_hit(core, line_addr, state)
            l1.touch(line_addr)
        else:
            l1.misses += 1
            stats.l1_misses += 1
            latency += self.l2_latency
            l2 = self.l2[core]
            w = l2._map.get(line_addr)
            if w is not None:
                l2.hits += 1
                stats.l2_hits += 1
                if op == OP_WRITE:
                    latency += self._write_hit(
                        core, line_addr, (w >> STATE_SHIFT) & 0b11
                    )
                    w = l2._map[line_addr]  # state rewritten by the upgrade
                # The L1 copy takes the L2 copy's version and state.
                self._fill_l1(
                    core, l1, line_addr, (w >> _VS << _VS) | (w & STATE_MASK)
                )
                l2.touch(line_addr)
            else:
                l2.misses += 1
                stats.l2_misses += 1
                latency += self.llc_latency
                sl = self.llc.slice_for(line_addr)
                if line_addr in sl._map:
                    stats.llc_hits += 1
                    latency += self._serve_llc_hit(core, op, line_addr, sl)
                else:
                    stats.llc_misses += 1
                    latency += self._fetch_into_llc(
                        line_addr, now + latency, True, sl
                    )
                    state = MODIFIED if op == OP_WRITE else EXCLUSIVE
                    self._fill_private(core, op, line_addr, state, sl)
        if op == OP_WRITE:
            # Every path above leaves the line in this core's L1D.
            self._mark_written(core, line_addr)
            stats.writes += 1
        elif op == OP_IFETCH:
            stats.ifetches += 1
        stats.total_latency += latency
        stats.per_core_accesses[core] += 1
        return latency

    # ------------------------------------------------------------------
    # Flush (clflush/invalidate) — the Flush+Reload / Flush+Flush
    # attack primitive
    # ------------------------------------------------------------------

    def clflush(self, core: int, addr: int, now: int = 0) -> int:
        """Flush one line from the whole coherence domain (x86
        ``clflush``); return the instruction's latency in cycles.

        Semantics: the directory is probed; if the line is resident in
        the (inclusive) LLC, every private copy named by the sharers
        mask is invalidated, dirty data is merged and written back to
        memory, and the LLC copy is dropped.  ``core`` is the issuing
        core — a flush hits the issuer's own copies like anyone
        else's.

        The latency is the Flush+Flush timing channel (Gruss et al.):

        * absent line  — issue + directory probe (fast);
        * resident     — plus an invalidation round trip;
        * dirty        — plus the writeback drain to DRAM.

        Monitor contract: a flush-induced LLC invalidation raises the
        same ``on_llc_eviction`` hook as a capacity eviction — it is
        the same :meth:`_handle_llc_eviction` body, so the gating and
        the intact directory state are the same — **exactly once per
        flushed line**: PiPoMonitor sees the pEvict of a tagged line,
        BITP sees the back-invalidation, and the table recorder
        behaves like PiPoMonitor.  (The line leaves the LLC here, so
        the capacity-eviction path can never fire a second hook for
        it.)
        """
        cs = self._c_state
        if cs is not None:
            return cs.clflush(core, addr, now)
        line_addr = addr >> self._line_bits
        stats = self.stats
        stats.flushes += 1
        latency = self.l1_latency + self.llc_latency
        sl = self.llc.slice_for(line_addr)
        word = sl._map.pop(line_addr, None)
        if word is None:
            # Inclusive hierarchy: absent from the LLC means absent
            # from every private level — nothing to invalidate.
            return latency
        stamp = sl._sets[line_addr & sl._set_mask].pop(line_addr)
        stats.flush_hits += 1
        latency += self.llc_latency
        wrote_back = self._handle_llc_eviction(line_addr, word, stamp, now)
        stats.flush_back_invalidations += ((word >> _SS) & _SMASK).bit_count()
        if wrote_back:
            stats.flush_writebacks += 1
            # A flush of dirty data stalls until the drain completes.
            latency += self.mc.dram_latency
        return latency

    # ------------------------------------------------------------------
    # Write handling
    # ------------------------------------------------------------------

    def _write_hit(self, core: int, line_addr: int, state: int) -> int:
        """Handle a write hitting a private line in ``state``; return
        extra latency.

        :meth:`access` stamps the write (:meth:`_mark_written`) in its
        tail, once the L1 copy is resident.
        """
        extra = 0
        if state == SHARED:
            # S→M upgrade: a directory round trip invalidates the other
            # sharers.
            extra = self.llc_latency
            self.stats.upgrades += 1
            sl = self.llc.slice_for(line_addr)
            lmap = sl._map
            if line_addr not in lmap:
                raise CoherenceViolation(
                    f"inclusion broken: private line {line_addr:#x} "
                    "absent from LLC during upgrade"
                )
            self._invalidate_other_sharers(core, line_addr, sl)
            lw = lmap[line_addr]
            if lw & PINGPONG:
                lmap[line_addr] = lw | ACCESSED
        # E→M is silent.
        self._set_core_state(core, line_addr, MODIFIED)
        return extra

    def _mark_written(self, core: int, line_addr: int) -> None:
        """Stamp the core's L1D copy with a fresh write version."""
        wc = self._write_counter + 1
        self._write_counter = wc
        m = self.l1d[core]._map
        w = m.get(line_addr)
        if w is not None:
            m[line_addr] = (w & VERSION_BELOW) | (wc << _VS) | DIRTY

    # ------------------------------------------------------------------
    # LLC hit service (coherence actions)
    # ------------------------------------------------------------------

    def _serve_llc_hit(
        self, core: int, op: int, line_addr: int, sl: SetAssociativeCache,
    ) -> int:
        lmap = sl._map
        penalty = 0
        lw = lmap[line_addr]
        others = ((lw >> _SS) & _SMASK) & ~(1 << core)
        if others:
            # Flush/demote any M/E copy held elsewhere.
            for other in decode_sharers(others):
                if self._flush_core_line(other, line_addr, sl):
                    penalty += self.dirty_forward_penalty
                    self.stats.dirty_forwards += 1
            if op == OP_WRITE:
                self._invalidate_other_sharers(core, line_addr, sl)
                state = MODIFIED
            else:
                state = SHARED
            lw = lmap[line_addr]  # flush/invalidate rewrote the word
        else:
            state = MODIFIED if op == OP_WRITE else EXCLUSIVE
        if lw & PINGPONG:
            lmap[line_addr] = lw | ACCESSED
        self._fill_private(core, op, line_addr, state, sl)
        sl.touch(line_addr)
        return penalty

    def _flush_core_line(
        self, core: int, line_addr: int, sl: SetAssociativeCache
    ) -> bool:
        """Demote ``core``'s copies to SHARED, merging dirty data into
        the LLC word.  Returns True when dirty data was forwarded.

        The forwarded data also refreshes the core's *own* outer copies
        (a dirty L1 line implies a stale L2 copy; hardware writes the
        snooped data through, otherwise a later L1 eviction would
        resurrect stale L2 data).
        """
        lmap = sl._map
        lw = lmap[line_addr]
        newest = lw >> _VS
        forwarded = False
        holding = []
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            m = cache._map
            w = m.get(line_addr)
            if w is None:
                continue
            holding.append(m)
            if w & DIRTY:
                v = w >> _VS
                if v > newest:
                    newest = v
                lw |= DIRTY
                forwarded = True
        lmap[line_addr] = (lw & VERSION_BELOW) | (newest << _VS)
        shared_bits = SHARED << STATE_SHIFT
        for m in holding:
            m[line_addr] = (
                (m[line_addr] & _KEEP_ON_FLUSH) | shared_bits | (newest << _VS)
            )
        return forwarded

    def _invalidate_other_sharers(
        self, core: int, line_addr: int, sl: SetAssociativeCache
    ) -> None:
        """Remove every other core's private copies of the line,
        merging their dirty data into the LLC word."""
        lmap = sl._map
        lw = lmap[line_addr]
        sharers = (lw >> _SS) & _SMASK
        dirty, version = self._scrub_sharers(
            line_addr, sharers & ~(1 << core), lw & DIRTY, lw >> _VS
        )
        lmap[line_addr] = (
            (lw & (VERSION_BELOW & ~_SHARERS_FIELD & ~DIRTY))
            | dirty
            | ((sharers & (1 << core)) << _SS)
            | (version << _VS)
        )

    def _scrub_sharers(
        self, line_addr: int, sharers: int, dirty: int, version: int
    ) -> tuple[int, int]:
        """Drop the line from every private level of each core in the
        ``sharers`` mask; return ``(dirty, version)`` merged with the
        dropped copies' dirty data (the caller passes its own word's
        pair to merge into)."""
        for core in decode_sharers(sharers):
            for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
                w = cache._remove_word(line_addr)
                if w is not None and w & DIRTY:
                    dirty = DIRTY
                    if (w >> _VS) > version:
                        version = w >> _VS
        return dirty, version

    def _set_core_state(self, core: int, line_addr: int, state: int) -> None:
        bits = state << STATE_SHIFT
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            m = cache._map
            w = m.get(line_addr)
            if w is not None:
                m[line_addr] = (w & ~STATE_MASK) | bits

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------

    def _fill_private(
        self, core: int, op: int, line_addr: int, state: int,
        sl: SetAssociativeCache,
    ) -> None:
        """Fill the core's L2 and L1 from the LLC word in ``state``,
        then set the core's directory presence bit.

        Every caller sits past an L1 *and* L2 miss for this core with
        no intervening fill, so both levels fill directly (``_fill``'s
        duplicate guard catches a violated assumption loudly).
        """
        smap = sl._map
        llc_word = smap[line_addr]
        word = ((llc_word >> _VS) << _VS) | (state << STATE_SHIFT)
        vaddr, vword, _ = self.l2[core]._fill(line_addr, word)
        if vaddr is not None:
            self._handle_l2_eviction(core, vaddr, vword)
        self._fill_l1(
            core, (self.l1i if op == OP_IFETCH else self.l1d)[core],
            line_addr, word,
        )
        # ``llc_word`` is still current: the victim handling above only
        # rewrites *other* addresses' words.
        smap[line_addr] = llc_word | (1 << (core + _SS))

    def _handle_l2_eviction(self, core: int, vaddr: int, vword: int) -> None:
        """An L2 inclusion victim: purge the core's L1 copies, write the
        merged dirty data back into the LLC word and release the
        core's directory presence bit."""
        self.stats.l2_evictions += 1
        # The L2 copy is already gone, so the scrub drops the L1s only.
        dirty, version = self._scrub_sharers(
            vaddr, 1 << core, vword & DIRTY, vword >> _VS
        )
        lmap = self.llc.slice_for(vaddr)._map
        lw = lmap.get(vaddr)
        if lw is None:
            raise CoherenceViolation(
                f"inclusion broken: L2 victim {vaddr:#x} absent from LLC"
            )
        if dirty:
            if version > (lw >> _VS):
                lw = (lw & VERSION_BELOW) | (version << _VS)
            lw |= DIRTY
        lmap[vaddr] = lw & ~(1 << (core + _SS))

    def _fill_l1(
        self, core: int, l1: SetAssociativeCache, line_addr: int, word: int,
    ) -> None:
        """Fill one of ``core``'s L1s with ``word``; a dirty victim
        writes back into the core's L2 copy (present by inclusion)."""
        vaddr, vword, _ = l1._fill(line_addr, word)
        if vaddr is not None and vword & DIRTY:
            l2map = self.l2[core]._map
            w = l2map.get(vaddr)
            if w is not None:
                v = vword >> _VS
                if v > (w >> _VS):
                    w = (w & VERSION_BELOW) | (v << _VS)
                l2map[vaddr] = w | DIRTY

    # ------------------------------------------------------------------
    # Memory path and LLC evictions
    # ------------------------------------------------------------------

    def _fetch_into_llc(
        self, line_addr: int, now: int, demand: bool,
        sl: SetAssociativeCache,
    ) -> int:
        """Fetch a line from memory into ``sl`` (its owning LLC slice,
        resolved by the caller); return the memory latency."""
        captured = False
        if demand and self.monitor is not None:
            captured = self.monitor.on_access(line_addr, now)
        latency = self.mc.fetch(now, not demand)
        if demand:
            # A captured demand fill is tagged and, by definition,
            # accessed; uncaptured demand fills carry no flags.
            flags = PINGPONG | ACCESSED if captured else 0
        else:
            # Prefetch fill: stays tagged, access bit cleared (the
            # no-endless-prefetch rule, Section IV).
            flags = PINGPONG
        version = self._memory_versions.get(line_addr, 0)
        vaddr, vword, vstamp = sl._fill(line_addr, (version << _VS) | flags)
        if vaddr is not None:
            stats = self.stats
            stats.llc_evictions += 1
            self._handle_llc_eviction(vaddr, vword, vstamp, now)
            stats.back_invalidations += ((vword >> _SS) & _SMASK).bit_count()
        return latency

    def _handle_llc_eviction(
        self, vaddr: int, vword: int, vstamp: int, now: int
    ) -> bool:
        """A line that has left the LLC — a capacity victim or a
        ``clflush`` — in one body: monitor hook, sharer scrub, then the
        writeback of the merged dirty data.  Returns whether it wrote
        back; each caller keeps its own counters.

        The monitor hook fires first, while the victim's directory
        state is intact: PiPoMonitor reads the pingpong/accessed bits,
        stateless baselines (BITP) read the sharers mask to detect
        back-invalidations.  The hook only schedules events.  Monitors
        that ignore untagged lines declare ``needs_all_evictions =
        False`` so the (dominant) untagged case skips the
        detached-line materialisation entirely.
        """
        monitor = self.monitor
        if monitor is not None and (
            vword & PINGPONG or getattr(monitor, "needs_all_evictions", True)
        ):
            monitor.on_llc_eviction(CacheLine(vaddr, vword, vstamp), now)
        dirty, version = self._scrub_sharers(
            vaddr, (vword >> _SS) & _SMASK, vword & DIRTY, vword >> _VS
        )
        if not dirty:
            return False
        self.mc.writeback(now)
        self._memory_versions[vaddr] = version
        self.stats.writebacks_to_memory += 1
        return True

    def prefetch_fill(self, line_addr: int, now: int, tag: bool = True) -> bool:
        """Fill a line into the LLC on behalf of the monitor.

        ``tag`` controls whether the filled line carries the Ping-Pong
        tag (PiPoMonitor re-tags its prefetches; stateless prefetchers
        like BITP do not tag).  Returns True when a fetch was actually
        issued (False when the line is already resident, e.g.
        re-fetched by a demand miss before the delayed prefetch fired).
        """
        cs = self._c_state
        if cs is not None:
            return cs.prefetch_fill(line_addr, now, tag)
        sl = self.llc.slice_for(line_addr)
        lmap = sl._map
        if line_addr in lmap:
            self.stats.prefetch_skipped += 1
            return False
        self._fetch_into_llc(line_addr, now, False, sl)
        w = lmap[line_addr]
        lmap[line_addr] = (w | PINGPONG) if tag else (w & ~PINGPONG)
        self.stats.prefetch_fills += 1
        return True

    # ------------------------------------------------------------------
    # Introspection and validation
    # ------------------------------------------------------------------

    def engine_sync(self) -> None:
        """Flush engine-owned counters back into the Python objects.

        A no-op for the ``python`` engine (the dicts *are* the
        state).  Under the C cache walk this performs the batch sync:
        the per-cache and AccessStats counters, the monitor/filter
        counters and the memory-controller channel state are refreshed
        from the C side (in place — object identity is preserved for
        held references).  The ``_map``/``_sets`` line dicts,
        ``_memory_versions`` and the LLC policies' random state are
        only marked stale: the first line reader (``lookup``,
        ``lines``, ``in``, :meth:`read_version`, :meth:`holders_of`,
        …) refreshes them.  Cheap when nothing ran since the last
        sync.  The C side stays authoritative afterwards; this is a
        read-only snapshot refresh, never a hand-back.
        """
        cs = self._c_state
        if cs is not None:
            cs.sync()

    def _sync_lines(self) -> None:
        """:meth:`engine_sync` plus the line dicts, for the readers
        below that walk ``_map`` directly."""
        cs = self._c_state
        if cs is not None:
            cs.sync_lines()

    def read_version(self, core: int, addr: int) -> int:
        """The data version a read by ``core`` would observe, *without*
        perturbing any state.  Test helper mirroring the serve path."""
        self._sync_lines()
        line_addr = addr >> self.mapper.line_bits
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            w = cache._map.get(line_addr)
            if w is not None:
                return w >> _VS
        # Another core may hold a newer dirty copy.
        best = -1
        for other in range(self.num_cores):
            for cache in (self.l1d[other], self.l1i[other], self.l2[other]):
                w = cache._map.get(line_addr)
                if w is not None and w & DIRTY and (w >> _VS) > best:
                    best = w >> _VS
        lw = self.llc.slice_for(line_addr)._map.get(line_addr)
        if lw is not None and (lw >> _VS) > best:
            best = lw >> _VS
        if best >= 0:
            return best
        return self._memory_versions.get(line_addr, 0)

    def holders_of(self, line_addr: int) -> dict[int, int]:
        """Map core → private MESI state for a line (test helper)."""
        self._sync_lines()
        holders: dict[int, int] = {}
        for core in range(self.num_cores):
            state = None
            for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
                w = cache._map.get(line_addr)
                if w is not None:
                    s = (w >> STATE_SHIFT) & 0b11
                    state = s if state is None else max(state, s)
            if state is not None:
                holders[core] = state
        return holders

    def check_invariants(self) -> None:
        """Validate MESI, inclusion, and directory accuracy everywhere.

        Raises :class:`CoherenceViolation` on the first failure.  Meant
        for tests — it walks every resident line.
        """
        self._sync_lines()
        private_addrs: set[int] = set()
        for core in range(self.num_cores):
            l2_lines = set(self.l2[core]._map)
            for l1 in (self.l1d[core], self.l1i[core]):
                for addr in l1._map:
                    if addr not in l2_lines:
                        raise CoherenceViolation(
                            f"L1 line {addr:#x} of core {core} "
                            "missing from its L2 (inclusion)"
                        )
            private_addrs.update(l2_lines)
        llc_addrs = {line.addr for line in self.llc.lines()}
        missing = private_addrs - llc_addrs
        if missing:
            raise CoherenceViolation(
                f"private lines missing from LLC (inclusion): "
                f"{[hex(a) for a in sorted(missing)][:4]}"
            )
        for llc_line in self.llc.lines():
            holders = self.holders_of(llc_line.addr)
            check_mesi_invariants(holders)
            if set(holders) != set(llc_line.sharer_list()):
                raise CoherenceViolation(
                    f"directory mismatch for {llc_line.addr:#x}: "
                    f"sharers={llc_line.sharer_list()} actual={sorted(holders)}"
                )
