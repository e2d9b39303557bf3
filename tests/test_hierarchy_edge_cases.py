"""Edge cases and cross-feature interactions in the cache hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.coherence import EXCLUSIVE, MODIFIED, SHARED
from repro.cache.hierarchy import (
    OP_IFETCH,
    OP_READ,
    OP_WRITE,
    CacheHierarchy,
)
from repro.cache.llc import SlicedLLC
from repro.cache.set_assoc import CacheGeometry
from repro.memory.controller import MemoryController


def tiny_hierarchy(num_cores=2, **overrides):
    params = dict(
        num_cores=num_cores,
        l1_geometry=CacheGeometry(2 * 1024, 2),
        l2_geometry=CacheGeometry(8 * 1024, 4),
        llc=SlicedLLC(size_bytes=32 * 1024, ways=4, num_slices=2, seed=21),
        mc=MemoryController(dram_latency=200),
        seed=21,
    )
    params.update(overrides)
    return CacheHierarchy(**params)


class TestCodeDataAliasing:
    """The same line fetched as both code and data (self-modifying or
    mixed pages) must not corrupt structures."""

    def test_ifetch_then_read_same_line(self):
        h = tiny_hierarchy()
        h.access(0, OP_IFETCH, 0x40)
        latency = h.access(0, OP_READ, 0x40)
        # Data read misses L1D but finds the line in the shared L2.
        assert latency == h.l1_latency + h.l2_latency
        assert h.l1d[0].lookup(1) is not None
        assert h.l1i[0].lookup(1) is not None
        h.check_invariants()

    def test_write_after_ifetch_invalidates_nothing_locally(self):
        h = tiny_hierarchy()
        h.access(0, OP_IFETCH, 0x40)
        h.access(0, OP_WRITE, 0x40)
        assert h.read_version(0, 0x40) == 1
        h.check_invariants()

    def test_remote_write_purges_both_l1s(self):
        h = tiny_hierarchy()
        h.access(0, OP_IFETCH, 0x40)
        h.access(0, OP_READ, 0x40)
        h.access(1, OP_WRITE, 0x40)
        assert h.l1i[0].lookup(1) is None
        assert h.l1d[0].lookup(1) is None
        assert h.holders_of(1) == {1: MODIFIED}


class TestUpgradePaths:
    def test_upgrade_on_l2_hit(self):
        """Write hitting an S line that is only in L2 (not L1)."""
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        h.access(1, OP_READ, 0x40)          # both S now
        # Evict line 1 from core 0's L1 only (fill its L1 set).
        l1_sets = h.l1d[0].num_sets
        for way in range(1, 4):
            h.access(0, OP_READ, (1 + way * l1_sets) * 64)
        assert h.l1d[0].lookup(1) is None
        assert h.l2[0].lookup(1) is not None
        h.access(0, OP_WRITE, 0x40)
        assert h.holders_of(1) == {0: MODIFIED}
        assert h.stats.upgrades == 1
        assert h.read_version(0, 0x40) == 1
        h.check_invariants()

    def test_write_miss_goes_straight_to_modified(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        assert h.holders_of(1) == {0: MODIFIED}
        assert h.stats.upgrades == 0  # no S copy existed anywhere

    def test_exclusive_downgrades_to_shared_on_remote_read(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        assert h.holders_of(1) == {0: EXCLUSIVE}
        h.access(1, OP_READ, 0x40)
        assert h.holders_of(1) == {0: SHARED, 1: SHARED}
        # Clean E → no dirty forward penalty.
        assert h.stats.dirty_forwards == 0


class TestPrefetchInteractions:
    def test_prefetch_cascade_handles_tagged_victims(self):
        """A prefetch fill can evict another tagged line; the monitor
        hook must fire for it (cascade), and state stays consistent."""
        events = []

        class Hook:
            def on_access(self, line_addr, now):
                return False

            def on_llc_eviction(self, line, now):
                events.append((line.addr, line.pingpong))

        h = tiny_hierarchy(monitor=Hook())
        # Fill one LLC set completely with prefetches (tagged lines).
        sets = h.llc.geometry.num_sets
        filled = []
        candidate = 7
        while len(filled) < h.llc.ways + 1:
            if h.llc.slice_of(candidate) == h.llc.slice_of(7) and \
               h.llc.set_of(candidate) == h.llc.set_of(7):
                h.prefetch_fill(candidate, now=0)
                filled.append(candidate)
            candidate += sets
        # The overflow prefetch evicted one tagged line → hook fired.
        assert any(tagged for _, tagged in events)
        h.check_invariants()

    def test_prefetched_line_served_to_demand(self):
        h = tiny_hierarchy()
        h.prefetch_fill(9, now=0)
        latency = h.access(0, OP_READ, 9 * 64)
        assert latency == h.l1_latency + h.l2_latency + h.llc_latency
        line = h.llc.lookup(9)
        assert line.accessed  # demand touch set the bit
        assert 0 in line.sharer_list()

    def test_prefetch_does_not_disturb_directory(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 9 * 64)
        # Already resident: skipped, sharers unchanged.
        assert not h.prefetch_fill(9, now=0)
        assert h.llc.lookup(9).sharer_list() == [0]


class TestWritebackOrdering:
    def test_dirty_l1_eviction_updates_l2(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        l1_sets = h.l1d[0].num_sets
        for way in range(1, 4):
            h.access(0, OP_READ, (1 + way * l1_sets) * 64)
        assert h.l1d[0].lookup(1) is None
        l2line = h.l2[0].lookup(1)
        assert l2line is not None and l2line.dirty
        assert l2line.version == 1

    def test_full_eviction_chain_preserves_data(self):
        """Write → L1 evict → L2 evict → LLC evict → memory, then a
        fresh read must see the written version."""
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        addr = 0x400000
        while h.llc.lookup(1) is not None:
            h.access(1, OP_READ, addr)
            addr += 64
        assert h.l2[0].lookup(1) is None  # back-invalidated
        h.access(0, OP_READ, 0x40)
        assert h.read_version(0, 0x40) == 1


class TestStatsInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.sampled_from([OP_READ, OP_WRITE, OP_IFETCH]),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1, max_size=150,
    ))
    def test_counter_identities(self, ops):
        h = tiny_hierarchy()
        for core, op, line in ops:
            h.access(core, op, line * 64)
        s = h.stats
        assert s.accesses == len(ops)
        assert s.reads + s.writes + s.ifetches == s.accesses
        assert s.l1_hits + s.l1_misses == s.accesses
        assert s.l2_hits + s.l2_misses == s.l1_misses
        assert s.llc_hits + s.llc_misses == s.l2_misses
        assert h.mc.demand_fetches == s.llc_misses
        assert s.average_latency >= h.l1_latency

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1, max_size=80,
    ))
    def test_llc_never_overflows(self, ops):
        h = tiny_hierarchy()
        for core, line in ops:
            h.access(core, OP_READ, line * 64)
        for sl in h.llc.slices:
            for index in range(sl.num_sets):
                assert len(sl.set_lines(index)) <= sl.ways
