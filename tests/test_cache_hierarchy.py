"""Unit tests for the inclusive MESI hierarchy (Table II substrate)."""

import pytest

from repro.cache.coherence import EXCLUSIVE, MODIFIED, SHARED
from repro.cache.hierarchy import (
    OP_IFETCH,
    OP_READ,
    OP_WRITE,
    CacheHierarchy,
)
from repro.cache.llc import SlicedLLC
from repro.cache.replacement import LruPolicy, RandomPolicy
from repro.cache.set_assoc import CacheGeometry
from repro.memory.controller import MemoryController


def tiny_hierarchy(num_cores=2, monitor=None, **overrides):
    """A scaled-down hierarchy so sets overflow quickly in tests."""
    params = dict(
        num_cores=num_cores,
        l1_geometry=CacheGeometry(2 * 1024, 2),    # 16 sets
        l2_geometry=CacheGeometry(8 * 1024, 4),    # 32 sets
        llc=SlicedLLC(size_bytes=32 * 1024, ways=4, num_slices=2, seed=1),
        mc=MemoryController(dram_latency=200),
        monitor=monitor,
        seed=1,
    )
    params.update(overrides)
    return CacheHierarchy(**params)


def paper_hierarchy():
    return CacheHierarchy(num_cores=4, seed=2)


class TestLatencies:
    """Latency accounting per Table II: L1 2, L2 18, L3 35, DRAM 200."""

    def test_cold_miss_latency(self):
        h = paper_hierarchy()
        latency = h.access(0, OP_READ, 0x10000)
        assert latency == 2 + 18 + 35 + 200

    def test_l1_hit_latency(self):
        h = paper_hierarchy()
        h.access(0, OP_READ, 0x10000)
        assert h.access(0, OP_READ, 0x10000) == 2

    def test_l2_hit_latency(self):
        h = paper_hierarchy()
        h.access(0, OP_READ, 0x10000)
        # Evict from tiny L1 by filling its set; the line stays in L2.
        l1_sets = h.l1d[0].num_sets
        for way in range(1, 5):
            h.access(0, OP_READ, 0x10000 + way * l1_sets * 64)
        assert h.access(0, OP_READ, 0x10000) == 2 + 18

    def test_llc_hit_latency_cross_core(self):
        h = paper_hierarchy()
        h.access(0, OP_READ, 0x10000)
        assert h.access(1, OP_READ, 0x10000) == 2 + 18 + 35

    def test_stats_accumulate(self):
        h = paper_hierarchy()
        h.access(0, OP_READ, 0)
        h.access(0, OP_READ, 0)
        assert h.stats.accesses == 2
        assert h.stats.l1_hits == 1
        assert h.stats.llc_misses == 1
        assert h.stats.average_latency > 0


class TestMesiTransitions:
    def test_first_read_is_exclusive(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        assert h.holders_of(1) == {0: EXCLUSIVE}

    def test_second_reader_shares(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        h.access(1, OP_READ, 0x40)
        assert h.holders_of(1) == {0: SHARED, 1: SHARED}

    def test_write_is_modified(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        assert h.holders_of(1) == {0: MODIFIED}

    def test_write_invalidates_sharers(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        h.access(1, OP_READ, 0x40)
        h.access(1, OP_WRITE, 0x40)
        assert h.holders_of(1) == {1: MODIFIED}
        assert h.stats.upgrades == 1

    def test_silent_exclusive_to_modified(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        upgrades_before = h.stats.upgrades
        latency = h.access(0, OP_WRITE, 0x40)
        assert latency == h.l1_latency  # silent upgrade: no LLC trip
        assert h.stats.upgrades == upgrades_before
        assert h.holders_of(1) == {0: MODIFIED}

    def test_read_of_modified_line_forwards_dirty(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        latency = h.access(1, OP_READ, 0x40)
        assert h.holders_of(1) == {0: SHARED, 1: SHARED}
        assert h.stats.dirty_forwards == 1
        assert latency > 2 + 18 + 35  # includes the forward penalty

    def test_write_after_remote_modified(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        h.access(1, OP_WRITE, 0x40)
        assert h.holders_of(1) == {1: MODIFIED}

    def test_invariants_hold_after_sharing(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        h.access(1, OP_READ, 0x40)
        h.access(0, OP_READ, 0x80)
        h.check_invariants()


class TestDataVersions:
    """Reads must observe the latest write, across cores and levels."""

    def test_local_read_after_write(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        assert h.read_version(0, 0x40) == 1

    def test_remote_read_after_write(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        h.access(1, OP_READ, 0x40)
        assert h.read_version(1, 0x40) == 1

    def test_latest_of_two_writers(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        h.access(1, OP_WRITE, 0x40)
        assert h.read_version(0, 0x40) == 2
        assert h.read_version(1, 0x40) == 2

    def test_version_survives_full_eviction_to_memory(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        # Thrash the LLC until line 1 is evicted to memory.
        addr = 0x100000
        while h.llc.lookup(1) is not None:
            h.access(1, OP_READ, addr)
            addr += 64
        assert h.stats.writebacks_to_memory >= 1
        assert h.read_version(0, 0x40) == 1
        # Refetch and confirm the data came back.
        h.access(0, OP_READ, 0x40)
        assert h.read_version(0, 0x40) == 1


class TestInclusionAndBackInvalidation:
    def test_llc_eviction_back_invalidates_private_copies(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        assert h.l1d[0].lookup(1) is not None
        addr = 0x100000
        while h.llc.lookup(1) is not None:
            h.access(1, OP_READ, addr)
            addr += 64
        # Inclusion: the private copies must be gone too.
        assert h.l1d[0].lookup(1) is None
        assert h.l2[0].lookup(1) is None
        assert h.stats.back_invalidations >= 1
        h.check_invariants()

    def test_dirty_back_invalidation_writes_back(self):
        h = tiny_hierarchy()
        h.access(0, OP_WRITE, 0x40)
        addr = 0x100000
        while h.llc.lookup(1) is not None:
            h.access(1, OP_READ, addr)
            addr += 64
        assert h.read_version(0, 0x40) == 1
        assert h.stats.writebacks_to_memory >= 1

    def test_l2_eviction_purges_l1(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        l2_sets = h.l2[0].num_sets
        # Overflow the L2 set holding line 1 (set index 1).
        for way in range(1, 6):
            h.access(0, OP_READ, (1 + way * l2_sets) * 64)
        assert h.l2[0].lookup(1) is None
        assert h.l1d[0].lookup(1) is None
        h.check_invariants()

    def test_directory_bit_cleared_after_l2_eviction(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 0x40)
        l2_sets = h.l2[0].num_sets
        for way in range(1, 6):
            h.access(0, OP_READ, (1 + way * l2_sets) * 64)
        llc_line = h.llc.lookup(1)
        if llc_line is not None:
            assert 0 not in llc_line.sharer_list()


class TestInstructionFetches:
    def test_ifetch_fills_l1i_not_l1d(self):
        h = tiny_hierarchy()
        h.access(0, OP_IFETCH, 0x40)
        assert h.l1i[0].lookup(1) is not None
        assert h.l1d[0].lookup(1) is None

    def test_ifetch_hits_after_fill(self):
        h = tiny_hierarchy()
        h.access(0, OP_IFETCH, 0x40)
        assert h.access(0, OP_IFETCH, 0x40) == h.l1_latency

    def test_stats_count_ifetches(self):
        h = tiny_hierarchy()
        h.access(0, OP_IFETCH, 0x40)
        assert h.stats.ifetches == 1


class TestPrefetchFill:
    def test_prefetch_fills_llc_only(self):
        h = tiny_hierarchy()
        assert h.prefetch_fill(5, now=0)
        line = h.llc.lookup(5)
        assert line is not None
        assert line.pingpong and not line.accessed
        assert line.sharers == 0
        assert h.l1d[0].lookup(5) is None
        assert h.stats.prefetch_fills == 1

    def test_prefetch_skipped_when_resident(self):
        h = tiny_hierarchy()
        h.access(0, OP_READ, 5 * 64)
        assert not h.prefetch_fill(5, now=0)
        assert h.stats.prefetch_skipped == 1

    def test_demand_hit_on_prefetched_line_sets_accessed(self):
        h = tiny_hierarchy()
        h.prefetch_fill(5, now=0)
        h.access(0, OP_READ, 5 * 64)
        line = h.llc.lookup(5)
        assert line.accessed

    def test_prefetch_counts_in_mc(self):
        h = tiny_hierarchy()
        h.prefetch_fill(5, now=0)
        assert h.mc.prefetch_fetches == 1
        assert h.mc.demand_fetches == 0


class _RecordingMonitor:
    """Minimal monitor double recording hook invocations."""

    def __init__(self, capture=False):
        self.capture = capture
        self.accesses = []
        self.evictions = []

    def on_access(self, line_addr, now):
        self.accesses.append((line_addr, now))
        return self.capture

    def on_llc_eviction(self, line, now):
        self.evictions.append((line.addr, now, line.pingpong, line.sharer_list()))


class TestMonitorHooks:
    def test_demand_fetch_invokes_on_access(self):
        monitor = _RecordingMonitor()
        h = tiny_hierarchy(monitor=monitor)
        h.access(0, OP_READ, 0x40)
        assert monitor.accesses == [(1, 2 + 18 + 35)]

    def test_llc_hit_does_not_invoke_on_access(self):
        monitor = _RecordingMonitor()
        h = tiny_hierarchy(monitor=monitor)
        h.access(0, OP_READ, 0x40)
        h.access(1, OP_READ, 0x40)
        assert len(monitor.accesses) == 1

    def test_prefetch_does_not_invoke_on_access(self):
        monitor = _RecordingMonitor()
        h = tiny_hierarchy(monitor=monitor)
        h.prefetch_fill(9, now=0)
        assert monitor.accesses == []

    def test_captured_fill_is_tagged_and_accessed(self):
        monitor = _RecordingMonitor(capture=True)
        h = tiny_hierarchy(monitor=monitor)
        h.access(0, OP_READ, 0x40)
        line = h.llc.lookup(1)
        assert line.pingpong and line.accessed

    def test_eviction_of_tagged_line_raises_pevict(self):
        monitor = _RecordingMonitor(capture=True)
        h = tiny_hierarchy(monitor=monitor)
        h.access(0, OP_READ, 0x40)
        addr = 0x100000
        while h.llc.lookup(1) is not None:
            h.access(1, OP_READ, addr)
            addr += 64
        tagged = [e for e in monitor.evictions if e[0] == 1]
        assert tagged and tagged[0][2], "tagged line must reach the hook"

    def test_eviction_hook_sees_directory_state(self):
        """The hook fires for every eviction, before back-invalidation
        clears the sharers mask (stateless baselines depend on it)."""
        monitor = _RecordingMonitor(capture=False)
        h = tiny_hierarchy(monitor=monitor)
        h.access(0, OP_READ, 0x40)
        addr = 0x100000
        while h.llc.lookup(1) is not None:
            h.access(1, OP_READ, addr)
            addr += 64
        record = next(e for e in monitor.evictions if e[0] == 1)
        assert record[3] == [0]     # core 0 held the line at eviction
        assert not record[2]        # untagged: capture was False


class TestMemoryChannel:
    def test_queue_wait_added_under_contention(self):
        h = tiny_hierarchy()
        # Two back-to-back misses at the same nominal time: the second
        # waits for the channel.
        lat_a = h.access(0, OP_READ, 0x1000, now=0)
        lat_b = h.access(1, OP_READ, 0x2000, now=0)
        assert lat_b > lat_a
        assert h.mc.total_queue_wait > 0

    def test_no_wait_when_spaced(self):
        h = tiny_hierarchy()
        lat_a = h.access(0, OP_READ, 0x1000, now=0)
        lat_b = h.access(1, OP_READ, 0x2000, now=10_000)
        assert lat_a == lat_b

    def test_memory_fetches_go_through_the_controller(self, monkeypatch):
        # ``MemoryController.fetch`` is the hierarchy's only copy of the
        # channel arithmetic: each LLC miss and prefetch fill calls it
        # once (a demand miss reaches it after the L1, L2 and LLC
        # lookups), and its latency is what the access pays past the LLC.
        calls = []
        real_fetch = MemoryController.fetch

        def spy(mc, now, prefetch=False):
            calls.append((now, prefetch))
            return real_fetch(mc, now, prefetch) + 1000

        monkeypatch.setattr(MemoryController, "fetch", spy)
        h = tiny_hierarchy()
        assert h.access(0, OP_READ, 0x1000, now=5) == 2 + 18 + 35 + 1200
        assert h.access(0, OP_READ, 0x1000, now=6) == 2
        h.prefetch_fill(0x2000 >> 6, now=7)
        assert calls == [(5 + 2 + 18 + 35, False), (7, True)]


class TestParameterValidation:
    def test_private_levels_are_lru_whatever_the_llc_policy(self):
        llc = SlicedLLC(size_bytes=32 * 1024, ways=4, num_slices=2,
                        policy="random", seed=1)
        h = tiny_hierarchy(llc=llc)
        for level in (h.l1d, h.l1i, h.l2):
            assert all(isinstance(c.policy, LruPolicy) for c in level)
        assert all(isinstance(sl.policy, RandomPolicy) for sl in h.llc.slices)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            CacheHierarchy(num_cores=0)
