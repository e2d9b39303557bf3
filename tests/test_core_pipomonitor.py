"""Unit tests for PiPoMonitor and the configuration module."""

import pytest

from repro.cache.hierarchy import OP_READ, CacheHierarchy
from repro.cache.llc import SlicedLLC
from repro.cache.set_assoc import CacheGeometry
from repro.core.config import (
    FIG8_FILTER_SIZES,
    TABLE_II,
    TABLE_II_FILTER,
    FilterConfig,
    SystemConfig,
)
from repro.core.pipomonitor import MonitorStats, PiPoMonitor
from repro.memory.controller import MemoryController
from repro.utils.events import EventQueue


def monitored_hierarchy(prefetch_delay=10, secthr=3, filter_buckets=64):
    events = EventQueue()
    fltr = FilterConfig(
        num_buckets=filter_buckets, security_threshold=secthr
    ).build(seed=3)
    monitor = PiPoMonitor(fltr, events, prefetch_delay=prefetch_delay)
    hierarchy = CacheHierarchy(
        num_cores=2,
        l1_geometry=CacheGeometry(2 * 1024, 2),
        l2_geometry=CacheGeometry(8 * 1024, 4),
        llc=SlicedLLC(size_bytes=32 * 1024, ways=4, num_slices=2, seed=4),
        mc=MemoryController(dram_latency=200),
        seed=4,
    )
    monitor.attach(hierarchy)
    return hierarchy, monitor, events


_THRASH_CURSOR = [0]


def evict_line_from_llc(hierarchy, line_addr, driver_core=1):
    """Evict ``line_addr`` by filling its own LLC set with fresh
    congruent lines.

    Targeting the congruent set keeps the number of filter insertions
    per round tiny, so the target's filter record is not churned out
    between re-fetches (which would be a legitimate false negative but
    is not what these tests probe).  Addresses are globally fresh so
    the thrash lines are never re-accesses themselves.
    """
    llc = hierarchy.llc
    sets = llc.geometry.num_sets
    while hierarchy.llc.lookup(line_addr) is not None:
        _THRASH_CURSOR[0] += 1
        candidate = line_addr + _THRASH_CURSOR[0] * sets
        if llc.slice_of(candidate) != llc.slice_of(line_addr):
            continue
        hierarchy.access(driver_core, OP_READ, candidate * 64)


class TestCaptureProtocol:
    def test_capture_after_secthr_refetches(self):
        """A line fetched, evicted, and re-fetched secThr times is
        captured as Ping-Pong (Section IV)."""
        hierarchy, monitor, _ = monitored_hierarchy()
        target = 0x40
        for _ in range(3):
            hierarchy.access(0, OP_READ, target)
            evict_line_from_llc(hierarchy, 1)
        hierarchy.access(0, OP_READ, target)  # 3rd reAccess: captured
        assert monitor.stats.captures == 1
        line = hierarchy.llc.lookup(1)
        assert line is not None and line.pingpong and line.accessed

    def test_no_capture_below_threshold(self):
        hierarchy, monitor, _ = monitored_hierarchy()
        hierarchy.access(0, OP_READ, 0x40)
        evict_line_from_llc(hierarchy, 1)
        hierarchy.access(0, OP_READ, 0x40)
        assert monitor.stats.captures == 0
        assert monitor.stats.accesses >= 2

    def test_captured_lines_tracking(self):
        events = EventQueue()
        fltr = FilterConfig(num_buckets=64).build(seed=1)
        monitor = PiPoMonitor(fltr, events, track_captured_lines=True)
        for _ in range(4):
            monitor.on_access(99, now=0)
        assert monitor.captured_lines == {99}


class TestPrefetchProtocol:
    def capture_target(self, hierarchy, monitor):
        """Drive line 1 (addr 0x40) to captured state."""
        for _ in range(3):
            hierarchy.access(0, OP_READ, 0x40)
            evict_line_from_llc(hierarchy, 1)
        hierarchy.access(0, OP_READ, 0x40)
        assert monitor.stats.captures >= 1

    def test_pevict_schedules_delayed_prefetch(self):
        hierarchy, monitor, events = monitored_hierarchy(prefetch_delay=10)
        self.capture_target(hierarchy, monitor)
        assert len(events) == 0
        evict_line_from_llc(hierarchy, 1)
        assert monitor.stats.pevicts == 1
        assert len(events) == 1  # prefetch pending, not yet fired

    def test_prefetch_restores_line(self):
        hierarchy, monitor, events = monitored_hierarchy(prefetch_delay=10)
        self.capture_target(hierarchy, monitor)
        evict_line_from_llc(hierarchy, 1)
        assert hierarchy.llc.lookup(1) is None
        events.run_until(10_000_000)
        assert monitor.stats.prefetches_issued == 1
        line = hierarchy.llc.lookup(1)
        assert line is not None and line.pingpong and not line.accessed

    def test_unaccessed_prefetched_line_not_reprefetched(self):
        """The no-endless-prefetch rule: prefetch → evict (untouched)
        → no second prefetch."""
        hierarchy, monitor, events = monitored_hierarchy(prefetch_delay=10)
        self.capture_target(hierarchy, monitor)
        evict_line_from_llc(hierarchy, 1)
        events.run_until(10_000_000)          # prefetch #1 fires
        evict_line_from_llc(hierarchy, 1)     # evicted untouched
        events.run_until(20_000_000)
        assert monitor.stats.prefetches_issued == 1
        assert monitor.stats.suppressed_unaccessed >= 1

    def test_touched_prefetched_line_reprefetched(self):
        hierarchy, monitor, events = monitored_hierarchy(prefetch_delay=10)
        self.capture_target(hierarchy, monitor)
        evict_line_from_llc(hierarchy, 1)
        events.run_until(10_000_000)
        hierarchy.access(0, OP_READ, 0x40)    # touch the prefetched line
        evict_line_from_llc(hierarchy, 1)
        events.run_until(20_000_000)
        assert monitor.stats.prefetches_issued == 2

    def test_redundant_prefetch_when_demand_refetches_first(self):
        hierarchy, monitor, events = monitored_hierarchy(prefetch_delay=10)
        self.capture_target(hierarchy, monitor)
        evict_line_from_llc(hierarchy, 1)
        # Demand re-fetch lands before the delayed prefetch fires.
        hierarchy.access(0, OP_READ, 0x40)
        events.run_until(10_000_000)
        assert monitor.stats.prefetches_redundant == 1

    def test_prefetch_does_not_query_filter(self):
        hierarchy, monitor, events = monitored_hierarchy(prefetch_delay=10)
        self.capture_target(hierarchy, monitor)
        accesses_before = monitor.stats.accesses
        evict_line_from_llc(hierarchy, 1)
        events.run_until(10_000_000)
        # Thrashing generated accesses; the prefetch itself must not.
        assert monitor.filter.total_accesses == monitor.stats.accesses
        assert monitor.stats.accesses > accesses_before  # thrash traffic

    def test_detached_monitor_prefetch_raises(self):
        fltr = FilterConfig(num_buckets=64).build(seed=1)
        monitor = PiPoMonitor(fltr, EventQueue())
        with pytest.raises(RuntimeError):
            monitor._fire_prefetch(1, now=0)

    def test_rejects_negative_delay(self):
        fltr = FilterConfig(num_buckets=64).build(seed=1)
        with pytest.raises(ValueError):
            PiPoMonitor(fltr, EventQueue(), prefetch_delay=-1)


class TestMonitorStats:
    def test_false_positive_metric(self):
        stats = MonitorStats(prefetches_issued=97)
        assert stats.false_positives_per_million_instructions(1_000_000) == 97

    def test_false_positive_metric_rejects_zero(self):
        with pytest.raises(ValueError):
            MonitorStats().false_positives_per_million_instructions(0)


class TestConfig:
    def test_table_ii_defaults(self):
        assert TABLE_II.num_cores == 4
        assert TABLE_II.l1.size_bytes == 64 * 1024 and TABLE_II.l1.ways == 4
        assert TABLE_II.l2.size_bytes == 256 * 1024 and TABLE_II.l2.ways == 8
        assert TABLE_II.llc.size_bytes == 4 * 1024 * 1024
        assert TABLE_II.llc.ways == 16
        assert TABLE_II.dram_latency == 200
        assert TABLE_II.l1.latency == 2
        assert TABLE_II.l2.latency == 18
        assert TABLE_II.llc.latency == 35

    def test_table_ii_filter(self):
        assert TABLE_II_FILTER.num_buckets == 1024
        assert TABLE_II_FILTER.entries_per_bucket == 8
        assert TABLE_II_FILTER.fingerprint_bits == 12
        assert TABLE_II_FILTER.max_kicks == 4
        assert TABLE_II_FILTER.security_threshold == 3

    def test_fig8_sizes(self):
        assert FIG8_FILTER_SIZES == (
            (512, 8), (1024, 8), (1024, 16), (2048, 4), (2048, 8),
        )

    def test_filter_config_builds_matching_filter(self):
        fltr = TABLE_II_FILTER.build(seed=1)
        assert fltr.num_buckets == 1024
        assert fltr.capacity == 8192

    def test_filter_geometry_storage(self):
        assert TABLE_II_FILTER.geometry.storage_kib == pytest.approx(15.0)

    def test_with_size_variant(self):
        variant = TABLE_II_FILTER.with_size(512, 8)
        assert variant.num_buckets == 512
        assert variant.fingerprint_bits == 12  # unchanged

    def test_without_monitor(self):
        baseline = TABLE_II.without_monitor()
        assert not baseline.monitor_enabled
        assert TABLE_II.monitor_enabled  # original untouched

    def test_build_hierarchy_matches_geometry(self):
        h = SystemConfig().build_hierarchy(seed=1)
        assert h.num_cores == 4
        assert h.llc.size_bytes == 4 * 1024 * 1024
        assert h.l1d[0].num_sets == 256
        assert h.l2[0].num_sets == 512
