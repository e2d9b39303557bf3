"""Monitor eviction hooks on the flush path.

A flush-induced invalidation must raise ``on_llc_eviction`` with the
same ``needs_all_evictions`` gating as a capacity eviction, and
**exactly once** per flushed line — the flush removes the line from
the LLC, so the capacity path cannot fire a second pEvict for it, and
the tagged-line counters (pEvicts, scheduled prefetches) advance by
exactly one per flush of a tagged-and-accessed line.
"""

import pytest

from repro.baselines.bitp import BitpPrefetcher
from repro.cache.hierarchy import CacheHierarchy, OP_READ
from repro.cache.line import PINGPONG
from repro.core.config import TABLE_II
from repro.core.pipomonitor import PiPoMonitor
from repro.utils.events import EventQueue


class RecordingMonitor:
    """Counts hook invocations; gating is configurable."""

    def __init__(self, needs_all_evictions):
        self.needs_all_evictions = needs_all_evictions
        self.evicted = []

    def attach(self, hierarchy):
        self.hierarchy = hierarchy
        hierarchy.monitor = self

    def on_access(self, line_addr, now):
        return False

    def on_llc_eviction(self, line, now):
        self.evicted.append((line.addr, line.pingpong, line.sharers))


def _tag_line(hierarchy, line_addr):
    lmap = hierarchy.llc.slice_for(line_addr)._map
    lmap[line_addr] |= PINGPONG


class TestHookGating:
    @pytest.mark.parametrize("needs_all", [True, False])
    def test_untagged_flush_respects_gating(self, needs_all):
        hierarchy = CacheHierarchy(num_cores=2, seed=1)
        monitor = RecordingMonitor(needs_all)
        monitor.attach(hierarchy)
        addr = 0x5000
        hierarchy.access(0, OP_READ, addr)
        hierarchy.clflush(1, addr)
        assert len(monitor.evicted) == (1 if needs_all else 0)

    @pytest.mark.parametrize("needs_all", [True, False])
    def test_tagged_flush_fires_exactly_once(self, needs_all):
        hierarchy = CacheHierarchy(num_cores=2, seed=1)
        monitor = RecordingMonitor(needs_all)
        monitor.attach(hierarchy)
        addr = 0x9000
        hierarchy.access(0, OP_READ, addr)
        line_addr = addr >> hierarchy.mapper.line_bits
        _tag_line(hierarchy, line_addr)

        hierarchy.clflush(1, addr)
        tagged = [entry for entry in monitor.evicted if entry[0] == line_addr]
        assert len(tagged) == 1
        assert tagged[0][1] is True          # pingpong visible to the hook
        assert tagged[0][2] != 0             # directory state still intact
        # The line is gone; a repeated flush cannot double-count.
        hierarchy.clflush(1, addr)
        assert [e for e in monitor.evicted if e[0] == line_addr] == tagged


class TestPiPoMonitorFlushPath:
    def _captured_system(self):
        """Drive one line to capture via repeated flush+refetch: each
        refetch after a flush is a demand miss, i.e. a filter Access."""
        hierarchy = TABLE_II.build_hierarchy(seed=9)
        events = EventQueue()
        monitor = PiPoMonitor(TABLE_II.filter.build(seed=10), events)
        monitor.attach(hierarchy)
        addr = 0x7000
        line_addr = addr >> hierarchy.mapper.line_bits
        # Accesses respond 0,1,2,3 — the 4th demand fetch captures.
        for _ in range(4):
            hierarchy.access(0, OP_READ, addr)
            if monitor.stats.captures == 0:
                hierarchy.clflush(0, addr)
        assert monitor.stats.captures == 1
        view = hierarchy.llc.lookup(line_addr)
        assert view is not None and view.pingpong and view.accessed
        return hierarchy, monitor, events, addr, line_addr

    def test_flushed_tagged_line_pevicts_exactly_once(self):
        hierarchy, monitor, events, addr, line_addr = self._captured_system()
        assert monitor.stats.pevicts == 0

        hierarchy.clflush(1, addr, now=100)
        assert monitor.stats.pevicts == 1
        assert monitor.stats.prefetches_scheduled == 1
        # The flush emptied the LLC slot; nothing left to pEvict twice.
        assert hierarchy.llc.lookup(line_addr) is None
        hierarchy.clflush(1, addr, now=200)
        assert monitor.stats.pevicts == 1

        # The prefetch response restores the line, tagged + unaccessed.
        events.run_until(100 + monitor.prefetch_delay)
        assert monitor.stats.prefetches_issued == 1
        view = hierarchy.llc.lookup(line_addr)
        assert view is not None and view.pingpong and not view.accessed

    def test_unaccessed_prefetched_line_is_not_reprefetched(self):
        hierarchy, monitor, events, addr, line_addr = self._captured_system()
        hierarchy.clflush(1, addr, now=100)
        events.run_until(100 + monitor.prefetch_delay)
        # Flush the prefetched (never re-touched) line: the no-endless-
        # prefetch rule must suppress, not schedule.
        hierarchy.clflush(1, addr, now=5000)
        assert monitor.stats.suppressed_unaccessed == 1
        assert monitor.stats.pevicts == 1
        assert monitor.stats.prefetches_scheduled == 1


class TestBitpFlushPath:
    def test_flush_back_invalidation_triggers_bitp(self):
        hierarchy = CacheHierarchy(num_cores=2, seed=4)
        events = EventQueue()
        bitp = BitpPrefetcher(events, prefetch_delay=40)
        bitp.attach(hierarchy)
        addr = 0xA000
        hierarchy.access(0, OP_READ, addr)

        hierarchy.clflush(1, addr, now=10)
        assert bitp.stats.pevicts == 1
        events.run_until(50)
        assert bitp.stats.prefetches_issued == 1
        line_addr = addr >> hierarchy.mapper.line_bits
        view = hierarchy.llc.lookup(line_addr)
        assert view is not None and not view.pingpong  # BITP fills untagged

    def test_flush_of_unshared_line_is_ignored(self):
        hierarchy = CacheHierarchy(num_cores=2, seed=4)
        events = EventQueue()
        bitp = BitpPrefetcher(events, prefetch_delay=40)
        bitp.attach(hierarchy)
        # A prefetch fill creates an LLC line with no private sharers.
        hierarchy.prefetch_fill(0x123, now=0, tag=False)
        hierarchy.clflush(0, 0x123 << hierarchy.mapper.line_bits, now=10)
        assert bitp.stats.pevicts == 0
