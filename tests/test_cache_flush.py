"""Semantics of the ``clflush`` primitive (the flush-attack substrate).

Coherence: a flush must behave like an externally forced eviction —
remove the line from the LLC and every private level, merge the newest
dirty data back to memory, and leave every MESI/inclusion/directory
invariant intact.  Timing: the latency must separate absent, resident,
and dirty lines (the Flush+Flush channel).
"""

import pytest

from repro.cache.hierarchy import (
    CacheHierarchy,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
)

LINE = 64


@pytest.fixture
def hierarchy():
    return CacheHierarchy(num_cores=2, seed=7)


class TestFlushSemantics:
    def test_flush_miss_is_cheap_and_stateless(self, hierarchy):
        before_wb = hierarchy.stats.writebacks_to_memory
        latency = hierarchy.clflush(0, 0x1000)
        assert latency == hierarchy.l1_latency + hierarchy.llc_latency
        assert hierarchy.stats.flushes == 1
        assert hierarchy.stats.flush_hits == 0
        assert hierarchy.stats.writebacks_to_memory == before_wb
        hierarchy.check_invariants()

    def test_flush_removes_line_everywhere(self, hierarchy):
        addr = 0x4000
        hierarchy.access(0, OP_READ, addr)
        hierarchy.access(1, OP_READ, addr)
        line_addr = addr >> hierarchy.mapper.line_bits
        assert hierarchy.holders_of(line_addr)

        latency = hierarchy.clflush(0, addr)
        assert latency == hierarchy.l1_latency + 2 * hierarchy.llc_latency
        assert hierarchy.holders_of(line_addr) == {}
        assert hierarchy.llc.lookup(line_addr) is None
        assert hierarchy.stats.flush_hits == 1
        assert hierarchy.stats.flush_back_invalidations == 2
        hierarchy.check_invariants()

    def test_flush_latency_separates_resident_from_absent(self, hierarchy):
        addr = 0x8000
        hierarchy.access(0, OP_READ, addr)
        hit_latency = hierarchy.clflush(1, addr)
        miss_latency = hierarchy.clflush(1, addr)
        assert hit_latency > miss_latency

    def test_flush_writes_back_dirty_data(self, hierarchy):
        addr = 0xC000
        hierarchy.access(0, OP_WRITE, addr)
        version = hierarchy.read_version(0, addr)
        assert version > 0
        before_wb = hierarchy.stats.writebacks_to_memory

        latency = hierarchy.clflush(1, addr)
        assert latency > hierarchy.l1_latency + 2 * hierarchy.llc_latency
        assert hierarchy.stats.writebacks_to_memory == before_wb + 1
        assert hierarchy.stats.flush_writebacks == 1
        # Memory holds the written version; a later read observes it.
        assert hierarchy.read_version(1, addr) == version
        assert hierarchy.access(1, OP_READ, addr) >= 200  # misses to DRAM
        assert hierarchy.read_version(1, addr) == version
        hierarchy.check_invariants()

    def test_flush_merges_newest_dirty_version_across_cores(self, hierarchy):
        addr = 0x10000
        hierarchy.access(0, OP_WRITE, addr)
        hierarchy.access(1, OP_WRITE, addr)  # invalidates core 0, newer
        version = hierarchy.read_version(1, addr)
        hierarchy.clflush(0, addr)
        assert hierarchy.read_version(0, addr) == version
        hierarchy.check_invariants()

    def test_reload_after_flush_misses_to_memory(self, hierarchy):
        addr = 0x14000
        hierarchy.access(0, OP_READ, addr)
        assert hierarchy.access(0, OP_READ, addr) == hierarchy.l1_latency
        hierarchy.clflush(0, addr)
        assert hierarchy.access(0, OP_READ, addr) >= 200


class TestFlushAccounting:
    def test_flushes_are_not_demand_accesses(self, hierarchy):
        addr = 0x2000
        hierarchy.access(0, OP_READ, addr)
        stats = hierarchy.stats
        accesses = stats.accesses
        latency_total = stats.total_latency
        per_core = list(stats.per_core_accesses)

        hierarchy.clflush(0, addr)
        hierarchy.clflush(0, addr)
        assert stats.accesses == accesses
        assert stats.total_latency == latency_total
        assert stats.per_core_accesses == per_core
        assert stats.flushes == 2
        assert sum(stats.per_core_accesses) == stats.accesses

    def test_flush_does_not_count_llc_eviction(self, hierarchy):
        addr = 0x6000
        hierarchy.access(0, OP_READ, addr)
        evictions = hierarchy.stats.llc_evictions
        back_inv = hierarchy.stats.back_invalidations
        hierarchy.clflush(0, addr)
        assert hierarchy.stats.llc_evictions == evictions
        assert hierarchy.stats.back_invalidations == back_inv
        assert hierarchy.stats.flush_back_invalidations == 1


class TestFlushDispatch:
    def test_access_dispatches_op_flush(self, hierarchy):
        addr = 0x3000
        hierarchy.access(0, OP_READ, addr)
        latency = hierarchy.access(1, OP_FLUSH, addr)
        assert latency == hierarchy.l1_latency + 2 * hierarchy.llc_latency
        assert hierarchy.stats.flushes == 1
        line_addr = addr >> hierarchy.mapper.line_bits
        assert hierarchy.llc.lookup(line_addr) is None

    def test_engine_kernel_matches_serial_flush_stream(self):
        requests = []
        for i in range(400):
            addr = (i % 37) * LINE * 64
            requests.append((i % 2, OP_READ, addr))
            if i % 5 == 0:
                requests.append(((i + 1) % 2, OP_FLUSH, addr))
            if i % 11 == 0:
                requests.append((i % 2, OP_WRITE, addr))
                requests.append(((i + 1) % 2, OP_FLUSH, addr))
        serial = CacheHierarchy(num_cores=2, seed=3)
        kernel_h = CacheHierarchy(num_cores=2, seed=3)
        expected = [serial.access(c, op, a) for c, op, a in requests]
        kernel = kernel_h.engine_access()
        got = [kernel(c, op, a, 0) for c, op, a in requests]
        assert got == expected
        # Under the C cache walk the stats are a batch-synced mirror
        # (PERFORMANCE.md rule 16); a no-op for the python engine.
        kernel_h.engine_sync()
        assert serial.stats == kernel_h.stats
        kernel_h.check_invariants()
