"""Property-based coherence validation.

Random multi-core operation sequences run against the hierarchy; after
every operation we check (a) the MESI/inclusion/directory invariants
and (b) that a read observes the newest write to its address — the
hierarchy's version stamps against a flat reference dictionary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.coherence import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CoherenceViolation,
    check_mesi_invariants,
)
from repro.cache.hierarchy import OP_READ, OP_WRITE, CacheHierarchy
from repro.cache.llc import SlicedLLC
from repro.cache.set_assoc import CacheGeometry
from repro.memory.controller import MemoryController

import pytest


def tiny_hierarchy(num_cores=3):
    """Small enough that random traffic exercises every eviction path."""
    return CacheHierarchy(
        num_cores=num_cores,
        l1_geometry=CacheGeometry(512, 2),        # 4 sets
        l2_geometry=CacheGeometry(2 * 1024, 2),   # 16 sets
        llc=SlicedLLC(size_bytes=8 * 1024, ways=2, num_slices=2, seed=7),
        mc=MemoryController(dram_latency=50),
        seed=7,
    )


operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),       # core
        st.sampled_from([OP_READ, OP_WRITE]),        # op
        st.integers(min_value=0, max_value=63),      # line number
    ),
    min_size=1,
    max_size=120,
)


class TestCoherenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_reads_observe_newest_write(self, ops):
        h = tiny_hierarchy()
        reference: dict[int, int] = {}
        writes = 0
        for core, op, line in ops:
            addr = line * 64
            h.access(core, op, addr)
            if op == OP_WRITE:
                writes += 1
                reference[line] = writes
            observed = h.read_version(core, addr)
            assert observed == reference.get(line, 0), (
                f"core {core} observed stale version for line {line}"
            )

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_invariants_after_every_operation(self, ops):
        h = tiny_hierarchy()
        for core, op, line in ops:
            h.access(core, op, line * 64)
            h.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_all_cores_agree_on_final_values(self, ops):
        h = tiny_hierarchy()
        reference: dict[int, int] = {}
        writes = 0
        for core, op, line in ops:
            h.access(core, op, line * 64)
            if op == OP_WRITE:
                writes += 1
                reference[line] = writes
        for line, version in reference.items():
            for core in range(h.num_cores):
                assert h.read_version(core, line * 64) == version

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_monotonic_counters(self, ops):
        h = tiny_hierarchy()
        for core, op, line in ops:
            h.access(core, op, line * 64)
        s = h.stats
        assert s.accesses == len(ops)
        assert s.l1_hits + s.l1_misses == s.accesses
        assert s.l2_hits + s.l2_misses == s.l1_misses
        assert s.llc_hits + s.llc_misses == s.l2_misses
        assert h.mc.demand_fetches == s.llc_misses


class TestMesiCheckerItself:
    """The invariant checker must reject broken states."""

    def test_accepts_single_modified(self):
        check_mesi_invariants({0: MODIFIED})

    def test_accepts_many_shared(self):
        check_mesi_invariants({0: SHARED, 1: SHARED, 2: SHARED})

    def test_rejects_two_modified(self):
        with pytest.raises(CoherenceViolation):
            check_mesi_invariants({0: MODIFIED, 1: MODIFIED})

    def test_rejects_modified_plus_shared(self):
        with pytest.raises(CoherenceViolation):
            check_mesi_invariants({0: MODIFIED, 1: SHARED})

    def test_rejects_exclusive_plus_shared(self):
        with pytest.raises(CoherenceViolation):
            check_mesi_invariants({0: EXCLUSIVE, 1: SHARED})

    def test_rejects_unknown_state(self):
        with pytest.raises(CoherenceViolation):
            check_mesi_invariants({0: 9})
