"""Unit tests for the memory controller."""

import pytest

from repro.memory.controller import MemoryController


class TestMemoryController:
    def test_fetch_latency_includes_dram(self):
        mc = MemoryController(dram_latency=200, burst_cycles=8)
        assert mc.fetch(now=0) == 200

    def test_back_to_back_fetches_queue(self):
        mc = MemoryController(dram_latency=200, burst_cycles=8)
        first = mc.fetch(now=0)
        second = mc.fetch(now=0)
        assert first == 200
        assert second == 200 + 8  # waited one burst
        assert mc.total_queue_wait == 8

    def test_spaced_fetches_do_not_queue(self):
        mc = MemoryController(dram_latency=200, burst_cycles=8)
        mc.fetch(now=0)
        assert mc.fetch(now=100) == 200

    def test_writeback_occupies_channel(self):
        mc = MemoryController(dram_latency=200, burst_cycles=8)
        mc.writeback(now=0)
        assert mc.fetch(now=0) == 208
        assert mc.writebacks == 1

    def test_fetch_kind_counters(self):
        mc = MemoryController()
        mc.fetch(now=0)
        mc.fetch(now=0, prefetch=True)
        assert mc.demand_fetches == 1
        assert mc.prefetch_fetches == 1
        assert mc.total_fetches == 2

    def test_channel_free_at_advances(self):
        mc = MemoryController(burst_cycles=8)
        assert mc.channel_free_at() == 0
        mc.fetch(now=10)
        assert mc.channel_free_at() == 18

    def test_rejects_bad_dram_latency(self):
        with pytest.raises(ValueError):
            MemoryController(dram_latency=0)

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            MemoryController(burst_cycles=0)
