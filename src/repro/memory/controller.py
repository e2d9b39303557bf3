"""On-chip memory controller.

Models the structures of Fig. 2 that matter to PiPoMonitor:

* the **memory fetch queue**, abstracted as a single channel that
  serialises transfers — each fetch/writeback occupies the channel for
  a burst; a request issued while the channel is busy queues (the wait
  is added to its latency).  This is what makes the paper's prefetch
  *delay* meaningful: an immediate prefetch would contend with the
  writeback of the same evicted line.
* the **DRAM access** itself: Table II's flat latency
  (``dram_latency``, 200 cycles), paid by every fetch.

The controller is shared by demand fetches, writebacks, and
PiPoMonitor prefetches, and it keeps the traffic counters the
experiments report.
"""

from __future__ import annotations

#: Table II: "200-cycle latency" DRAM.
DEFAULT_DRAM_LATENCY = 200

#: Cycles one 64-byte burst occupies the channel.  A 2 GHz core with a
#: ~16 GB/s channel moves 64 B in roughly 8 core cycles.
DEFAULT_BURST_CYCLES = 8


class MemoryController:
    """Serialising memory channel + flat DRAM latency."""

    def __init__(
        self,
        dram_latency: int = DEFAULT_DRAM_LATENCY,
        burst_cycles: int = DEFAULT_BURST_CYCLES,
    ):
        if dram_latency <= 0:
            raise ValueError("dram_latency must be positive")
        if burst_cycles < 1:
            raise ValueError("burst_cycles must be >= 1")
        self.dram_latency = dram_latency
        self.burst_cycles = burst_cycles
        self._channel_free_at = 0
        self.demand_fetches = 0
        self.prefetch_fetches = 0
        self.writebacks = 0
        self.total_queue_wait = 0

    # ------------------------------------------------------------------

    def fetch(self, now: int, prefetch: bool = False) -> int:
        """Fetch one line; return total latency (queue wait + DRAM).

        ``now`` is the cycle the request reaches the controller.  The
        C cache walk ports this arithmetic (``cw_fetch_into_llc``).
        """
        free_at = self._channel_free_at
        start = now if now > free_at else free_at
        wait = start - now
        self._channel_free_at = start + self.burst_cycles
        self.total_queue_wait += wait
        if prefetch:
            self.prefetch_fetches += 1
        else:
            self.demand_fetches += 1
        return wait + self.dram_latency

    def writeback(self, now: int) -> int:
        """Write one line back to memory; returns the queue wait.

        Writebacks are posted (they do not stall the evicting access)
        but they occupy the channel and therefore delay later fetches.
        """
        start = max(now, self._channel_free_at)
        wait = start - now
        self._channel_free_at = start + self.burst_cycles
        self.total_queue_wait += wait
        self.writebacks += 1
        return wait

    # ------------------------------------------------------------------

    @property
    def total_fetches(self) -> int:
        return self.demand_fetches + self.prefetch_fetches

    def channel_free_at(self) -> int:
        """Cycle at which the channel next becomes idle."""
        return self._channel_free_at

    def __repr__(self) -> str:
        return (
            f"MemoryController(fetches={self.total_fetches}, "
            f"writebacks={self.writebacks}, "
            f"dram={self.dram_latency} cycles)"
        )
