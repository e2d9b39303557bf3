"""Memory-side substrate: the on-chip memory controller that hosts
PiPoMonitor (Fig. 2 of the paper places the monitor inside the MC,
observing the memory fetch queue) in front of Table II's flat
200-cycle DRAM."""

from repro.memory.controller import MemoryController

__all__ = ["MemoryController"]
