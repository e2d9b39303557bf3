#!/usr/bin/env python
"""Performance study on one Table III mix.

Runs a SPEC-mix model on the quad-core system with and without
PiPoMonitor and reports the Fig. 8 quantities: normalized performance,
false positives per million instructions, and the cache/memory traffic
behind them.

Run:  python examples/performance_study.py [mix] [instructions]
"""

import sys
import time

from repro.cpu.system import build_system, run_system, run_workloads
from repro.experiments.common import (
    scaled_mix_workloads,
    scaled_system_config,
)
from repro.workloads.mixes import TABLE_III_MIXES


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "mix1"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000
    components = TABLE_III_MIXES[mix]
    print(f"{mix}: {'-'.join(components)}")
    print(f"{instructions:,} instructions per core "
          "(uniformly scaled Table II system)\n")

    workloads = scaled_mix_workloads(mix)
    started = time.time()
    baseline = run_workloads(
        scaled_system_config(monitor_enabled=False),
        workloads, instructions, seed=0,
    )
    system, monitor = build_system(scaled_system_config(), workloads, seed=0)
    defended = run_system(system, instructions)
    elapsed = time.time() - started

    stats = defended.monitor_stats
    fp = stats.false_positives_per_million_instructions(
        defended.total_instructions
    )
    print(f"{'':24}{'baseline':>14}{'PiPoMonitor':>14}")
    print(f"{'mean core time (cyc)':24}{baseline.mean_time:>14,.0f}"
          f"{defended.mean_time:>14,.0f}")
    print(f"{'LLC miss rate':24}{baseline.stats.llc_miss_rate:>14.4f}"
          f"{defended.stats.llc_miss_rate:>14.4f}")
    print(f"{'memory fetches':24}{baseline.stats.llc_misses:>14,}"
          f"{defended.stats.llc_misses:>14,}")
    print()
    print(f"normalized performance : "
          f"{baseline.mean_time / defended.mean_time:.5f} "
          "(>1 means PiPoMonitor is faster)")
    print(f"captures               : {stats.captures}")
    print(f"false positives        : {fp:.1f} per Minsn "
          "(Fig. 8b metric)")
    print(f"prefetches issued      : {stats.prefetches_issued} "
          f"({stats.suppressed_unaccessed} suppressed by the "
          "accessed-bit rule)")
    print(f"filter occupancy       : {monitor.filter.occupancy():.1%}")
    print(f"\n[simulated in {elapsed:.1f}s wall time]")


if __name__ == "__main__":
    main()
