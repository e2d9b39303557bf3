"""Synthetic models of the SPEC CPU2006 benchmarks used in Table III.

Each profile picks an archetype from :mod:`repro.workloads.synthetic`
and calibrates working-set size, memory-operation density, and write
share to the benchmark's published memory behaviour (working-set /
miss-rate characterisations from the SPEC CPU2006 literature).  The
absolute numbers matter less than the *regimes*:

* ``libquantum``/``milc`` — streaming sweeps over multi-megabyte arrays:
  every sweep re-fetches the same lines through the LLC, the classic
  benign Ping-Pong producer (hence mix1/mix7's high false-positive
  counts in Fig. 8b).
* ``mcf``/``astar``       — pointer chasing over large graphs: high miss
  rates, little for a prefetcher to exploit.
* ``gobmk``/``sjeng``/``hmmer``/``calculix``/``gromacs`` — (near-)cache-
  resident: almost no LLC misses, unaffected by PiPoMonitor.
* ``sphinx3``/``bzip2``/``gcc``/``h264ref`` — intermediate working sets
  with mixed locality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.base import Workload, WorkloadGenerator
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class BenchmarkProfile:
    """Calibration record for one SPEC benchmark.

    ``conflict_lines``/``conflict_fraction`` model the benchmark's hot
    strided lines that collide in one LLC set and conflict-miss among
    themselves — the benign Ping-Pong traffic behind Fig. 8(b)'s
    false-positive counts.  Cache-resident benchmarks set 0.
    """

    name: str
    pattern: str                 # stream | pointer | random | stencil | hotcold
    working_set_bytes: int
    mem_fraction: float
    write_fraction: float
    hot_bytes: int | None = None
    hot_probability: float = 0.9
    conflict_lines: int = 0
    conflict_fraction: float = 0.0
    accesses_per_line: int = 4

    def build(self, conflict_stride_bytes: int = 64 * 1024) -> Workload:
        """Instantiate the synthetic workload for this benchmark.

        ``conflict_stride_bytes`` must equal one LLC slice-set stride
        (sets_per_slice × 64 B) of the simulated system so the conflict
        lines are actually congruent; the default matches the full
        Table II LLC.
        """
        common = dict(
            working_set_bytes=self.working_set_bytes,
            mem_fraction=self.mem_fraction,
            write_fraction=self.write_fraction,
            conflict_lines=self.conflict_lines,
            conflict_fraction=self.conflict_fraction,
            conflict_stride_bytes=conflict_stride_bytes,
            accesses_per_line=self.accesses_per_line,
            name=self.name,
        )
        if self.pattern == "stream":
            return StreamWorkload(**common)
        if self.pattern == "pointer":
            return PointerChaseWorkload(**common)
        if self.pattern == "random":
            return RandomWorkload(**common)
        if self.pattern == "stencil":
            return StencilWorkload(**common)
        if self.pattern == "hotcold":
            return HotColdWorkload(
                hot_bytes=self.hot_bytes,
                hot_probability=self.hot_probability,
                **common,
            )
        raise ValueError(f"unknown pattern {self.pattern!r}")


#: The 13 benchmarks Table III draws from.
BENCHMARK_PROFILES: dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in (
        BenchmarkProfile("libquantum", "stream", 8 * MIB, 0.30, 0.25,
                         conflict_lines=96, conflict_fraction=0.032,
                         accesses_per_line=8),
        BenchmarkProfile("milc", "stream", 12 * MIB, 0.32, 0.25,
                         conflict_lines=96, conflict_fraction=0.024,
                         accesses_per_line=6),
        BenchmarkProfile("mcf", "pointer", 16 * MIB, 0.35, 0.15,
                         conflict_lines=96, conflict_fraction=0.010,
                         accesses_per_line=5),
        BenchmarkProfile("astar", "pointer", 4 * MIB, 0.30, 0.15,
                         conflict_lines=96, conflict_fraction=0.008,
                         accesses_per_line=5),
        BenchmarkProfile("gcc", "random", 3 * MIB, 0.28, 0.25,
                         conflict_lines=96, conflict_fraction=0.014,
                         accesses_per_line=4),
        BenchmarkProfile("sjeng", "random", 1 * MIB, 0.25, 0.20),
        BenchmarkProfile(
            "sphinx3", "hotcold", 4 * MIB, 0.30, 0.10,
            hot_bytes=512 * KIB, hot_probability=0.85,
            conflict_lines=96, conflict_fraction=0.016,
        ),
        BenchmarkProfile(
            "bzip2", "hotcold", 6 * MIB, 0.28, 0.30,
            hot_bytes=1 * MIB, hot_probability=0.8,
            conflict_lines=96, conflict_fraction=0.007,
        ),
        BenchmarkProfile(
            "gobmk", "hotcold", 512 * KIB, 0.25, 0.20,
            hot_bytes=128 * KIB, hot_probability=0.9,
        ),
        BenchmarkProfile(
            "gromacs", "hotcold", 768 * KIB, 0.30, 0.25,
            hot_bytes=256 * KIB, hot_probability=0.9,
        ),
        BenchmarkProfile("hmmer", "stream", 256 * KIB, 0.40, 0.30),
        BenchmarkProfile("calculix", "stream", 512 * KIB, 0.35, 0.25),
        BenchmarkProfile("h264ref", "stencil", 2 * MIB, 0.33, 0.25,
                         conflict_lines=96, conflict_fraction=0.005),
    )
}


class SpecWorkload(Workload):
    """Named wrapper so results report the benchmark, not the archetype."""

    def __init__(self, profile: BenchmarkProfile,
                 conflict_stride_bytes: int = 64 * 1024):
        self.profile = profile
        self.name = profile.name
        # The inner synthetic stream carries this wrapper's name, and
        # therefore the same RNG derivation: it is the single source of
        # records, in Python and in C.
        self._inner = profile.build(conflict_stride_bytes)

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        return self._inner.generator(core_id, seed)

    def emitter_state(self, core_id: int, seed: int) -> dict | None:
        # Exact class only: a subclass may override the stream.
        if type(self) is not SpecWorkload:
            return None
        return self._inner.emitter_state(core_id, seed)


def spec_workload(name: str) -> SpecWorkload:
    """Look up a benchmark model by SPEC name (e.g. ``"libquantum"``)."""
    try:
        profile = BENCHMARK_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; "
            f"known: {sorted(BENCHMARK_PROFILES)}"
        ) from None
    return SpecWorkload(profile)
