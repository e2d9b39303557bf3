"""Cross-core Prime+Probe on the shared LLC (Section VI-A).

The attacker owns one core, the victim another.  Every ``probe_period``
cycles (5000 in the paper) the attacker walks one eviction set per
monitored target line and times each load; a load above the miss
threshold means the set lost a line since the last probe — i.e. the
victim (or a defense's prefetch) touched the congruent target.

Both attacker and victim self-clock — they count yielded compute plus
returned latencies — so probe *i* lands at the end of the window in
which the victim processed key bit *i*, keeping the timeline aligned
without any side information.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.attacks.evictionset import build_eviction_set
from repro.attacks.victim import SquareMultiplyVictim, random_key
from repro.cache.hierarchy import OP_READ
from repro.core.config import SystemConfig, TABLE_II
from repro.cpu.core import WorkloadGenerator
from repro.cpu.multicore import SimulationResult
from repro.cpu.system import build_system, run_system
from repro.workloads.base import Workload, core_data_base

#: Latency separating an LLC hit (2+18+35 = 55) from a memory access
#: (≥ 255) in the Table II configuration.
DEFAULT_MISS_THRESHOLD = 150

ATTACKER_CORE = 0
VICTIM_CORE = 1


@dataclass(frozen=True)
class ProbeObservation:
    """One eviction-set probe."""

    iteration: int
    target_index: int
    misses: int
    clock: int

    @property
    def observed(self) -> bool:
        """True when the probe saw at least one evicted line — the
        attacker's 'victim accessed the target' signal (a Fig. 6 dot)."""
        return self.misses > 0


class PrimeProbeAttacker(Workload):
    """The probing workload.  ``eviction_sets`` must be assigned before
    the generator is first advanced (they depend on the built LLC)."""

    name = "prime-probe-attacker"

    def __init__(
        self,
        iterations: int,
        probe_period: int = 5000,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
    ):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if probe_period < 1:
            raise ValueError("probe_period must be >= 1")
        self.iterations = iterations
        self.probe_period = probe_period
        self.miss_threshold = miss_threshold
        self.eviction_sets: list[list[int]] | None = None
        self.observations: list[ProbeObservation] = []

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        if self.eviction_sets is None:
            raise RuntimeError(
                "eviction_sets must be assigned before the attack runs"
            )
        clock = 0
        # Prime: fill every monitored set with attacker lines.
        for eviction_set in self.eviction_sets:
            for address in eviction_set:
                latency = yield 0, OP_READ, address
                clock += latency
        for iteration in range(self.iterations):
            # Wait until the end of the victim's iteration window.
            wait = (iteration + 1) * self.probe_period - clock
            if wait > 0:
                yield wait, None, 0
                clock += wait
            # Probe (and thereby re-prime) each eviction set.  The walk
            # direction alternates every round (zigzag): probing in the
            # same order as the previous prime makes the refetch of the
            # one missing line evict the next line about to be probed —
            # a self-eviction cascade that destroys the measurement
            # under LRU.  Reversing direction each round leaves exactly
            # the victim's line as the LRU choice.
            for target_index, eviction_set in enumerate(self.eviction_sets):
                walk = (
                    eviction_set if iteration % 2 else list(reversed(eviction_set))
                )
                misses = 0
                for address in walk:
                    latency = yield 0, OP_READ, address
                    clock += latency
                    if latency >= self.miss_threshold:
                        misses += 1
                self.observations.append(
                    ProbeObservation(iteration, target_index, misses, clock)
                )

    def observed_matrix(self) -> list[list[bool]]:
        """``matrix[target_index][iteration]`` → observed flag."""
        n_targets = len(self.eviction_sets or [])
        matrix = [[False] * self.iterations for _ in range(n_targets)]
        for obs in self.observations:
            matrix[obs.target_index][obs.iteration] = obs.observed
        return matrix


@dataclass
class AttackResult:
    """Everything Fig. 6 needs, for one configuration."""

    monitor_enabled: bool
    iterations: int
    key_bits: list[int]
    square_observed: list[bool]
    multiply_observed: list[bool]
    observations: list[ProbeObservation]
    monitor_stats: object | None
    simulation: SimulationResult
    extra: dict = field(default_factory=dict)


def run_prime_probe_attack(
    monitor_enabled: bool = True,
    iterations: int = 100,
    seed: int = 0,
    config: SystemConfig | None = None,
    probe_period: int = 5000,
    key: list[int] | None = None,
    detection=None,
) -> AttackResult:
    """Run the full Fig. 6 scenario on the Table II system.

    The victim's square/multiply entry lines are probed for
    ``iterations`` attack iterations; returns the per-iteration
    observation timeline plus ground truth.  ``detection`` (a
    :class:`repro.detection.DetectionSpec`, requires the monitor)
    deploys the online detection-and-response subsystem; its report
    lands in ``simulation.extra["detection"]``.

    The system is assembled by :func:`repro.cpu.system.build_system`
    and run by :func:`repro.cpu.system.run_system`, so the simulation
    carries the same engine stamp as every other run.  The eviction
    sets are computed from the built LLC between the two steps; the
    attacker's generator reads them on its first record.
    """
    base_config = config if config is not None else TABLE_II
    system_config = replace(base_config, monitor_enabled=monitor_enabled)
    if key is None:
        key = random_key(iterations, seed)
    victim = SquareMultiplyVictim(
        key, iteration_cycles=probe_period,
        repetitions=max(1, -(-(iterations + 2) // len(key))),
    )
    attacker = PrimeProbeAttacker(iterations, probe_period=probe_period)

    system, _ = build_system(
        system_config, [attacker, victim], seed, seed_label="attack",
        pad_idle=True, detection=detection,
    )
    targets = [
        victim.square_address(VICTIM_CORE),
        victim.multiply_address(VICTIM_CORE),
    ]
    attacker.eviction_sets = [
        build_eviction_set(
            system.hierarchy.llc, target, core_data_base(ATTACKER_CORE)
        )
        for target in targets
    ]
    simulation = run_system(system, None)

    matrix = attacker.observed_matrix()
    return AttackResult(
        monitor_enabled=monitor_enabled,
        iterations=iterations,
        key_bits=victim.ground_truth(iterations),
        square_observed=matrix[0],
        multiply_observed=matrix[1],
        observations=attacker.observations,
        monitor_stats=simulation.monitor_stats,
        simulation=simulation,
        extra={
            "eviction_set_sizes": [len(s) for s in attacker.eviction_sets],
            "llc_evictions": simulation.stats.llc_evictions,
        },
    )
