"""Flush-based cross-core attacks: Flush+Reload and Flush+Flush.

Both attacks target *shared* lines directly (the shared-library threat
model of Yarom & Falkner / Gruss et al.) instead of building eviction
sets, using the hierarchy's ``clflush`` primitive:

* **Flush+Reload** — flush the target, wait one victim window, reload
  it and time the load: a fast reload (LLC hit) means somebody brought
  the line back, i.e. the victim executed it.  The reload itself is a
  demand fetch, so the attack is *loud*: every probe of an un-touched
  line reaches memory and therefore the PiPoMonitor filter.
* **Flush+Flush** — never reload; time the *flush itself*.  A flush of
  a resident line pays the invalidation round trip, a flush of an
  absent line only the directory probe (see
  :meth:`repro.cache.hierarchy.CacheHierarchy.clflush`).  The attacker
  causes no demand fetches of its own — the stealthy variant whose
  only filter-visible traffic is the victim's refetches.

Defences observe flushes through the eviction hook: flushing a tagged
line raises the same pEvict a capacity eviction would, so PiPoMonitor's
prefetch response obfuscates flush probes exactly like Prime+Probe
probes, and BITP reacts to the flush-induced back-invalidations.

``run_flush_attack`` runs the full Fig. 9 scenario: the square-and-
multiply victim on one core, a flush attacker on another, any defence
from :mod:`repro.baselines.registry` on the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.victim import SquareMultiplyVictim, random_key
from repro.cache.hierarchy import OP_FLUSH, OP_READ
from repro.core.config import SystemConfig, TABLE_II
from repro.cpu.multicore import SimulationResult
from repro.cpu.system import run_workloads
from repro.workloads.base import Workload

#: Reload-latency threshold separating an LLC hit (55 cycles in the
#: Table II configuration) from a memory access (>= 255) — same figure
#: Prime+Probe uses.
DEFAULT_MISS_THRESHOLD = 150

#: Flush-latency threshold separating a flush of an absent line
#: (l1 + llc = 37 cycles) from a flush that had to invalidate a
#: resident copy (l1 + 2*llc = 72, more when dirty) — the Flush+Flush
#: timing channel.
DEFAULT_FLUSH_HIT_THRESHOLD = 55

ATTACKER_CORE = 0
VICTIM_CORE = 1


@dataclass(frozen=True)
class FlushProbe:
    """One timed probe (a reload or a flush) of one target line."""

    iteration: int
    target_index: int
    latency: int
    hit: bool
    clock: int


class _FlushAttackerBase(Workload):
    """Shared plumbing of the two flush attackers.

    ``targets`` (byte addresses of the victim's secret-dependent
    lines) must be assigned before the generator is first advanced.
    Flush attackers time their probes, so the C emitter, which feeds
    no latency back, never runs them.
    """

    def __init__(
        self,
        iterations: int,
        probe_period: int = 5000,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        flush_hit_threshold: int = DEFAULT_FLUSH_HIT_THRESHOLD,
    ):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if probe_period < 1:
            raise ValueError("probe_period must be >= 1")
        self.iterations = iterations
        self.probe_period = probe_period
        self.miss_threshold = miss_threshold
        self.flush_hit_threshold = flush_hit_threshold
        self.targets: list[int] | None = None
        self.observations: list[FlushProbe] = []

    def _require_targets(self) -> list[int]:
        if self.targets is None:
            raise RuntimeError(
                "targets must be assigned before the attack runs"
            )
        return self.targets

    def observed_matrix(self) -> list[list[bool]]:
        """``matrix[target_index][iteration]`` → probe saw the line."""
        n_targets = len(self.targets or [])
        matrix = [[False] * self.iterations for _ in range(n_targets)]
        for obs in self.observations:
            matrix[obs.target_index][obs.iteration] = obs.hit
        return matrix


class FlushReloadAttacker(_FlushAttackerBase):
    """Per window: reload each target (timed), then flush it again."""

    name = "flush-reload-attacker"

    def generator(self, core_id: int, seed: int):
        targets = self._require_targets()
        clock = 0
        # Initial flush: start every window from an evicted state.
        for target in targets:
            clock += yield 0, OP_FLUSH, target
        for iteration in range(self.iterations):
            wait = (iteration + 1) * self.probe_period - clock
            if wait > 0:
                yield wait, None, 0
                clock += wait
            for index, target in enumerate(targets):
                latency = yield 0, OP_READ, target
                clock += latency
                self.observations.append(
                    FlushProbe(
                        iteration, index, latency,
                        latency < self.miss_threshold, clock,
                    )
                )
                # Re-arm for the next window.
                clock += yield 0, OP_FLUSH, target


class FlushFlushAttacker(_FlushAttackerBase):
    """Per window: flush each target and time the flush itself.

    The probe *is* the re-arm — the attacker never issues a demand
    fetch, so the only filter-visible traffic is the victim's own
    refetches (Gruss et al.'s stealth property).
    """

    name = "flush-flush-attacker"

    def generator(self, core_id: int, seed: int):
        targets = self._require_targets()
        clock = 0
        for target in targets:
            clock += yield 0, OP_FLUSH, target
        for iteration in range(self.iterations):
            wait = (iteration + 1) * self.probe_period - clock
            if wait > 0:
                yield wait, None, 0
                clock += wait
            for index, target in enumerate(targets):
                latency = yield 0, OP_FLUSH, target
                clock += latency
                self.observations.append(
                    FlushProbe(
                        iteration, index, latency,
                        latency >= self.flush_hit_threshold, clock,
                    )
                )


class AdaptiveFlushReloadAttacker(FlushReloadAttacker):
    """Flush+Reload that *reacts to the defence*: when its probes come
    back throttled it backs off.

    The attacker knows its own baseline timings (reload miss ≈ memory
    latency).  A reload far above that — ``throttle_threshold``,
    defaulting to well past any unthrottled miss — means the OS's
    ``throttle_core`` response is active, so the attacker goes quiet
    for ``backoff_windows`` windows before resuming, trading
    observations for stealth (the evasion the detection subsystem's
    rate detectors must still catch, and the fig10 response table
    quantifies as probe-rate reduction).
    """

    name = "adaptive-flush-reload-attacker"

    def __init__(
        self,
        iterations: int,
        probe_period: int = 5000,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        flush_hit_threshold: int = DEFAULT_FLUSH_HIT_THRESHOLD,
        throttle_threshold: int = 350,
        backoff_windows: int = 4,
    ):
        super().__init__(
            iterations,
            probe_period=probe_period,
            miss_threshold=miss_threshold,
            flush_hit_threshold=flush_hit_threshold,
        )
        if throttle_threshold < 1:
            raise ValueError("throttle_threshold must be >= 1")
        if backoff_windows < 1:
            raise ValueError("backoff_windows must be >= 1")
        self.throttle_threshold = throttle_threshold
        self.backoff_windows = backoff_windows
        self.backoff_events = 0
        self.windows_probed = 0
        self.windows_skipped = 0

    @property
    def probe_rate(self) -> float:
        """Fraction of windows actually probed (1.0 = full rate)."""
        total = self.windows_probed + self.windows_skipped
        return self.windows_probed / total if total else 0.0

    def generator(self, core_id: int, seed: int):
        targets = self._require_targets()
        clock = 0
        for target in targets:
            clock += yield 0, OP_FLUSH, target
        skip_until = -1
        for iteration in range(self.iterations):
            wait = (iteration + 1) * self.probe_period - clock
            if wait > 0:
                yield wait, None, 0
                clock += wait
            if iteration <= skip_until:
                # Backing off: stay silent this window (no probes, no
                # re-arm — nothing for the monitor or the OS to see).
                self.windows_skipped += 1
                continue
            self.windows_probed += 1
            throttled = False
            for index, target in enumerate(targets):
                latency = yield 0, OP_READ, target
                clock += latency
                if latency >= self.throttle_threshold:
                    throttled = True
                self.observations.append(
                    FlushProbe(
                        iteration, index, latency,
                        latency < self.miss_threshold, clock,
                    )
                )
                clock += yield 0, OP_FLUSH, target
            if throttled:
                self.backoff_events += 1
                skip_until = iteration + self.backoff_windows


ATTACK_KINDS = {
    "flush_reload": FlushReloadAttacker,
    "flush_flush": FlushFlushAttacker,
    "adaptive_flush_reload": AdaptiveFlushReloadAttacker,
}


@dataclass
class FlushAttackResult:
    """Everything Fig. 9 needs, for one (attack, defence) cell."""

    kind: str
    defence: str
    iterations: int
    key_bits: list[int]
    square_observed: list[bool]
    multiply_observed: list[bool]
    observations: list[FlushProbe]
    monitor_stats: object | None
    simulation: SimulationResult
    extra: dict = field(default_factory=dict)


def run_flush_attack(
    kind: str = "flush_reload",
    defence: str = "none",
    iterations: int = 100,
    seed: int = 0,
    config: SystemConfig | None = None,
    probe_period: int = 5000,
    key: list[int] | None = None,
    detection=None,
) -> FlushAttackResult:
    """Run one flush attack against one defence on the Table II system.

    ``kind`` is ``"flush_reload"``, ``"flush_flush"``, or
    ``"adaptive_flush_reload"``; ``defence`` is any name from
    :data:`repro.baselines.registry.DEFENCES`.  ``detection`` (a
    :class:`repro.detection.DetectionSpec`) deploys the online
    detection-and-response subsystem; its report lands in
    ``result.simulation.extra["detection"]``.
    """
    if kind not in ATTACK_KINDS:
        raise ValueError(
            f"unknown attack kind {kind!r} (expected one of "
            f"{sorted(ATTACK_KINDS)})"
        )
    config = config if config is not None else TABLE_II
    if key is None:
        key = random_key(iterations, seed)
    victim = SquareMultiplyVictim(
        key, iteration_cycles=probe_period,
        repetitions=max(1, -(-(iterations + 2) // len(key))),
    )
    attacker = ATTACK_KINDS[kind](iterations, probe_period=probe_period)
    attacker.targets = [
        victim.square_address(VICTIM_CORE),
        victim.multiply_address(VICTIM_CORE),
    ]

    workloads: list[Workload] = [attacker, victim]
    simulation = run_workloads(
        config, workloads, None, seed=seed, defence=defence,
        seed_label="flush", pad_idle=True, detection=detection,
    )

    matrix = attacker.observed_matrix()
    extra = {
        "flushes": simulation.stats.flushes,
        "flush_hits": simulation.stats.flush_hits,
    }
    if isinstance(attacker, AdaptiveFlushReloadAttacker):
        extra["probe_rate"] = attacker.probe_rate
        extra["backoff_events"] = attacker.backoff_events
        extra["windows_probed"] = attacker.windows_probed
        extra["windows_skipped"] = attacker.windows_skipped
    return FlushAttackResult(
        kind=kind,
        defence=defence,
        iterations=iterations,
        key_bits=victim.ground_truth(iterations),
        square_observed=matrix[0],
        multiply_observed=matrix[1],
        observations=attacker.observations,
        monitor_stats=simulation.monitor_stats,
        simulation=simulation,
        extra=extra,
    )
