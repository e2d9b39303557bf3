"""The benchmark's three workloads and the catalogue their inputs come from.

A *unit* is the smallest piece of work with its own reference digest:
one fig8 cell, one campaign, or one LSM batch.  A *round* is every unit
of one catalogue index.  A benchmark seed picks the catalogue index of
each round (``catalogue_index``), so any seed replays inputs whose
digests are stored in ``references.json``, and every round has the
same composition: a run's figures do not depend on which seed drew a
cheap or an expensive mix of inputs.  Indices at or past
``CATALOGUE_SIZE`` are held back: nothing is stored for them, so a run
on them prints its digests for a side-by-side comparison instead.

Every unit runs through the simulator's public entry points with
``jobs=1``; each builds its own system, so the modelled caches start
empty in every cell and every tenant.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
import warnings
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from repro.cpu.system import run_workloads
from repro.experiments import campaign
from repro.experiments.common import scaled_mix_workloads, scaled_system_config
from repro.utils.rng import derive_seed
from repro.workloads.lsm import LSMFilterTree, ZipfRanks, probe_key, resident_key

#: Catalogue indices with stored reference digests.
CATALOGUE_SIZE = 16


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``bench`` is what the benchmark measures; ``tiny``
    keeps the benchmark's own tests fast."""

    fig8_insns: int      # instructions per core per fig8 cell
    tenants: int         # tenants per campaign
    lsm_keys: int        # resident keys per LSM tree
    min_tenants: int     # tenants a tenant_fleet run covers at least


SCALES = {
    "bench": Scale(fig8_insns=250_000, tenants=40, lsm_keys=16_384,
                   min_tenants=100),
    "tiny": Scale(fig8_insns=3_000, tenants=4, lsm_keys=4_096, min_tenants=4),
}


def catalogue_index(seed: int, round_no: int, holdout: bool = False) -> int:
    """Catalogue index of round ``round_no`` of a run at ``seed``."""
    if holdout:
        return CATALOGUE_SIZE + seed * 1000 + round_no
    return (seed + round_no) % CATALOGUE_SIZE


def host_index() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The host is shared: neighbours slow every process on it, often by a
    third, for seconds to minutes at a time, and process CPU time slows
    with wall time, so no clock escapes it.  Timing this kernel, which
    never changes, beside each cell, tenant and set-up probe measures
    the slowdown of that moment.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    return time.perf_counter() - started


#: ``host_index()`` on the reference host (a 2-vCPU Intel Xeon VM,
#: Python 3.11) when nothing slows it.
REFERENCE_INDEX_S = 0.008


def digest_of(obj) -> str:
    """SHA-256 over canonical JSON."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Item:
    """One timed cell, tenant or LSM batch."""

    seconds: float
    work: float          # simulated instructions, or filter operations
    ok: bool = True
    ref_factor: float = 1.0  # seconds -> reference host speed


@dataclass
class UnitResult:
    unit: str
    digest: str | None
    seconds: float       # host time of the unit, the items plus glue
    items: list[Item]
    fallback: bool = False
    detail: dict = field(default_factory=dict)
    status: str = "ok"   # ok | mismatch | missing | unchecked | error | fallback

    def reference_seconds(self) -> float:
        """The unit's host time at the reference host speed: each item
        at its own factor, the glue between items at their median."""
        timed = [i for i in self.items if i.seconds > 0]
        if not timed:
            return self.seconds
        glue = self.seconds - sum(i.seconds for i in timed)
        median = sorted(i.ref_factor for i in timed)[len(timed) // 2]
        return sum(i.seconds * i.ref_factor for i in timed) + glue * median


class _NullTracer:
    """Stand-in for :class:`tracing.Tracer` in untraced runs."""

    def span(self, name, **args):
        return nullcontext(args)


NULL_TRACER = _NullTracer()


class ReferenceClock:
    """Times one call at a time (a cell, a tenant, a set-up probe) and
    the factor that scales its host seconds to the reference host speed.

    Before each call it frees the previous call's reference cycles (the
    scheduler pauses the collector while it runs, so otherwise peak
    memory and the next call's time depend on when a collection falls)
    and takes ``host_index()``; after the call it takes the index again.
    ``harness_s`` adds up the time that takes, so an enclosing timer can
    leave it out.
    """

    def __init__(self, tracer=NULL_TRACER):
        self.tracer = tracer
        self.harness_s = 0.0

    def _index(self, collect: bool) -> float:
        started = time.perf_counter()
        with self.tracer.span("bench.harness"):
            if collect:
                gc.collect()
            index = host_index()
        self.harness_s += time.perf_counter() - started
        return index

    def time(self, run):
        """Run ``run()``; return its result, its host seconds, and the
        factor to the reference host speed."""
        before = self._index(collect=True)
        started = time.perf_counter()
        out = run()
        seconds = time.perf_counter() - started
        return out, seconds, REFERENCE_INDEX_S * 2 / (before + self._index(False))


# ----------------------------------------------------------------------
# fig8_grid
# ----------------------------------------------------------------------


class Fig8Grid:
    """Cells of ``run_workloads`` on the scaled Table II system.

    mix3 is cache-resident; mix1, mix5 and mix7 stream and carry the
    most false positives.  Each mix runs with the monitor off and with
    the Table II 1024x8 filter, so a round is eight cells.
    """

    name = "fig8_grid"
    item = "cell"
    mixes = ("mix3", "mix1", "mix5", "mix7")
    table_ii_filter = (1024, 8)

    def items_per_unit(self, scale: Scale) -> int:
        return 1

    def min_rounds(self, scale: Scale) -> int:
        return 1

    def units(self, scale: Scale, index: int) -> list[tuple[str, tuple]]:
        cells = [(mix, monitor) for mix in self.mixes for monitor in (False, True)]
        random.Random(index).shuffle(cells)
        return [
            (f"{mix}/{'pipo' if monitor else 'off'}/i{index}", (mix, monitor, index))
            for mix, monitor in cells
        ]

    def run(self, unit_id: str, params: tuple, scale: Scale,
            tracer=NULL_TRACER) -> UnitResult:
        mix, monitor, sim_seed = params

        def cell():
            with tracer.span("bench.cell", item=unit_id):
                config = scaled_system_config(
                    False, filter_size=self.table_ii_filter,
                    monitor_enabled=monitor,
                )
                return run_workloads(
                    config, scaled_mix_workloads(mix, False), scale.fig8_insns,
                    seed=sim_seed,
                )

        result, seconds, factor = ReferenceClock(tracer).time(cell)
        monitor_stats = (
            asdict(result.monitor_stats) if result.monitor_stats is not None else None
        )
        digest = digest_of({
            "mean_time": result.mean_time,
            "stats": asdict(result.stats),
            "monitor": monitor_stats,
        })
        return UnitResult(
            unit=unit_id,
            digest=digest,
            seconds=seconds,
            items=[Item(seconds, result.total_instructions, ref_factor=factor)],
            fallback=result.extra["engine"]["fallback"],
            detail={
                "mix": mix,
                "monitor": monitor,
                "index": sim_seed,
                "mean_time": result.mean_time,
                "instructions": result.total_instructions,
                "prefetches_issued": (
                    monitor_stats["prefetches_issued"] if monitor_stats else 0
                ),
            },
        )


# ----------------------------------------------------------------------
# tenant_fleet
# ----------------------------------------------------------------------


class TenantFleet:
    """Campaigns of ``experiments.campaign.run(jobs=1)``.

    Campaign seeds are stratified: of the seeds a catalogue index walks
    through, the first whose population has exactly
    ``round(attack_fraction * tenants)`` attackers and benign tenants
    averaging the menu's mean budget is taken.  Every campaign then
    costs about the same, and the median tenant is a benign one rather
    than the boundary between the cheap attacker and the costly benign
    population.
    """

    name = "tenant_fleet"
    item = "tenant"
    attack_fraction = 0.45

    def items_per_unit(self, scale: Scale) -> int:
        return scale.tenants

    def min_rounds(self, scale: Scale) -> int:
        return -(-scale.min_tenants // scale.tenants)

    def campaign_seed(self, index: int, tenants: int) -> int:
        target = round(self.attack_fraction * tenants)
        menu = campaign.DEFAULT_BENIGN_INSTRUCTIONS
        mean_budget = sum(menu) // len(menu)
        attempt = 0
        while True:
            seed = derive_seed(index, "perfbench-campaign", attempt)
            budgets = [
                profile.instructions
                for profile in (
                    campaign.sample_profile(
                        seed, i, attack_fraction=self.attack_fraction
                    )
                    for i in range(tenants)
                )
                if profile.kind == "benign"
            ]
            if (tenants - len(budgets) == target
                    and sum(budgets) == mean_budget * len(budgets)):
                return seed
            attempt += 1

    def units(self, scale: Scale, index: int) -> list[tuple[str, int]]:
        return [(f"campaign/i{index}", self.campaign_seed(index, scale.tenants))]

    def run(self, unit_id: str, seed: int, scale: Scale,
            tracer=NULL_TRACER) -> UnitResult:
        items: list[Item] = []
        run_tenant = campaign._run_tenant
        clock = ReferenceClock(tracer)

        def timed_tenant(profile):
            tenant_id = f"{unit_id}/t{profile.index}"

            def tenant():
                with tracer.span("experiments.tenant", item=tenant_id):
                    return run_tenant(profile)

            record, seconds, factor = clock.time(tenant)
            items.append(Item(seconds, record["instructions"], ref_factor=factor))
            return record

        # campaign.run resolves _run_tenant at call time, so the
        # per-tenant clock goes in through the module attribute.
        campaign._run_tenant = timed_tenant
        try:
            with warnings.catch_warnings():
                # The jobs=1 advisory: serial is this workload's design.
                warnings.simplefilter("ignore", RuntimeWarning)
                with tracer.span("experiments.campaign", item=unit_id):
                    started = time.perf_counter()
                    result = campaign.run(
                        seed=seed, tenants=scale.tenants,
                        attack_fraction=self.attack_fraction, jobs=1,
                    )
                    seconds = time.perf_counter() - started - clock.harness_s
        finally:
            campaign._run_tenant = run_tenant
        lost = result.data["stream"]["failures"]
        items.extend(Item(0.0, 0, ok=False) for _ in lost)
        return UnitResult(
            unit=unit_id,
            digest=result.data["aggregate_digest"],
            seconds=seconds,
            items=items,
            fallback=bool(result.data["fallbacks"]),
            detail={
                "campaign_seed": seed,
                "kinds": result.data["aggregate"]["kinds"],
                "lost": lost,
            },
        )


# ----------------------------------------------------------------------
# lsm_store
# ----------------------------------------------------------------------


class LSMStore:
    """One LSM batch: the same key arrays through an ``LSMFilterTree``
    at each target fpp — load (construction, puts, flush), zipf gets,
    negative probes, and a zipf delete wave.

    fpp 1e-4 is left out: it derives 17-bit fingerprints, which run on
    the reference path about 100x slower and would dominate the run.
    Each tree is timed and scaled to the reference host speed on its
    own; key generation and digests stay outside the timed phases.
    """

    name = "lsm_store"
    item = "batch"
    fpps = (1e-2, 1e-3)
    theta = 0.8
    chunk = 1 << 12
    levels = 4

    def items_per_unit(self, scale: Scale) -> int:
        return 1

    def min_rounds(self, scale: Scale) -> int:
        return 1

    def units(self, scale: Scale, index: int) -> list[tuple[str, int]]:
        return [(f"lsm/i{index}", index)]

    def _keys(self, index: int, n: int) -> dict[str, list[array]]:
        """Key arrays for every phase, generated before any timing."""
        salt = derive_seed(index, "perfbench-lsm-keys")
        ranks = ZipfRanks(self.theta, seed=derive_seed(index, "perfbench-lsm-ranks"))

        def spans(total):
            return [min(self.chunk, total - s) for s in range(0, total, self.chunk)]

        def resident(count):
            return array("Q", (resident_key(r, salt) for r in ranks.draw(count, n)))

        return {
            "put": [
                array("Q", (resident_key(i, salt)
                            for i in range(s, min(s + self.chunk, n))))
                for s in range(0, n, self.chunk)
            ],
            "get": [resident(k) for k in spans(n // 2)],
            "probe": [
                array("Q", (probe_key(i, salt) for i in range(s, s + k)))
                for s, k in zip(range(0, n // 10, self.chunk), spans(n // 10))
            ],
            "delete": [resident(k) for k in spans(n // 10)],
        }

    def _tree_cycle(self, index, n, fpp, keys, counts, phase_s, phase_keys,
                    state) -> int:
        """One tree at ``fpp`` through every phase; returns its filter
        operations and stores its simulated state under ``repr(fpp)``."""
        mark = time.perf_counter()

        def lap(phase):
            nonlocal mark
            now = time.perf_counter()
            phase_s[phase] += now - mark
            phase_keys[phase] += counts[phase]
            mark = now

        tree = LSMFilterTree(
            memtable_size=max(64, n // 128), fanout=4, levels=self.levels,
            fpp=fpp, seed=derive_seed(index, "perfbench-lsm", repr(fpp)),
        )
        for chunk in keys["put"]:
            tree.put_many(chunk)
        tree.flush_pending()
        lap("put")
        get_maybe = [0] * self.levels
        for chunk in keys["get"]:
            for depth, count in enumerate(tree.get_many(chunk)):
                get_maybe[depth] += count
        lap("get")
        fp_counts = [0] * self.levels
        for chunk in keys["probe"]:
            for depth, count in enumerate(tree.get_many(chunk)):
                fp_counts[depth] += count
        lap("probe")
        removed = sum(tree.delete_many(chunk) for chunk in keys["delete"])
        lap("delete")
        stats = tree.stats()
        state[repr(fpp)] = {
            "filter_digests": tree.filter_digests(),
            "stats": stats,
            "get_maybe": get_maybe,
            "fp_counts": fp_counts,
            "removed": removed,
        }
        # Counted as fig_lsm counts them: every put reaches level 0
        # once, rebuilds re-insert merged runs, and each get/probe/
        # delete key crosses every level's filter.
        return (stats["puts"] + stats["rebuilt_keys"]
                + (counts["get"] + counts["probe"] + counts["delete"])
                * len(tree.levels))

    def run(self, unit_id: str, index: int, scale: Scale,
            tracer=NULL_TRACER) -> UnitResult:
        n = scale.lsm_keys
        keys = self._keys(index, n)
        counts = {phase: sum(map(len, batches)) for phase, batches in keys.items()}
        phase_s = dict.fromkeys(keys, 0.0)
        phase_keys = dict.fromkeys(keys, 0)
        state = {}
        clock = ReferenceClock(tracer)
        filter_ops = 0
        reference_s = 0.0
        with tracer.span("bench.batch", item=unit_id):
            for fpp in self.fpps:
                timed_s = sum(phase_s.values())
                ops, _, factor = clock.time(lambda: self._tree_cycle(
                    index, n, fpp, keys, counts, phase_s, phase_keys, state))
                filter_ops += ops
                reference_s += (sum(phase_s.values()) - timed_s) * factor
        seconds = sum(phase_s.values())
        return UnitResult(
            unit=unit_id,
            digest=digest_of(state),
            seconds=seconds,
            items=[Item(seconds, filter_ops, ref_factor=reference_s / seconds)],
            detail={
                "phase_s": phase_s,
                "phase_keys": phase_keys,
                "filter_ops": filter_ops,
                "measured_fpp": {
                    fpp: max(s["fp_counts"]) / max(1, counts["probe"])
                    for fpp, s in state.items()
                },
            },
        )


WORKLOADS = {w.name: w for w in (Fig8Grid(), TenantFleet(), LSMStore())}
