"""Full-system assembly: config + workloads → runnable multicore system.

``run_workloads`` is the one-call entry point the performance
experiments (Fig. 8, secThr sensitivity) are built on: it constructs the
Table II hierarchy, optionally deploys PiPoMonitor, binds one workload
per core, and runs to an instruction budget.

Both assembly helpers bind their cores through :func:`bind_cores`:
every core runs its workload's generator and carries the workload and
seed it comes from.  Under the C cache walk, ``MulticoreSystem.run``
uses that source to run a system of synthetic streams entirely in C,
detection unit included (PERFORMANCE.md rule 19); a system with any
other stream (an attacker, a scripted trace) runs the Python loop.
Results are bit-identical either way — ``REPRO_BATCH=0`` binds no
sources, forcing the Python loop, which the golden-equivalence tests
compare against.

Engine binding happens here implicitly: both assembly helpers attach
the monitor *before* constructing cores, and each core resolves its
access entry point through ``hierarchy.engine_access()`` at
construction — so under ``REPRO_ENGINE=c`` the C cache walk is
installed once per system, outside the simulated region, with the
final monitor configuration baked in.  Results are
bit-identical across engines (the conformance harness replays the
full scenario matrix under each).
"""

from __future__ import annotations

import os

from repro.baselines.registry import build_defence
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import SystemConfig
from repro.engine import engine_provenance
from repro.core.pipomonitor import PiPoMonitor
from repro.cpu.core import Core
from repro.cpu.multicore import MulticoreSystem, SimulationResult
from repro.obs.trace import span as _span
from repro.utils.events import EventQueue
from repro.utils.rng import derive_seed
from repro.workloads.base import ScriptedWorkload, Workload


def bind_cores(
    hierarchy: CacheHierarchy,
    workloads: list[Workload],
    seed: int,
    seed_label: str = "workload",
) -> list[Core]:
    """One generator core per workload, core ``i`` seeded with
    ``derive_seed(seed, seed_label, i)``.

    Each core records its ``(workload, seed)`` source, so the run may
    move into C, unless ``REPRO_BATCH=0`` asks for the Python loop.
    """
    with_source = os.environ.get("REPRO_BATCH", "") != "0"
    cores = []
    for core_id, workload in enumerate(workloads):
        workload_seed = derive_seed(seed, seed_label, core_id)
        cores.append(
            Core(
                core_id,
                workload.generator(core_id, workload_seed),
                hierarchy,
                source=(workload, workload_seed) if with_source else None,
            )
        )
    return cores


def build_system(
    config: SystemConfig,
    workloads: list[Workload],
    seed: int = 0,
    track_captured_lines: bool = False,
) -> tuple[MulticoreSystem, PiPoMonitor | None]:
    """Construct the system a config describes.

    One workload per core is required.  Returns the system and the
    deployed monitor (None when ``config.monitor_enabled`` is False —
    the paper's baseline).
    """
    if len(workloads) != config.num_cores:
        raise ValueError(
            f"need exactly {config.num_cores} workloads, "
            f"got {len(workloads)}"
        )
    events = EventQueue()
    hierarchy = config.build_hierarchy(seed=seed)
    monitor = None
    if config.monitor_enabled:
        fltr = config.filter.build(seed=derive_seed(seed, "filter"))
        monitor = PiPoMonitor(
            fltr,
            events,
            prefetch_delay=config.prefetch_delay,
            track_captured_lines=track_captured_lines,
        )
        monitor.attach(hierarchy)
    cores = bind_cores(hierarchy, workloads, seed)
    return MulticoreSystem(hierarchy, cores, events), monitor


def run_workloads(
    config: SystemConfig,
    workloads: list[Workload],
    instructions_per_core: int,
    seed: int = 0,
) -> SimulationResult:
    """Build and run in one call; returns the simulation result."""
    with _span("assemble", "engine", seed=seed):
        system, monitor = build_system(config, workloads, seed=seed)
    with _span("simulate", "engine", seed=seed):
        result = system.run(max_instructions_per_core=instructions_per_core)
    if monitor is not None:
        result.extra["filter_occupancy"] = monitor.filter.occupancy()
        result.extra["prefetch_delay"] = monitor.prefetch_delay
    result.extra["engine"] = engine_provenance()
    return result


def run_defended_workloads(
    config: SystemConfig,
    workloads: list[Workload],
    defence: str,
    seed: int = 0,
    seed_label: str = "workload",
    instructions_per_core: int | None = None,
    pad_idle: bool = False,
    detection=None,
):
    """Assemble and run a system with a registry defence attached.

    The generalisation of :func:`run_workloads` the attack scenarios
    and the conformance harness share: ``defence`` is any name from
    :data:`repro.baselines.registry.DEFENCES` (so BITP and the table
    recorder plug in where ``config.monitor_enabled`` only covers
    PiPoMonitor), ``pad_idle`` fills the remaining cores with idle
    workloads, and ``seed_label`` is the per-core seed-derivation
    namespace (kept caller-chosen so existing streams stay
    bit-identical).  Cores are bound by :func:`bind_cores`: a system
    of synthetic streams (a benign tenant) takes the C run loop with
    its detection unit online, one with a timing-sensitive attacker
    the Python loop.  ``REPRO_BATCH=0`` forces the Python loop, with
    identical results.

    ``detection`` (a :class:`repro.detection.DetectionSpec`) deploys
    the online detection-and-response subsystem: the defence's alarm
    bus is attached *before* core construction — each core resolves
    its access kernel at construction, so the C walk binds the bus at
    install time — and the built unit's report lands in
    ``result.extra["detection"]``.

    Returns ``(simulation_result, monitor, hierarchy)``.
    """
    workloads = list(workloads)
    if pad_idle:
        while len(workloads) < config.num_cores:
            workloads.append(ScriptedWorkload([(0, None, 0)], name="idle"))
    if len(workloads) != config.num_cores:
        raise ValueError(
            f"need exactly {config.num_cores} workloads, "
            f"got {len(workloads)}"
        )
    # Engine-phase spans: assembly (hierarchy build + kernel
    # compilation at core construction) vs. the simulated run.  The
    # span() helper is a shared no-op unless a recorder is attached —
    # one global load per call, twice per simulation, never per event.
    with _span("assemble", "engine", defence=defence, seed=seed):
        events = EventQueue()
        hierarchy = config.build_hierarchy(seed=seed)
        monitor = build_defence(defence, config, events, seed=seed)
        if monitor is not None:
            monitor.attach(hierarchy)
        bus = None
        if detection is not None:
            if monitor is None:
                raise ValueError(
                    "detection requires a defence that publishes alarms "
                    "(defence='none' has no monitor on the hierarchy)"
                )
            bus = detection.attach_bus(monitor)
        cores = bind_cores(hierarchy, workloads, seed, seed_label)
        unit = None
        if detection is not None:
            unit = detection.deploy(bus, events, hierarchy, cores)
    with _span("simulate", "engine", defence=defence, seed=seed):
        result = MulticoreSystem(hierarchy, cores, events, detection=unit).run(
            max_instructions_per_core=instructions_per_core
        )
    # Engine provenance rides on every assembled run so fleet-level
    # aggregation can prove it never mixed engines (or see exactly
    # where a toolchain-less worker degraded c -> python).
    # Conformance digests scrub this key — provenance, not semantics.
    result.extra["engine"] = engine_provenance()
    return result, monitor, hierarchy
