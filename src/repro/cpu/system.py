"""Full-system assembly: config + workloads → runnable multicore system.

:func:`build_system` is the one assembly body: the Table II hierarchy
a config describes, a defence from
:data:`repro.baselines.registry.DEFENCES`, one core per workload and an
optional detection unit.  :func:`run_workloads` adds one run step,
:func:`run_system`, and every experiment, attack runner and tenant
goes through it; the Prime+Probe runner calls the two steps itself,
because its eviction sets depend on the built LLC.

Cores are bound by :func:`bind_cores`: every core runs its workload's
generator and carries the workload and seed it comes from.  Under the
C cache walk, ``MulticoreSystem.run`` uses that source to run a system
of synthetic streams entirely in C, detection unit included
(PERFORMANCE.md rule 19); a system with any other stream (an attacker,
a scripted trace) runs the Python loop.  Results are bit-identical
either way — ``REPRO_BATCH=0`` binds no sources, forcing the Python
loop, which the golden-equivalence tests compare against.

Engine binding happens here implicitly: :func:`build_system` attaches
the defence and the detection unit's alarm bus *before* constructing
cores, and each core resolves its access entry point through
``hierarchy.engine_access()`` at construction — so under
``REPRO_ENGINE=c`` the C cache walk is installed once per system,
outside the simulated region, with the final monitor configuration
baked in.  Results are bit-identical across engines (the conformance
harness replays the full scenario matrix under each).
"""

from __future__ import annotations

import os

from repro.baselines.registry import build_defence
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import SystemConfig
from repro.engine import engine_provenance
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
    *,
    defence: str | None = None,
    seed_label: str = "workload",
    pad_idle: bool = False,
    detection=None,
) -> tuple[MulticoreSystem, object | None]:
    """Construct the system a config describes.

    ``defence`` is any name :func:`repro.baselines.registry.build_defence`
    accepts; None deploys ``pipo`` when ``config.monitor_enabled`` and
    ``none`` otherwise (the paper's baseline).  ``pad_idle`` fills the
    remaining cores with idle workloads; otherwise one workload per
    core is required.  ``seed_label`` is the per-core seed-derivation
    namespace (kept caller-chosen so existing streams stay
    bit-identical).

    ``detection`` (a :class:`repro.detection.DetectionSpec`) deploys
    the online detection-and-response subsystem: the defence's alarm
    bus is attached before core construction, so the C walk binds it
    at install time, and the built unit's report lands in the run's
    ``result.extra["detection"]``.

    Returns the system and the deployed defence (None for ``none``).
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
    if defence is None:
        defence = "pipo" if config.monitor_enabled else "none"
    # Assembly includes the C walk install, which every core triggers
    # at construction; the span() helper is a shared no-op unless a
    # recorder is attached.
    with _span("assemble", "engine", defence=defence, seed=seed):
        events = EventQueue()
        hierarchy = config.build_hierarchy(seed=seed)
        monitor = build_defence(
            defence, config, events, seed=seed,
            track_captured_lines=track_captured_lines,
        )
        if monitor is not None:
            monitor.attach(hierarchy)
        bus = detection.attach_bus(monitor) if detection is not None else None
        cores = bind_cores(hierarchy, workloads, seed, seed_label)
        unit = None
        if detection is not None:
            unit = detection.deploy(bus, events, hierarchy, cores)
        return MulticoreSystem(hierarchy, cores, events, detection=unit), monitor


def run_system(
    system: MulticoreSystem, instructions_per_core: int | None
) -> SimulationResult:
    """Run an assembled system; ``instructions_per_core`` None runs
    every stream to its end.

    The ``simulate`` span stays outside ``MulticoreSystem.run``, which
    the benchmark's tracer wraps in a span of its own.  Engine
    provenance rides on every run, so fleet-level aggregation can prove
    it never mixed engines (or see exactly where a toolchain-less
    worker degraded c -> python); conformance digests scrub this key.
    """
    with _span("simulate", "engine"):
        result = system.run(max_instructions_per_core=instructions_per_core)
    result.extra["engine"] = engine_provenance()
    return result


def run_workloads(
    config: SystemConfig,
    workloads: list[Workload],
    instructions_per_core: int | None,
    seed: int = 0,
    **assembly,
) -> SimulationResult:
    """Build and run in one call; returns the simulation result.

    ``assembly`` takes :func:`build_system`'s keywords (``defence``,
    ``seed_label``, ``pad_idle``, ``detection``,
    ``track_captured_lines``).
    """
    system, _ = build_system(config, workloads, seed, **assembly)
    return run_system(system, instructions_per_core)
