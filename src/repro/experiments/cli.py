"""``repro-experiment`` — run any experiment from the command line.

Examples::

    repro-experiment fig3
    repro-experiment fig8 --full --seed 7
    repro-experiment fig8 --jobs 8
    repro-experiment fig10 --engine c
    repro-experiment fig9 --jobs 4 --checkpoint-dir .ckpt --resume
    repro-experiment campaign --tenants 100000 --jobs 0
    repro-experiment campaign --tenants 5000 --jobs 2 --trace run.json
    repro-experiment status --checkpoint-dir .ckpt
    repro-experiment list
    repro-experiment all

The ``campaign`` experiment is the fleet-scale entry point: it streams
randomized tenant profiles (``--tenants``, ``--attack-fraction``)
through the same supervised pool and aggregates online, so memory
stays flat no matter the fleet size; combined with ``--checkpoint-dir``
/ ``--resume`` an overnight sweep survives SIGKILL and replays only
the missing tenants, reaching a bit-identical final report.

Fault tolerance: grid experiments run through the supervised fan-out
(:mod:`repro.experiments.parallel`) — crashed or hung workers are
detected and their cells replayed (bit-identically, cells are pure up
to their seed).  ``--cell-timeout`` / ``--retries`` / ``--on-failure``
tune the supervisor; ``--checkpoint-dir`` streams completed cells to a
digest-keyed shard and ``--resume`` replays only the missing ones
after a kill.  See PERFORMANCE.md ("Fault-tolerance contract").

Observability (:mod:`repro.obs`): ``--trace FILE`` attaches the trace
recorder, the one sink for spans and counters and the only switch —
the workers of a pool built while it is attached ship both back over
their result pipes — and writes a Chrome-trace / Perfetto
JSON to FILE at the end (load it at https://ui.perfetto.dev), with the
counters and gauges under its top-level ``"telemetry"`` key and
printed as the ``[telemetry]`` block.  Results are bit-identical with
and without ``--trace``.  A progress line renders on stderr whenever
it is a terminal.  ``status --checkpoint-dir DIR`` reads the manifests
and shards of a run — even one still in flight — and reports
per-shard completion without touching the files.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import os
import sys
import time
from pathlib import Path

from repro.engine import ENGINES
from repro.experiments import (
    baseline_comparison,
    campaign,
    defense_ablation,
    fig3_occupancy,
    fig4_collisions,
    fig6_attack,
    fig7_reverse,
    fig8_performance,
    fig9_flush_attacks,
    fig10_detection,
    fig_lsm,
    overhead_table,
    secthr_sensitivity,
)

EXPERIMENTS = {
    "campaign": campaign,
    "lsm": fig_lsm,
    "fig3": fig3_occupancy,
    "fig4": fig4_collisions,
    "fig6": fig6_attack,
    "fig7": fig7_reverse,
    "fig8": fig8_performance,
    "fig9": fig9_flush_attacks,
    "fig10": fig10_detection,
    "secthr": secthr_sensitivity,
    "overhead": overhead_table,
    "baselines": baseline_comparison,
    "ablation": defense_ablation,
}


def _load_conformance_scenarios():
    """Import ``tests/conformance/scenarios.py`` by path.

    The conformance matrix is the single source of truth for what the
    repo can replay (scenario × defence, pinned seeds); it lives with
    the tests, so the CLI reaches it relative to the repo root rather
    than duplicating the list.  Returns None outside a source checkout
    (e.g. an installed package without the tests tree).
    """
    root = Path(__file__).resolve().parents[3]
    path = root / "tests" / "conformance" / "scenarios.py"
    if not path.exists():
        return None
    spec = importlib.util.spec_from_file_location(
        "repro_conformance_scenarios", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_matrix_text() -> str:
    """The scenario × defence × engine matrix, from one source of
    truth: ``tests/conformance/scenarios.py`` (what is pinned) plus
    ``repro.baselines.registry`` (what is buildable) plus
    ``repro.engine`` (what executes it)."""
    from repro.baselines.registry import DEFENCES, EXTRA_DEFENCES
    from repro.detection import DETECTORS, RESPONSES
    from repro.engine import available_engines
    from repro.experiments.common import format_table

    lines: list[str] = []
    module = _load_conformance_scenarios()
    if module is None:
        lines.append(
            "conformance matrix unavailable (no tests/ tree next to this "
            "installation) — defences and engines below are still live"
        )
        families: dict[str, set[str]] = {}
    else:
        # Detection scenarios are detector × response pairings and
        # storage scenarios are filter workloads, not attack × defence
        # cells — each gets its own block below.
        detection_names = set(getattr(module, "DETECTION_SCENARIOS", ()))
        storage_names = set(getattr(module, "STORAGE_SCENARIOS", ()))
        families = {}
        for name in sorted(module.SCENARIOS):
            if name in detection_names or name in storage_names:
                continue
            family, _, defence = name.rpartition("__")
            families.setdefault(family, set()).add(defence)
        all_defences = [
            d for d in (*DEFENCES, *EXTRA_DEFENCES)
            if any(d in cover for cover in families.values())
        ]
        rows = [
            [family, *("x" if d in cover else "" for d in all_defences)]
            for family, cover in sorted(families.items())
        ]
        lines.append(
            "conformance scenario matrix (tests/conformance/scenarios.py, "
            f"seed {module.SEED}):"
        )
        lines.append(format_table(["scenario", *all_defences], rows))
        if detection_names:
            lines.append(
                "detection scenarios (detector x response pairings, "
                "monitor defences):"
            )
            lines.extend(f"  {name}" for name in sorted(detection_names))
        if storage_names:
            lines.append(
                "storage scenarios (standalone-filter LSM workloads, "
                "run with the 'lsm' experiment):"
            )
            lines.extend(f"  {name}" for name in sorted(storage_names))
        lines.append(
            f"{len(module.SCENARIOS)} pinned scenarios; replay with "
            "`python tests/conformance/regenerate.py --check`"
        )
    lines.append("")
    lines.append(
        "defences (repro.baselines.registry): "
        + ", ".join((*DEFENCES, *EXTRA_DEFENCES))
    )
    lines.append(
        "engines (this host): " + ", ".join(available_engines())
        + "  [select with --engine / REPRO_ENGINE; results are "
        "bit-identical across engines]"
    )
    lines.append(
        "detectors (repro.detection): " + ", ".join(sorted(DETECTORS))
    )
    lines.append(
        "responses (repro.detection): " + ", ".join(sorted(RESPONSES))
    )
    lines.append("experiments: " + ", ".join(sorted(EXPERIMENTS)))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce a PiPoMonitor paper artefact",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS) + ["all", "list", "status"],
        help="experiment id, 'all', 'list' (print the scenario x "
             "defence x engine matrix), or 'status' (report checkpoint "
             "completion for a running or interrupted sweep)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale run (Table II geometry, long budgets)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for experiments with independent cells "
             "(0 = one per CPU).  Precedence: this flag beats the "
             "REPRO_JOBS environment variable; unset falls back to it.",
    )
    parser.add_argument(
        "--tenants", type=int, default=None, metavar="N",
        help="campaign fleet size: how many randomized tenant profiles "
             "to stream (campaign experiment only; default 256)",
    )
    parser.add_argument(
        "--attack-fraction", type=float, default=None, metavar="P",
        help="campaign probability that a tenant hosts an attacker "
             "(default 0.25)",
    )
    parser.add_argument(
        "--keys", type=int, default=None, metavar="N",
        help="distinct resident keys per cell for the lsm experiment "
             "(default 200000, or 10000000 under --full)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="streaming chunk size: cells per checkpoint shard in "
             "streaming sweeps (default 512)",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine (sets REPRO_ENGINE for this run and "
             "its workers): 'c' = compiled cache walk + Auto-Cuckoo "
             "kernels (default; falls back to 'python' when no "
             "cffi/toolchain), 'python' = generic reference paths.  "
             "Results are bit-identical across engines.",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell deadline for the supervised fan-out (sets "
             "REPRO_CELL_TIMEOUT): a worker past it is terminated and "
             "its cell replayed.  0/unset = no deadline.",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="replays allowed per failed cell (sets REPRO_RETRIES; "
             "default 2).  Replays are bit-identical — cells are pure "
             "up to their seed.",
    )
    parser.add_argument(
        "--on-failure", choices=("raise", "partial"), default=None,
        help="what exhausted retries do (sets REPRO_ON_FAILURE): "
             "'raise' (default) fails the grid with a structured "
             "report after the surviving cells finish; 'partial' "
             "returns the grid with CellFailure markers in the failed "
             "slots.",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="stream completed cells to a digest-keyed JSONL shard in "
             "DIR (sets REPRO_CHECKPOINT_DIR) so an interrupted grid "
             "can resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay only the cells missing from the checkpoint shard "
             "(sets REPRO_RESUME=1; requires --checkpoint-dir or "
             "REPRO_CHECKPOINT_DIR)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="collect run observability — trace spans (grid -> chunk "
             "-> cell -> attempt -> engine phase, across the worker "
             "pool) and the run's counters — and write Chrome-"
             "trace/Perfetto JSON to FILE.  Results are bit-identical "
             "with and without it.",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.tenants is not None and args.tenants < 1:
        parser.error("--tenants must be >= 1")
    if args.attack_fraction is not None and not (
        0.0 <= args.attack_fraction <= 1.0
    ):
        parser.error("--attack-fraction must be in [0, 1]")
    if args.keys is not None and args.keys < 1:
        parser.error("--keys must be >= 1")
    if args.chunk_size is not None and args.chunk_size < 1:
        parser.error("--chunk-size must be >= 1")
    if args.cell_timeout is not None:
        if args.cell_timeout < 0:
            parser.error("--cell-timeout must be >= 0")
        os.environ["REPRO_CELL_TIMEOUT"] = str(args.cell_timeout)
    if args.retries is not None:
        if args.retries < 0:
            parser.error("--retries must be >= 0")
        os.environ["REPRO_RETRIES"] = str(args.retries)
    if args.on_failure is not None:
        os.environ["REPRO_ON_FAILURE"] = args.on_failure
    if args.checkpoint_dir:
        os.environ["REPRO_CHECKPOINT_DIR"] = args.checkpoint_dir
    if args.resume:
        if not os.environ.get("REPRO_CHECKPOINT_DIR", "").strip():
            parser.error(
                "--resume needs --checkpoint-dir (or REPRO_CHECKPOINT_DIR)"
            )
        os.environ["REPRO_RESUME"] = "1"
    if args.experiment == "list":
        print(scenario_matrix_text())
        return 0
    if args.experiment == "status":
        from repro.obs.status import checkpoint_status, render_status

        directory = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
        if not directory:
            parser.error(
                "status needs --checkpoint-dir (or REPRO_CHECKPOINT_DIR) "
                "— the same directory the run writes to"
            )
        print(render_status(checkpoint_status(directory)))
        return 0
    if args.experiment is None:
        parser.error(
            "an experiment id is required (or 'list')"
        )
    if args.engine is not None:
        from repro.engine import set_engine

        set_engine(args.engine)

    from repro.obs.progress import (
        Progress,
        attach_progress,
        auto_stream,
        detach_progress,
    )

    recorder = None
    if args.trace is not None:
        from repro.obs.trace import TraceRecorder, attach_recorder

        # The attached recorder receives the in-process spans and
        # counters, and every worker pool built while it is attached
        # ships its cells' sidecars back to it.
        recorder = attach_recorder(TraceRecorder())
        recorder.process_name("supervisor")

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            started = time.time()
            module = EXPERIMENTS[name]
            kwargs = {"seed": args.seed, "full": args.full or None}
            # Only the grid experiments fan out, and only the streaming
            # campaign sizes a fleet; the rest (filter sweeps, attack
            # timelines) are single simulations without these parameters.
            accepted = inspect.signature(module.run).parameters
            for name_, value in (
                ("jobs", args.jobs),
                ("tenants", args.tenants),
                ("attack_fraction", args.attack_fraction),
                ("chunk_size", args.chunk_size),
                ("keys", args.keys),
            ):
                if value is not None and name_ in accepted:
                    kwargs[name_] = value
            # One progress line per experiment; auto_stream() renders
            # only on a terminal, so piped/CI output stays byte-clean.
            progress = attach_progress(Progress(name, stream=auto_stream()))
            try:
                result = module.run(**kwargs)
            finally:
                progress.finish()
                detach_progress()
            print(result.to_text())
            print(f"[{name} completed in {time.time() - started:.1f}s]\n")
    finally:
        # Write the trace even when an experiment failed mid-run: a
        # partial timeline is exactly what a post-mortem needs.
        if recorder is not None:
            recorder.write(args.trace)
            print(
                f"[trace: {len(recorder.events)} span(s), "
                f"{recorder.dropped} dropped sidecar(s) -> {args.trace}]"
            )
            metrics = recorder.metrics()
            lines = [
                f"  {name} = {n:,}" for name, n in metrics["counters"].items()
            ] + [
                f"  {name} = {v:g}" for name, v in metrics["gauges"].items()
            ]
            if lines:
                print("[telemetry]")
                print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
