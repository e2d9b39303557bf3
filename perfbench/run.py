"""Repository benchmark: fig8 grid, tenant fleet and LSM filter store.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8_grid --seed 0 --seconds 20 --trace 0

Runs one workload of ``BENCHMARK.json`` in this process under
``REPRO_ENGINE=c`` with ``jobs=1``, as a closed loop of whole rounds
(see ``workloads.py``) until ``--seconds`` have passed.  Every unit's
simulated result is checked against ``references.json``; a mismatch,
an exception or an engine fallback fails the unit's items.  The
report goes to standard output, and its last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats
the seed's first round untraced and traced in turn and reports the
per-layer metrics instead, with the tracing overhead, a Chrome-trace
file, and a check that traced digests equal untraced ones.
``--holdout`` runs catalogue indices with no stored reference and
prints their digests.  Outputs go under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"
SPEC = ROOT / "BENCHMARK.json"
#: Timed set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = {"bench": 7, "tiny": 1}
#: Paper values the fig8 model-accuracy lines print beside the run's.
PAPER_FIG8 = {"geomean_delta_pct": 0.1, "fp_per_minsn": {"mix1": 97, "mix7": 71}}


def prepare_environment() -> None:
    """Pin the engine and keep every build output inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator source not found under {SRC}")
    if not SPEC.is_file():
        raise SystemExit(f"perfbench: {SPEC.name} not found")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ENGINE"] = "c"
    os.environ["REPRO_ENGINE_CACHE"] = str(OUT / "engine-cache")
    # The compiler's scratch files too (gcc honours TMPDIR).
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    sys.path.insert(0, str(SRC))


class SetupProbe:
    """Times fresh processes from start to engine ready (``probe.py``).

    The first probe of a checkout also compiles the extension, so
    ``warm_up`` runs one untimed.  Timed probes are spread between a
    run's rounds, so one slow spell of the host moves only some of
    them; ``setup_s`` is the median at the reference host speed.
    """

    def __init__(self):
        self.cmd = [sys.executable, str(HERE / "probe.py")]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.factors: list[float] = []

    def _run(self) -> tuple[float, str]:
        started = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        return elapsed, proc.stdout.strip()

    def warm_up(self) -> str:
        """Fill the build cache; returns the engine the probe ran."""
        return self._run()[1]

    def sample(self) -> None:
        from workloads import ReferenceClock

        _, elapsed, factor = ReferenceClock().time(self._run)
        self.times.append(elapsed)
        self.factors.append(factor)

    def median(self) -> float:
        return statistics.median(t * f for t, f in zip(self.times, self.factors))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(args) -> dict:
    """Where and how a record was made, so cross-host results show."""
    from repro.engine import effective_engine

    def command(*argv, **kwargs) -> str | None:
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=30, **kwargs)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # Stop git at the checkout: never read a repository around it.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    sha = command("git", "rev-parse", "--short=12", "HEAD", cwd=ROOT, env=git_env)
    dirty = command("git", "status", "--porcelain", cwd=ROOT, env=git_env)
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.lower().startswith("model name")), None)
    except OSError:
        pass
    compiler = command(os.environ.get("CC", "cc"), "--version")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if sha is None else bool(dirty),
        "workload": args.workload,
        "seed": args.seed,
        "holdout": args.holdout,
        "scale": args.scale,
        "engine_requested": os.environ["REPRO_ENGINE"],
        "engine_effective": effective_engine(),
        "cpu": cpu or platform.machine(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": compiler.splitlines()[0] if compiler else None,
    }


def run_unit(workload, unit_id, params, scale, references, holdout,
             engine_ok, tracer=None):
    """Run one unit and check it; failures mark its items failed."""
    from workloads import NULL_TRACER, Item, UnitResult

    try:
        result = workload.run(unit_id, params, scale, tracer or NULL_TRACER)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return UnitResult(
            unit_id, None, 0.0,
            [Item(0.0, 0, ok=False) for _ in range(workload.items_per_unit(scale))],
            status="error",
        )
    expected = references.get(unit_id)
    if result.fallback or not engine_ok:
        result.status = "fallback"
    elif expected is None:
        result.status = "unchecked" if holdout else "missing"
    elif expected != result.digest:
        result.status = "mismatch"
    if result.status not in ("ok", "unchecked"):
        for item in result.items:
            item.ok = False
    return result


def end_to_end(results, setup_s: float, rss_mb: float) -> dict[str, float]:
    """Medians over units and items at the reference host speed, so a
    burst of host noise moves a few samples rather than the figure."""
    timed = [r for r in results if r.status != "error" and r.seconds > 0]
    items = [i.seconds * i.ref_factor for r in timed for i in r.items if i.seconds > 0]
    if not items:
        return {"setup_s": setup_s, "work_mops_per_ref_s": 0.0,
                "item_ref_ms_p50": 0.0, "peak_rss_mb": rss_mb}
    return {
        "setup_s": setup_s,
        "work_mops_per_ref_s": statistics.median(
            sum(i.work for i in r.items) / 1e6 / r.reference_seconds() for r in timed),
        "item_ref_ms_p50": statistics.median(items) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def named_metrics(workload, results) -> list[tuple[str, float, str]]:
    """The workload's own headline figures in raw host time, printed
    beside the BENCHMARK.json metrics: (name, value, unit)."""
    timed = [r for r in results if r.status != "error"]
    items = sorted(i.seconds for r in timed for i in r.items if i.seconds > 0)
    seconds = sum(r.seconds for r in timed) or float("nan")
    work = sum(i.work for r in timed for i in r.items)
    if not items:
        return []
    p50 = statistics.median(items)
    if workload.name == "fig8_grid":
        return [("sim_minsn_per_s", work / 1e6 / seconds, "Minsn/s"),
                ("cell_s_p50", p50, "s"), ("cells", len(items), "count")]
    if workload.name == "tenant_fleet":
        p90 = statistics.quantiles(items, n=10)[-1] if len(items) > 1 else items[0]
        return [("sim_minsn_per_s", work / 1e6 / seconds, "Minsn/s"),
                ("tenants_per_s", len(items) / seconds, "1/s"),
                ("tenant_ms_p50", p50 * 1e3, "ms"),
                ("tenant_ms_p90", p90 * 1e3, "ms"),
                ("tenants", len(items), "count"),
                ("tenants_beyond_p90", sum(s > p90 for s in items), "count")]
    phase_s = {p: sum(r.detail["phase_s"][p] for r in timed) for p in timed[0].detail["phase_s"]}
    phase_keys = {p: sum(r.detail["phase_keys"][p] for r in timed) for p in phase_s}
    return [("filter_mops_per_s", work / 1e6 / seconds, "Mop/s")] + [
        (f"{phase}_kkeys_per_s", phase_keys[phase] / 1e3 / phase_s[phase], "kkeys/s")
        for phase in ("put", "get", "delete")
    ] + [("batches", len(items), "count")]


def fig8_accuracy(results, scale) -> list[str]:
    """Normalized performance and FP/Minsn per mix beside the paper's."""
    from repro.utils.stats import geometric_mean

    by_cell = {(r.detail["mix"], r.detail["index"], r.detail["monitor"]): r.detail
               for r in results if r.status != "error"}
    rows = {}
    for (mix, index, monitor), detail in by_cell.items():
        base = by_cell.get((mix, index, False))
        if monitor and base is not None:
            rows.setdefault(mix, []).append((
                base["mean_time"] / detail["mean_time"],
                detail["prefetches_issued"] * 1e6 / detail["instructions"],
            ))
    if not rows:
        return []
    lines = [f"model accuracy (scaled 1/8 Table II system, {scale.fig8_insns} "
             "insns/core per cell, cold caches; printed, not gated, and not "
             "a validation of the paper's 1 B insns/core result):"]
    normalized = {}
    for mix in sorted(rows):
        norm = statistics.fmean(n for n, _ in rows[mix])
        fp = statistics.fmean(f for _, f in rows[mix])
        normalized[mix] = norm
        paper = PAPER_FIG8["fp_per_minsn"].get(mix)
        lines.append(f"  {mix}: normalized perf {norm:.5f}, FP/Minsn {fp:.1f}"
                     + (f" (paper {paper})" if paper else ""))
    delta = (geometric_mean(list(normalized.values())) - 1) * 100
    lines.append(f"  geomean perf delta {delta:+.3f}% "
                 f"(paper {PAPER_FIG8['geomean_delta_pct']:+.1f}%)")
    return lines


def measure(workload, scale, args, references, engine_ok, setup):
    """Closed loop of whole rounds until ``--seconds`` have passed,
    with a set-up probe between rounds."""
    from workloads import catalogue_index

    repeats = SETUP_REPEATS[args.scale]
    results = []
    rss_mb = None
    started = time.perf_counter()
    round_no = 0
    while (round_no < workload.min_rounds(scale)
           or time.perf_counter() - started < args.seconds):
        index = catalogue_index(args.seed, round_no, args.holdout)
        for unit_id, params in workload.units(scale, index):
            results.append(run_unit(workload, unit_id, params, scale,
                                    references, args.holdout, engine_ok))
        round_no += 1
        if rss_mb is None:
            # Peak after a fixed amount of work: later rounds only
            # repeat it, and how many fit depends on host speed.
            rss_mb = peak_rss_mb()
        if len(setup.times) < repeats:
            setup.sample()
    while len(setup.times) < repeats:
        setup.sample()
    return results, round_no, rss_mb


def measure_traced(workload, scale, args, references, engine_ok):
    """Repeat the seed's first round untraced, then traced, until
    ``--seconds`` have passed.  Returns the results of every run, the
    merged per-layer metrics, the problems found, the tracing overhead
    (seconds per round), and the Chrome trace."""
    from tracing import Tracer, merge_layer_metrics
    from workloads import catalogue_index

    from repro.obs.trace import validate_chrome_trace

    units = workload.units(scale, catalogue_index(args.seed, 0, args.holdout))
    results, layers, problems = [], [], []
    plain_s, traced_s, events = [], [], []
    started = time.perf_counter()
    while not layers or time.perf_counter() - started < args.seconds:
        plain = [run_unit(workload, u, p, scale, references, args.holdout, engine_ok)
                 for u, p in units]
        tracer = Tracer(workload.name)
        with tracer.installed():
            traced = [run_unit(workload, u, p, scale, references, args.holdout,
                               engine_ok, tracer) for u, p in units]
        results += plain + traced
        for a, b in zip(plain, traced):
            if a.digest != b.digest:
                problems.append(f"{a.unit}: traced digest {b.digest} != untraced {a.digest}")
                for item in b.items:
                    item.ok = False
        problems += tracer.nesting_problems()
        layers.append(tracer.layer_metrics())
        plain_s.append(sum(r.seconds for r in plain))
        traced_s.append(sum(r.seconds for r in traced))
        events += tracer.chrome_events(first=len(events))
    merged, repeat_problems = merge_layer_metrics(layers)
    problems += repeat_problems
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    problems += [f"chrome trace: {p}" for p in validate_chrome_trace(trace)]
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    return results, merged, problems, (overhead, statistics.median(plain_s),
                                       len(units), len(layers)), trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="run catalogue indices with no stored reference")
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="input sizes (tiny: the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    prepare_environment()
    spec = json.loads(SPEC.read_text())
    setup = SetupProbe()
    probe_engine = setup.warm_up()

    from workloads import SCALES, WORKLOADS

    from repro.engine import effective_engine

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    references = json.loads(REFERENCES.read_text())[args.scale][workload.name]
    stamp = provenance(args)
    engine_ok = probe_engine == "c" and stamp["engine_effective"] == "c"

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}{' holdout' if args.holdout else ''}")
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    print(f"closed loop, jobs=1, one {workload.item} at a time; modelled caches "
          "start empty in every cell and tenant (no warm-up)")
    record = {"provenance": stamp}
    tag = f"{workload.name}-seed{args.seed}{'-holdout' if args.holdout else ''}"

    if args.trace:
        results, metrics, problems, (overhead, plain, units, reps), trace = \
            measure_traced(workload, scale, args, references, engine_ok)
        trace_path = OUT / f"{tag}.trace.json"
        trace_path.write_text(json.dumps(trace) + "\n")
        print(f"first round ({units} unit(s)) run untraced then traced, "
              f"{reps} time(s); tracing overhead {overhead:+.3f} s per round "
              f"({overhead / plain * 100:+.1f}% of {plain:.3f} s untraced)")
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        record.update(tracing_overhead_s=overhead, untraced_round_s=plain,
                      problems=problems)
        wanted = spec["per_layer"]
    else:
        results, rounds, rss_mb = measure(workload, scale, args, references,
                                          engine_ok, setup)
        metrics = end_to_end(results, setup.median(), rss_mb)
        record["setup_runs_s"] = setup.times
        factors = [i.ref_factor for r in results for i in r.items if i.seconds > 0]
        print(f"host speed: median factor {statistics.median(factors):.3f} "
              f"(range {min(factors):.3f}-{max(factors):.3f}) scales host time "
              f"to the reference speed; raw setup median "
              f"{statistics.median(setup.times):.4f} s")
        problems = []
        print(f"{rounds} round(s), {len(results)} unit(s)")
        for name, value, unit in named_metrics(workload, results):
            print(f"  {name:<22} {value:>14.4f} {unit}")
        if workload.name == "fig8_grid":
            for line in fig8_accuracy(results, scale):
                print(line)
        wanted = spec["end_to_end"]

    items = [i for r in results for i in r.items]
    failed = sum(not i.ok for i in items)
    statuses = {}
    for r in results:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    print(f"digests: {statuses}; fail_frac {failed / max(1, len(items)):.4f} "
          f"({failed} of {len(items)} {workload.item}(s))")
    for r in results:
        if r.status != "ok":
            print(f"  {r.status}: {r.unit} digest {r.digest}")
    for problem in problems:
        print(f"  problem: {problem}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in out.items():
        print(f"  {name:<28} {entry['value']:>16.6f} {entry['unit']}")
    record.update(metrics=out, units=[
        {"unit": r.unit, "status": r.status, "digest": r.digest,
         "seconds": r.seconds, "reference_seconds": r.reference_seconds(),
         "work": sum(i.work for i in r.items),
         "detail": r.detail}
        for r in results
    ])
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    correct = failed == 0 and not problems and engine_ok
    print(json.dumps({"correct": correct, "attempted": len(items),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
