"""The benchmark's own checks, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, **kwargs):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, **kwargs,
    )


@pytest.fixture(scope="module")
def harness():
    """The benchmark modules, imported with the environment run.py sets."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    import run

    run.prepare_environment()
    import tracing
    import workloads

    yield run, tracing, workloads
    os.environ.clear()
    os.environ.update(saved_env)
    sys.path[:] = saved_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    report = "\n".join(lines[:-1])
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"{metric['name']} " in report and f" {metric['unit']}" in report
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_stored_digests_match(harness):
    run, _, workloads = harness
    references = json.loads(run.REFERENCES.read_text())["tiny"]
    scale = workloads.SCALES["tiny"]
    for workload in workloads.WORKLOADS.values():
        for index in (0, workloads.CATALOGUE_SIZE - 1):
            for unit_id, params in workload.units(scale, index):
                result = workload.run(unit_id, params, scale)
                assert result.digest == references[workload.name][unit_id], unit_id


def test_traced_layers_fit_their_spans_and_keep_digests(harness):
    _, tracing, workloads = harness
    scale = workloads.SCALES["tiny"]
    for workload in workloads.WORKLOADS.values():
        unit_id, params = workload.units(scale, 1)[0]
        untraced = workload.run(unit_id, params, scale)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer(workload.name)
            with tracer.installed():
                traced = workload.run(unit_id, params, scale, tracer)
            assert traced.digest == untraced.digest
            assert tracer.nesting_problems() == []
            metrics = tracer.layer_metrics()
            counts.append({k: metrics[k] for k in tracing.COUNT_METRICS})
            spans = tracer.spans()
            roots = [s for s in spans
                     if s["parent"] is None and s["name"] != "bench.harness"]
            assert [s["name"] for s in roots] in (["bench.cell"], ["bench.batch"],
                                                  ["experiments.campaign"])
            assert all(s["ts"] >= roots[0]["ts"] - tracing.TOLERANCE_US
                       and s["ts"] + s["dur"] <= roots[0]["ts"] + roots[0]["dur"]
                       + tracing.TOLERANCE_US
                       for s in spans if s["parent"] is not None)
            root_s = roots[0]["dur"] / 1e6
            for name in tracing.TIME_METRICS:
                assert 0 <= metrics[name] <= root_s, name
        assert counts[0] == counts[1]
    # Wrappers are gone again: an untraced run sees the plain methods.
    from repro.cpu.multicore import MulticoreSystem

    assert MulticoreSystem.run.__name__ == "run"


def test_wrong_reference_digest_fails(harness):
    run, _, workloads = harness
    workload = workloads.WORKLOADS["fig8_grid"]
    scale = workloads.SCALES["tiny"]
    references = dict(json.loads(run.REFERENCES.read_text())["tiny"]["fig8_grid"])
    units = workload.units(scale, 3)
    references[units[0][0]] = "0" * 64
    results = [run.run_unit(workload, unit_id, params, scale, references,
                            holdout=False, engine_ok=True)
               for unit_id, params in units]
    items = [item for result in results for item in result.items]
    failed = sum(not item.ok for item in items)
    assert [r.status for r in results] == ["mismatch"] + ["ok"] * (len(units) - 1)
    assert 0 < failed / len(items) < 1


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig8_grid", "--seed", "0", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
