"""Shared benchmark configuration.

Every benchmark regenerates one paper artefact (table or figure), runs
it exactly once (``pedantic`` with one round — the experiments are
deterministic, so statistical repetition adds nothing but wall time),
prints the regenerated table, asserts the paper's qualitative claims
about it, and writes the rendered tables to ``benchmarks/results/``
so the artefacts survive pytest's output capturing.

Scale: laptop-sized by default; set ``REPRO_FULL=1`` for paper-scale
runs.

Engine: ``--engine {python,c}`` selects the simulation
engine for the whole benchmark session (it sets ``REPRO_ENGINE``, so
worker processes inherit it) — e.g.
``pytest benchmarks/bench_fig9_flush_attacks.py --engine c``.

Every artefact written to ``benchmarks/results/<id>.txt`` carries a
provenance header (seed, scale, engine, instruction budget) so a
regenerated file diffs clean when — and only when — the run actually
changed.  The results were previously unstamped, which made fig9.txt
and friends impossible to reproduce from the committed bytes alone.
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        choices=("python", "c"),
        default=None,
        help="simulation engine for this benchmark session "
             "(sets REPRO_ENGINE; default: environment/c)",
    )


@pytest.fixture(scope="session", autouse=True)
def _select_engine(request):
    choice = request.config.getoption("--engine")
    if choice is not None:
        os.environ["REPRO_ENGINE"] = choice
    yield


def _provenance(fn, kwargs) -> str:
    """One-line provenance stamp for a regenerated artefact.

    Only parameters the experiment actually takes are stamped (a run
    that accepts no seed or instruction budget must not claim one —
    false provenance is worse than none); the engine always applies,
    and it is the *effective* engine after any toolchain fallback.
    """
    import inspect

    from repro.engine import effective_engine
    from repro.experiments.common import instructions_per_core, is_full_scale

    try:
        accepted = set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        accepted = set(kwargs)
    parts = []
    if "seed" in accepted:
        parts.append(f"seed={kwargs.get('seed', 0)}")
    if "full" in accepted:
        full = kwargs.get("full")
        parts.append(f"scale={'full' if is_full_scale(full) else 'scaled'}")
        parts.append(f"instructions={instructions_per_core(full)}")
    parts.append(f"engine={effective_engine()}")
    for key in sorted(set(kwargs) - {"seed", "full"}):
        parts.append(f"{key}={kwargs[key]}")
    return "# generated by benchmarks/ — " + " ".join(parts)


@pytest.fixture
def run_once(benchmark):
    """Run ``fn`` once under the benchmark clock; return its result.

    ``ExperimentResult`` outputs are also persisted under
    ``benchmarks/results/<experiment_id>.txt``, stamped with the
    seed/scale/engine they were generated under.
    """

    def runner(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        )
        to_text = getattr(result, "to_text", None)
        experiment_id = getattr(result, "experiment_id", None)
        if callable(to_text) and experiment_id:
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"{experiment_id}.txt"
            path.write_text(
                _provenance(fn, kwargs) + "\n" + to_text() + "\n"
            )
        return result

    return runner
