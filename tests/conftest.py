"""Tier defaults for the test suite.

Everything under ``tests/`` is tier-1 unless it carries an explicit
tier marker: the ``conformance`` suite (``tests/conformance/``) and
the ``tier2_perf`` benchmarks keep their own markers, every other test
is auto-marked ``tier1``.  ``python -m pytest -x -q`` therefore runs
tier-1 *plus* conformance (both are fast and both gate merges), while
``-m tier1`` and ``-m conformance`` select either suite standalone.

``engines()`` is the shared parametrization source for the
golden-equivalence and conformance suites: every engine this host can
run (``c`` is probed once — included only when the cffi extension
builds).  Suites parametrize over it with an autouse fixture that pins
``REPRO_ENGINE``, so each case replays bit-identically under each
engine.

A filter binds its engine when it is built, so a test that checks the
C kernels against the reference builds the reference twin under
``python`` (and the twin under test under ``c``) with the
``built_under`` fixture.
"""

import contextlib
import functools
import os
import sys
from pathlib import Path

import pytest

# Make the src/ layout importable regardless of how pytest was invoked
# (PYTHONPATH=src is the documented tier-1 command, but standalone runs
# of a single test module must not depend on it or on another module's
# collection-order side effects).
_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@functools.lru_cache(maxsize=1)
def engines() -> tuple[str, ...]:
    """Engines available on this host (probes the C toolchain once)."""
    from repro.engine import available_engines

    return available_engines()


def pytest_collection_modifyitems(items):
    for item in items:
        if "conformance" in item.keywords or "tier2_perf" in item.keywords:
            continue
        item.add_marker(pytest.mark.tier1)


def pytest_generate_tests(metafunc):
    # Any test (or class/module via usefixtures) requesting
    # ``repro_engine`` fans out over every available engine.
    if "repro_engine" in metafunc.fixturenames:
        metafunc.parametrize("repro_engine", engines(), indirect=True)


@pytest.fixture
def repro_engine(request, monkeypatch):
    """Pin ``REPRO_ENGINE`` for the test; yields the engine name."""
    monkeypatch.setenv("REPRO_ENGINE", request.param)
    return request.param


@contextlib.contextmanager
def _built_under(name: str):
    """Select engine ``name`` for the block; restore the prior
    selection (set or unset) after it."""
    prior = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = name
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = prior


@pytest.fixture(scope="session")
def built_under():
    """``with built_under("python"): reference = make()`` — what the
    block builds binds that engine for life.  Session-scoped, so
    Hypothesis tests may take it."""
    return _built_under
