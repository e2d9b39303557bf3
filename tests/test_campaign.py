"""Fleet-campaign contract: online aggregation equals offline, and the
aggregate digest is invariant under parallelism, faults, and SIGKILL +
resume.

The campaign runner streams tenants through the supervised pool and
folds results online into fixed-size sufficient statistics.  These
tests prove the properties that make the resulting report trustworthy:

* the quantile sketch answers within its declared relative-error bound
  against exact order statistics (hypothesis property test);
* profile sampling is a pure function of ``(campaign_seed, index)``;
* folding online during a streamed run reaches *bit-identical* state
  to folding the same records offline, serial or parallel;
* injected crash/hang faults (the ISSUE's ``crash:0.05,hang:0.02``
  leg) change nothing about the final aggregate;
* a real SIGKILL mid-campaign + ``--resume`` replays only the missing
  tenants and reproduces the uninterrupted digest bit-exactly.

Tenant budgets here are tiny (thousands of instructions, a handful of
probe iterations) so the suite stays tier-1-fast; CI's campaign smoke
job (``tests/campaign_smoke.py``) runs the same contract at ~200
tenants.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import (
    ATTACK_KINDS,
    CampaignAggregate,
    TenantProfile,
    _run_tenant,
    run,
    sample_profile,
)
from repro.experiments.faults import FaultPlan
from repro.utils.stats import QuantileSketch

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Tiny budgets shared by every in-process campaign in this file.
TINY = dict(
    benign_instructions=(3_000, 6_000),
    attack_iterations=(4, 6),
    covert_bits=(6, 8),
)


def _tiny_run(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run(**{**TINY, **kwargs})


# ----------------------------------------------------------------------
# Quantile sketch: property-tested against exact order statistics
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        min_size=1, max_size=200,
    ),
    q=st.floats(min_value=0.01, max_value=1.0),
)
# 1e6 lies exactly on a bucket edge of this geometry, so its error
# equals the declared bound.
@example(samples=[1e6], q=1.0)
def test_sketch_quantile_within_declared_tolerance(samples, q):
    sketch = QuantileSketch(lo=1e-3, hi=1e9, bins=256)
    for value in samples:
        sketch.add(value)
    rank = max(1, math.ceil(q * len(samples)))
    exact = sorted(samples)[rank - 1]
    estimate = sketch.quantile(q)
    if exact <= sketch.lo:
        assert estimate == sketch.lo
    else:
        # The bucket midpoint goes through log/exp of values up to
        # ln(hi/lo) ~ 28, which rounds a few ulps of that magnitude:
        # at a bucket edge the error can overshoot the exact bound
        # by ~1e-15 relative.
        slack = 64 * sys.float_info.epsilon
        assert abs(estimate - exact) <= (sketch.relative_error + slack) * exact


def test_sketch_validation_and_empty():
    with pytest.raises(ValueError):
        QuantileSketch(lo=0.0)
    with pytest.raises(ValueError):
        QuantileSketch(bins=0)
    sketch = QuantileSketch()
    assert sketch.quantile(0.5) is None
    with pytest.raises(ValueError):
        sketch.quantile(0.0)


# ----------------------------------------------------------------------
# Profile sampling: deterministic, covers the population
# ----------------------------------------------------------------------

def test_sampling_is_deterministic_and_index_pure():
    a = [sample_profile(11, i) for i in range(64)]
    b = [sample_profile(11, i) for i in range(64)]
    assert a == b
    # Any single tenant replays without its neighbours.
    assert sample_profile(11, 37) == a[37]
    # A different campaign seed is a different fleet.
    assert [sample_profile(12, i) for i in range(64)] != a


def test_sampling_covers_both_sides_of_the_roc():
    kinds = {sample_profile(0, i).kind for i in range(256)}
    assert "benign" in kinds
    assert kinds & set(ATTACK_KINDS)
    assert all(
        sample_profile(0, i).kind == "benign"
        for i in range(64)
    ) is False
    # attack_fraction is honored at the extremes.
    assert all(
        sample_profile(0, i, attack_fraction=0.0).kind == "benign"
        for i in range(32)
    )
    assert all(
        sample_profile(0, i, attack_fraction=1.0).kind != "benign"
        for i in range(32)
    )


def test_profile_is_the_cell():
    profile = sample_profile(3, 5)
    assert isinstance(profile, TenantProfile)
    assert profile.index == 5
    # Frozen + deterministic repr: safe as a checkpoint digest input.
    with pytest.raises(Exception):
        profile.index = 6
    assert repr(profile) == repr(sample_profile(3, 5))


# ----------------------------------------------------------------------
# Online == offline aggregation, serial == parallel
# ----------------------------------------------------------------------

TENANTS = 16
SEED = 3


def test_online_aggregation_equals_offline_fold():
    online = _tiny_run(seed=SEED, tenants=TENANTS, jobs=1)
    offline = CampaignAggregate()
    kinds = {}
    for i in range(TENANTS):
        record = _run_tenant(sample_profile(SEED, i, **TINY))
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        offline.update(i, record)
    assert online.data["aggregate_digest"] == offline.digest()
    assert online.data["aggregate"] == offline.state()
    assert online.data["aggregate"]["kinds"] == dict(sorted(kinds.items()))
    assert online.data["aggregate"]["tenants"] == TENANTS


def test_parallel_and_chunked_digests_match_serial():
    serial = _tiny_run(seed=SEED, tenants=TENANTS, jobs=1)
    parallel = _tiny_run(seed=SEED, tenants=TENANTS, jobs=2, chunk_size=5)
    assert (
        serial.data["aggregate_digest"] == parallel.data["aggregate_digest"]
    )


def test_campaign_warns_when_serial():
    with pytest.warns(RuntimeWarning, match="serial"):
        run(seed=1, tenants=1, jobs=1, **TINY)


# ----------------------------------------------------------------------
# Fault-injection leg: the ISSUE's crash:0.05,hang:0.02 schedule
# ----------------------------------------------------------------------

def test_fault_injected_campaign_digest_matches_clean(monkeypatch):
    clean = _tiny_run(seed=SEED, tenants=TENANTS, jobs=1)
    monkeypatch.setenv("REPRO_FAULTS", "crash:0.05,hang:0.02")
    monkeypatch.setenv("REPRO_FAULT_SEED", "51")
    monkeypatch.setenv("REPRO_FAULT_HANG", "30")
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
    # The schedule must actually fire inside a chunk for this to test
    # anything: faults key on chunk-local indices and attempt 0.  Seed
    # 51 injects both a crash and a hang within the first 5 cells.
    plan = FaultPlan.parse("crash:0.05,hang:0.02", seed=51)
    assert any(plan.decide("crash", i, 0) for i in range(5))
    assert any(plan.decide("hang", i, 0) for i in range(5))
    faulted = _tiny_run(
        seed=SEED, tenants=TENANTS, jobs=2, chunk_size=5,
    )
    assert clean.data["aggregate_digest"] == faulted.data["aggregate_digest"]
    assert not faulted.data["stream"]["failures"]


# ----------------------------------------------------------------------
# SIGKILL mid-campaign + resume: bit-identical final aggregate
# ----------------------------------------------------------------------

def test_kill_and_resume_reproduces_uninterrupted_digest(tmp_path):
    """A real SIGKILL mid-sweep: the per-chunk shards survive, a second
    process resumes, replays only the missing tenants, and reaches the
    exact digest of an uninterrupted run."""
    reference = _tiny_run(
        seed=5, tenants=24, jobs=1, chunk_size=6,
        benign_instructions=(20_000,), attack_iterations=(8,),
        covert_bits=(16,),
    )
    script = f"""
import sys, warnings
sys.path.insert(0, {SRC!r})
warnings.simplefilter("ignore")
from repro.experiments.campaign import run
r = run(seed=5, tenants=24, jobs=2, chunk_size=6,
        benign_instructions=(20_000,), attack_iterations=(8,),
        covert_bits=(16,))
print("DIGEST", r.data["aggregate_digest"])
print("LOADED", r.data["stream"]["loaded"])
print("COMPUTED", r.data["stream"]["computed"])
"""
    env = {
        **os.environ,
        "REPRO_CHECKPOINT_DIR": str(tmp_path),
        "REPRO_RESUME": "1",
    }
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    # Kill hard as soon as the first tenants have checkpointed.
    shard = None
    deadline = time.monotonic() + 60
    while shard is None and time.monotonic() < deadline:
        time.sleep(0.025)
        shard = next(
            (p for p in tmp_path.glob("campaign-*.jsonl")
             if p.stat().st_size > 0),
            None,
        )
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    assert shard is not None, "no tenants checkpointed before the kill"

    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout
    lines = dict(
        line.split(" ", 1) for line in out.stdout.strip().splitlines()
        if " " in line
    )
    assert lines["DIGEST"] == reference.data["aggregate_digest"]
    assert int(lines["LOADED"]) > 0, "resume must replay shard tenants"
    assert int(lines["LOADED"]) + int(lines["COMPUTED"]) == 24
