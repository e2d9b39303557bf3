"""Detection & response subsystem: determinism, engines, side effects.

Three layers of guarantees:

* **Detectors are pure functions of the alarm stream** — same stream,
  same verdicts, online or replayed (Hypothesis over synthetic
  streams).  This is what lets fig10 evaluate many ROC operating
  points from one simulation.
* **Bit-identical across engines and fan-out** — detector verdicts
  and response side effects (flush bursts, throttling, isolate's
  guard refills and the LLC replacement-RNG draws after them) must be
  identical under the ``python`` and ``c`` engines and
  under the ``REPRO_JOBS`` fork/spawn fan-out.  The isolate case is
  the sharp one: a guard refill perturbs the lru_rand victim pool, so
  any engine divergence in refill ordering would desynchronise the
  RNG draw sequence for the rest of the run.
* **Responses actually act** — throttle wraps the core's access
  binding (and restores it), flush_suspect issues real flushes,
  isolate keeps its line resident.
"""

import dataclasses
import json
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.covert_channel import run_covert_channel
from repro.attacks.flush_reload import run_flush_attack
from repro.detection import (
    DetectionSpec,
    build_detector,
    build_response,
    replay,
)
from repro.detection.unit import DetectionUnit
from repro.experiments.parallel import run_cells
from repro.utils.events import (
    ALARM_CAPTURE,
    ALARM_PEVICT,
    AlarmBus,
    EventQueue,
)


def canonical(obj):
    """JSON-normalised payload (same rules as the conformance
    digests: dataclass trees flattened, tuples and lists unified,
    provenance keys scrubbed — ``result.extra["engine"]`` records
    which engine ran and is engine-dependent by definition, while
    these comparisons assert cross-engine identity)."""
    def default(o):
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        raise TypeError(type(o).__name__)

    def scrub(o):
        if isinstance(o, dict):
            return {k: scrub(v) for k, v in o.items() if k != "engine"}
        if isinstance(o, list):
            return [scrub(v) for v in o]
        return o

    return scrub(
        json.loads(json.dumps(obj, sort_keys=True, default=default))
    )


@contextmanager
def engine_env(name: str):
    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = name
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved


# ----------------------------------------------------------------------
# Alarm bus
# ----------------------------------------------------------------------

def test_alarm_bus_logs_and_fans_out_in_order():
    bus = AlarmBus(log=True)
    seen_a, seen_b = [], []
    bus.subscribe(lambda *alarm: seen_a.append(alarm))
    bus.subscribe(lambda *alarm: seen_b.append(alarm))
    bus.publish(ALARM_CAPTURE, 10, 0x40, -1, 0)
    bus.publish(ALARM_PEVICT, 55, 0x40, -1, 0b10)
    assert bus.published == 2
    assert bus.log == [(0, 10, 0x40, -1, 0), (1, 55, 0x40, -1, 2)]
    assert seen_a == seen_b == bus.log


def test_alarm_bus_without_log_keeps_only_count():
    bus = AlarmBus()
    bus.publish(ALARM_PEVICT, 1, 2, -1, 1)
    assert bus.log is None and bus.published == 1


# ----------------------------------------------------------------------
# Detector semantics
# ----------------------------------------------------------------------

def test_rate_detector_fires_at_threshold_with_cooldown():
    det = build_detector("rate", {"window": 100, "threshold": 3})
    assert det.observe(ALARM_PEVICT, 10, 0x1, -1, 0b01) is None
    assert det.observe(ALARM_PEVICT, 20, 0x2, -1, 0b01) is None
    verdict = det.observe(ALARM_PEVICT, 30, 0x3, -1, 0b11)
    assert verdict is not None
    assert verdict.score == 3
    assert verdict.core == 0          # core 0 named by all three masks
    assert verdict.lines == (0x3, 0x2, 0x1)
    assert verdict.latency == 20      # since the first alarm
    # Cooldown (== window) suppresses an immediate re-fire.
    assert det.observe(ALARM_PEVICT, 40, 0x4, -1, 0b01) is None
    # Captures never count toward the rate.
    assert det.observe(ALARM_CAPTURE, 300, 0x5, -1, 0) is None


def test_rate_detector_window_expiry():
    det = build_detector("rate", {"window": 50, "threshold": 2})
    assert det.observe(ALARM_PEVICT, 0, 0x1, -1, 0) is None
    # 60 cycles later the first alarm has aged out.
    assert det.observe(ALARM_PEVICT, 60, 0x2, -1, 0) is None
    assert det.observe(ALARM_PEVICT, 80, 0x3, -1, 0) is not None


def test_ewma_detector_decays_between_epochs():
    det = build_detector(
        "ewma", {"region_bits": 0, "epoch": 100, "threshold": 2,
                 "decay_shift": 2},
    )
    # Two alarms in one epoch reach 2.0 units exactly.
    assert det.observe(ALARM_PEVICT, 10, 0x1, -1, 0) is None
    assert det.observe(ALARM_CAPTURE, 20, 0x1, -1, 0) is not None
    # A long-idle region resets rather than firing forever.
    fresh = build_detector(
        "ewma", {"region_bits": 0, "epoch": 100, "threshold": 2,
                 "decay_shift": 2},
    )
    assert fresh.observe(ALARM_PEVICT, 0, 0x1, -1, 0) is None
    assert fresh.observe(ALARM_PEVICT, 100 * 70, 0x1, -1, 0) is None


def test_xcore_detector_needs_two_cores():
    params = {"window": 1000, "threshold": 3}
    one_core = build_detector("xcore", params)
    for t in (10, 20, 30, 40):
        assert one_core.observe(ALARM_PEVICT, t, 0x9, -1, 0b01) is None
    two_cores = build_detector("xcore", params)
    assert two_cores.observe(ALARM_PEVICT, 10, 0x9, -1, 0b01) is None
    assert two_cores.observe(ALARM_PEVICT, 20, 0x9, -1, 0b10) is None
    verdict = two_cores.observe(ALARM_PEVICT, 30, 0x9, -1, 0b01)
    assert verdict is not None and verdict.lines == (0x9,)
    assert verdict.core == 0  # 2 sightings of core 0 vs 1 of core 1


# ----------------------------------------------------------------------
# Hypothesis: purity / replay equivalence on synthetic streams
# ----------------------------------------------------------------------

alarm_streams = st.lists(
    st.tuples(
        st.integers(0, 2),          # kind
        st.integers(0, 3000),       # time delta
        st.integers(0, 7),          # line (small pool → collisions)
        st.integers(0, 3),          # sharer mask
    ),
    max_size=60,
)

DETECTOR_SPECS = [
    ("rate", {"window": 2000, "threshold": 3}),
    ("ewma", {"region_bits": 1, "epoch": 1000, "threshold": 2}),
    ("xcore", {"window": 4000, "threshold": 2}),
]


def _materialise(stream):
    t = 0
    out = []
    for kind, dt, line, sharers in stream:
        t += dt
        out.append((kind, t, 0x1000 + line, -1, sharers))
    return out


@settings(deadline=None, max_examples=60)
@given(stream=alarm_streams)
def test_detectors_are_pure_functions_of_the_stream(stream):
    alarms = _materialise(stream)
    first = replay(alarms, [build_detector(n, dict(p)) for n, p in DETECTOR_SPECS])
    second = replay(alarms, [build_detector(n, dict(p)) for n, p in DETECTOR_SPECS])
    assert first == second


@settings(deadline=None, max_examples=40)
@given(stream=alarm_streams)
def test_online_unit_matches_offline_replay(stream):
    alarms = _materialise(stream)
    unit = DetectionUnit(
        [build_detector(n, dict(p)) for n, p in DETECTOR_SPECS],
        build_response("log"),
        EventQueue(),
        hierarchy=None,
    )
    bus = AlarmBus(log=True)
    unit.subscribe_to(bus)
    for alarm in alarms:
        bus.publish(*alarm)
    offline = replay(
        bus.log, [build_detector(n, dict(p)) for n, p in DETECTOR_SPECS]
    )
    assert unit.verdicts == offline
    assert unit.alarms_seen == len(alarms)


# ----------------------------------------------------------------------
# Cross-engine bit-identity (incl. RNG lockstep after isolate re-keys)
# ----------------------------------------------------------------------

_CASES = {
    "rate_log": ("flush_reload", DetectionSpec(
        detectors=(("rate", {"window": 12000, "threshold": 3}),),
    )),
    "ewma_flush": ("flush_flush", DetectionSpec(
        detectors=(("ewma", {}),), response="flush_suspect",
    )),
    "rate_throttle": ("adaptive_flush_reload", DetectionSpec(
        detectors=(("rate", {"window": 5000, "threshold": 3}),),
        response="throttle_core",
    )),
}

_REFERENCE: dict = {}


def _case_payload(case: str, seed: int):
    kind, spec = _CASES[case]
    outcome = run_flush_attack(
        kind, "pipo", iterations=10, seed=seed, detection=spec
    )
    return canonical({
        "simulation": outcome.simulation,
        "observed": outcome.square_observed,
    })


def _covert_isolate_payload(seed: int):
    outcome = run_covert_channel(
        "pipo", n_bits=12, window=3000, seed=seed,
        detection=DetectionSpec(
            detectors=(("xcore", {}),), response="isolate",
        ),
    )
    return canonical({
        "simulation": outcome.simulation,
        "received": outcome.received_bits,
    })


@pytest.mark.parametrize("case", sorted(_CASES))
def test_detection_bit_identical_across_engines(case, repro_engine):
    key = (case, 20260730)
    if key not in _REFERENCE:
        with engine_env("python"):
            _REFERENCE[key] = _case_payload(case, 20260730)
    assert _case_payload(case, 20260730) == _REFERENCE[key]


@settings(deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**20))
def test_isolate_rekey_keeps_rng_in_lockstep_across_engines(seed):
    """Isolate's guard refills perturb the lru_rand victim pools; the
    draw sequence after each re-key must stay identical between the
    generic and the C engine (whose walk replays the ``_randbelow``
    sequence in C) for the rest of the run."""
    with engine_env("python"):
        reference = _covert_isolate_payload(seed)
    with engine_env("c"):
        assert _covert_isolate_payload(seed) == reference


# ----------------------------------------------------------------------
# REPRO_JOBS fan-out
# ----------------------------------------------------------------------

def _fanout_cell(cell):
    case, seed = cell
    if case == "covert_isolate":
        return _covert_isolate_payload(seed)
    return _case_payload(case, seed)


def test_detection_cells_identical_under_worker_fanout():
    cells = [
        ("rate_log", 1), ("rate_throttle", 2), ("covert_isolate", 3),
    ]
    serial = run_cells(cells, _fanout_cell, jobs=1)
    fanned = run_cells(cells, _fanout_cell, jobs=2)
    assert fanned == serial


# ----------------------------------------------------------------------
# Response side effects
# ----------------------------------------------------------------------

def test_throttle_wraps_and_restores_core_access():
    from repro.core.config import TABLE_II
    from repro.cpu.system import build_system
    from repro.workloads.base import ScriptedWorkload

    def core0():
        system, _ = build_system(
            TABLE_II,
            [ScriptedWorkload([(0, 0, 64)], name="w")
             for _ in range(TABLE_II.num_cores)],
        )
        return system.cores[0]

    # Twin systems, one throttled: the same ops cost the same plus the
    # penalty on everything but the L1 read hit.
    plain, core = core0(), core0()
    base = core._access
    core.throttle(250)
    assert core.throttled and core.penalty == 250
    miss = plain._access(0, 0, 0x4000, 0)
    assert core._access(0, 0, 0x4000, 0) == miss + 250
    hit = plain._access(0, 0, 0x4000, 0)
    assert hit == TABLE_II.l1.latency < miss
    assert core._access(0, 0, 0x4000, 0) == hit
    core.throttle(100)  # re-throttle replaces, never stacks
    assert core._access(0, 0, 0x8000, 0) == plain._access(0, 0, 0x8000, 0) + 100
    assert core._access(0, 1, 0x4000, 0) == plain._access(0, 1, 0x4000, 0) + 100
    core.unthrottle()
    assert not core.throttled and core._access is base and core.penalty == 0


def test_flush_suspect_issues_real_flushes():
    spec_log = DetectionSpec(
        detectors=(("rate", {"window": 12000, "threshold": 3}),),
    )
    spec_flush = DetectionSpec(
        detectors=(("rate", {"window": 12000, "threshold": 3}),),
        response="flush_suspect",
    )
    base = run_flush_attack(
        "flush_reload", "pipo", iterations=12, seed=5, detection=spec_log
    )
    flushed = run_flush_attack(
        "flush_reload", "pipo", iterations=12, seed=5, detection=spec_flush
    )
    det = flushed.simulation.extra["detection"]
    assert det["response_summary"]["flushes_requested"] > 0
    assert flushed.simulation.stats.flushes > base.simulation.stats.flushes


def test_isolate_reseats_and_cuts_the_covert_channel():
    common = dict(n_bits=16, window=3000, seed=9)
    spec = lambda resp: DetectionSpec(  # noqa: E731
        detectors=(("rate", {"window": 12000, "threshold": 3}),),
        response=resp,
    )
    logged = run_covert_channel("pipo_detect", detection=spec("log"), **common)
    isolated = run_covert_channel(
        "pipo_detect", detection=spec("isolate"), **common
    )
    det = isolated.simulation.extra["detection"]
    assert det["response_summary"]["lines_isolated"] >= 1
    assert det["guard_refills"] > 0
    assert isolated.effective_bandwidth < logged.effective_bandwidth


@pytest.mark.parametrize("defence", ["bitp", "table"])
def test_baseline_defences_publish_alarms(defence):
    """Every registry monitor feeds the bus, not just PiPoMonitor:
    BITP publishes its back-invalidation pEvicts (and, stateless,
    never captures); the table recorder publishes the full
    capture/pEvict protocol like PiPoMonitor."""
    outcome = run_flush_attack(
        "flush_reload", defence, iterations=12, seed=4,
        detection=DetectionSpec(
            detectors=(("rate", {"window": 12000, "threshold": 3}),),
        ),
    )
    det = outcome.simulation.extra["detection"]
    alarms = det["alarm_log"]
    assert det["alarms_published"] == len(alarms) > 0
    kinds = {alarm[0] for alarm in alarms}
    assert ALARM_PEVICT in kinds
    if defence == "bitp":
        assert ALARM_CAPTURE not in kinds
        # BITP's pEvicts are back-invalidations: every one names the
        # scrubbed sharers.
        assert all(a[4] for a in alarms if a[0] == ALARM_PEVICT)
    else:
        assert ALARM_CAPTURE in kinds
    assert det["verdicts"] > 0  # loud Flush+Reload crosses the rate


def test_detection_requires_a_monitor():
    with pytest.raises(ValueError, match="detection requires"):
        run_flush_attack(
            "flush_reload", "none", iterations=4, seed=0,
            detection=DetectionSpec(),
        )


def test_log_only_detection_does_not_perturb_the_simulation():
    """Attaching the bus + detectors with the log policy must leave
    the simulation identical to an undetected run (observation is
    free of side effects) — the property that let the pre-existing
    goldens survive this subsystem."""
    plain = run_flush_attack("flush_reload", "pipo", iterations=10, seed=11)
    observed = run_flush_attack(
        "flush_reload", "pipo", iterations=10, seed=11,
        detection=DetectionSpec(
            detectors=(("rate", {"window": 12000, "threshold": 3}),),
        ),
    )
    plain_payload = canonical(plain.simulation)
    observed_payload = canonical(observed.simulation)
    observed_payload["extra"].pop("detection")
    assert observed_payload == plain_payload
