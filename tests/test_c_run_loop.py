"""The C-resident run loop (PERFORMANCE.md rule 19) against its Python
references.

* ``cw_mt_seed`` leaves the exact state ``random.Random(seed)`` starts
  from, for every 64-bit seed (the edges of the one- and two-word
  keys, plus Hypothesis);
* the C emitter reproduces each synthetic archetype's generator
  stream record for record (Hypothesis over sizes, fractions and
  seeds), and refuses every stream it does not port — attackers and
  victims included;
* under the ``c`` engine, a system whose cores carry their source
  takes the C loop and equals its ``REPRO_BATCH=0`` run — cores bound
  without a source, the Python loop — field for field, including
  monitor callbacks, captured lines, prefetch events interleaving with
  the cores, and streams as sparse as one memory op per 10**5
  instructions;
* the C loop is taken exactly when it should be: a fig8 cell never
  steps a Python core, while the python engine and a scripted core
  each keep the Python loop; a generator the C loop runs never builds
  its line picker, and the C loop builds a pointer chase's chain in C
  (``cw_chain``, pinned element for element against ``_chain`` over
  sizes and seeds), so no Python shuffle runs;
* the sync after a C run copies counters only: the line dicts,
  ``_memory_versions`` and the LLC MT states stay untouched until the
  first reader, which brings them to the python engine's, and every
  reader then equals the ``REPRO_BATCH=0`` run;
* a defended system (``run_workloads`` with a registry defence and a
  detection unit online) takes the C loop and equals its
  ``REPRO_BATCH=0`` run field for field, the detection report
  included, under every response policy and alarm-publishing defence;
  a throttle response costs the same under both engines and both
  loops.
"""

import random
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.covert_channel import CovertReceiver, CovertSender
from repro.attacks.flush_reload import FlushFlushAttacker, FlushReloadAttacker
from repro.attacks.primeprobe import PrimeProbeAttacker
from repro.attacks.victim import SquareMultiplyVictim
from repro.core.pipomonitor import PiPoMonitor
from repro.cpu.core import Core
from repro.cpu.multicore import MulticoreSystem
from repro.cpu.system import build_system, run_system, run_workloads
from repro.detection import DetectionSpec
from repro.detection.responses import RESPONSES
from repro.engine import available_engines, c_backend, c_cache
from repro.experiments import fig8_performance
from repro.experiments.common import scaled_mix_workloads, scaled_system_config
from repro.utils.events import EventQueue
from repro.workloads.base import ScriptedWorkload
from repro.workloads.spec import spec_workload
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)


@pytest.fixture
def c_engine(monkeypatch):
    if "c" not in available_engines():
        pytest.skip("C backend unavailable (no cffi/toolchain)")
    monkeypatch.setenv("REPRO_ENGINE", "c")


def _refuse(self, *args):
    raise AssertionError("the Python loop stepped a core")


def _count_calls(monkeypatch, cls, name) -> list[int]:
    calls = [0]
    method = getattr(cls, name)

    def counted(self, *args):
        calls[0] += 1
        return method(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _bound(native: bool, build, *args, **kwargs):
    """``build(*args, **kwargs)`` with its cores bound for the C loop
    (``native``), or under ``REPRO_BATCH=0``: without a source, so the
    run stays on the Python loop."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_BATCH", "1" if native else "0")
        return build(*args, **kwargs)


# ----------------------------------------------------------------------
# The emitter
# ----------------------------------------------------------------------

_common = st.fixed_dictionaries({
    "working_set_bytes": st.integers(64, 64 * 4096),
    "mem_fraction": st.floats(0.01, 1.0),
    "write_fraction": st.floats(0.0, 1.0),
    "ifetch_fraction": st.floats(0.0, 0.5),
    "code_bytes": st.integers(64, 64 * 1024),
    "conflict_lines": st.integers(0, 24),
    "conflict_fraction": st.floats(0.0, 0.5),
    "conflict_stride_bytes": st.integers(1, 4096).map(lambda n: n * 64),
    "accesses_per_line": st.integers(1, 8),
})


@st.composite
def _workloads(draw, cls):
    kwargs = draw(_common)
    if cls is HotColdWorkload:
        kwargs["hot_bytes"] = draw(st.integers(64, kwargs["working_set_bytes"]))
        kwargs["hot_probability"] = draw(st.floats(0.01, 0.99))
    return cls(**kwargs)


def test_cw_mt_seed_matches_random_seeding(c_engine):
    # The emitters' MT states are seeded in C from the seeds
    # emitter_state hands over; each must be the state
    # random.Random(seed) starts from (init_by_array over the seed's
    # 32-bit words, one word below 2**32), all 624 words and the index.
    ffi, lib = c_backend._load_lib()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    @example(seed=1)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**63)
    @example(seed=2**64 - 1)
    def check(seed):
        rng = ffi.new("cw_mt *")
        lib.cw_mt_seed(rng, seed)
        assert (*rng.mt, rng.mti) == random.Random(seed).getstate()[1]

    check()


@pytest.mark.parametrize("cls", [
    StreamWorkload, RandomWorkload, PointerChaseWorkload, StencilWorkload,
    HotColdWorkload,
], ids=lambda cls: cls.name)
def test_c_emitter_matches_generator(c_engine, cls):
    @settings(max_examples=40, deadline=None)
    @given(workload=_workloads(cls), core_id=st.integers(0, 15),
           seed=st.integers(0, 2**64 - 1))
    @example(workload=cls(64 * 1024, mem_fraction=1e-5), core_id=3, seed=11)
    def check(workload, core_id, seed):
        n = 1500
        expected = list(islice(workload.generator(core_id, seed), n))
        assert c_cache.emit_records(workload, core_id, seed, n) == expected

    check()


def test_emitter_refuses_streams_it_does_not_port():
    class Subclassed(StreamWorkload):
        pass

    assert Subclassed(64 * 1024).emitter_state(0, 0) is None
    assert ScriptedWorkload([(0, 0, 64)]).emitter_state(0, 0) is None
    assert RandomWorkload(64 << 32).emitter_state(0, 0) is None
    assert StreamWorkload(64 * 1024, mem_fraction=1e-10).emitter_state(0, 0) is None
    assert spec_workload("sjeng").emitter_state(0, 0)["kind"] == 1
    # Streams that read the latency they are sent back stay on the
    # Python loop.
    for workload in (
        FlushReloadAttacker(4), FlushFlushAttacker(4), PrimeProbeAttacker(4),
        CovertSender([1, 0]), CovertReceiver(2), SquareMultiplyVictim([1, 0]),
    ):
        assert workload.emitter_state(0, 0) is None, workload


def test_generator_builds_its_picker_on_first_next(monkeypatch):
    chains = _count_calls(monkeypatch, PointerChaseWorkload, "_chain")
    generator = PointerChaseWorkload(64 * 1024).generator(2, 5)
    assert chains[0] == 0
    next(generator)
    assert chains[0] == 1


def test_c_loop_builds_no_python_chain(c_engine, monkeypatch):
    # The C loop builds each pointer chase's chain in C (cw_chain); the
    # Python loop shuffles it once per pointer core, to the same result.
    workloads = scaled_mix_workloads("mix1", False)
    pointer_cores = sum(w.profile.pattern == "pointer" for w in workloads)
    assert pointer_cores
    config = scaled_system_config(False)
    chains = _count_calls(monkeypatch, PointerChaseWorkload, "_chain")
    with monkeypatch.context() as patched:
        patched.setattr(Core, "step", _refuse)
        native = _bound(True, run_workloads, config, workloads, 5_000, seed=2)
    assert chains[0] == 0
    reference = _bound(False, run_workloads, config, workloads, 5_000, seed=2)
    assert chains[0] == pointer_cores
    assert native == reference
    assert native.extra == reference.extra


#: 1, 2, 3 and every power of two +-1 up to 2**17.
_CHAIN_SIZES = sorted({1, 2, 3, *(
    (1 << k) + d for k in range(2, 18) for d in (-1, 0, 1)
)})


def _c_chain(workload, core_id, seed) -> list[int]:
    """The chain ``cw_chain`` builds into the C loop's ``cw_core``."""
    ffi, lib = c_backend._load_lib()
    c = ffi.new("cw_core *")
    keep: list = []
    c_cache._load_emitter(
        ffi, lib, c, workload.emitter_state(core_id, seed), keep
    )
    return ffi.unpack(c.chain, workload.num_lines)


def test_c_chain_matches_python_shuffle(c_engine):
    @settings(max_examples=6, deadline=None)
    @given(core_id=st.integers(0, 15), seed=st.integers(0, 2**64 - 1),
           size=st.integers(1, 1 << 17))
    def check(core_id, seed, size):
        for n in (*_CHAIN_SIZES, size):
            workload = PointerChaseWorkload(n * 64)
            expected = workload._chain(core_id, seed)
            assert _c_chain(workload, core_id, seed) == expected, n

    check()


# ----------------------------------------------------------------------
# The loop: C (cores with a source) vs Python (REPRO_BATCH=0)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("budget", [1, 9_999])
@pytest.mark.parametrize("monitor", [False, True], ids=["off", "pipo"])
@pytest.mark.parametrize("mix", ["mix1", "mix4", "mix9"])
def test_c_loop_equals_python_loop(c_engine, monkeypatch, mix, monitor, budget):
    config = scaled_system_config(False, monitor_enabled=monitor)

    def run(native):
        return _bound(native, run_workloads, config,
                      scaled_mix_workloads(mix, False), budget, seed=7)

    with monkeypatch.context() as patched:
        patched.setattr(Core, "step", _refuse)
        native = run(True)
    reference = run(False)
    assert native == reference
    assert native.extra == reference.extra


def test_sparse_stream_takes_the_c_loop(c_engine, monkeypatch):
    # One memory op per ~10**5 instructions: a compute gap far past
    # any 14-bit record field.
    config = scaled_system_config(False)
    workloads = scaled_mix_workloads("mix1", False)
    workloads[2] = StreamWorkload(64 * 1024, mem_fraction=1e-5)

    def run(native):
        return _bound(native, run_workloads, config, workloads, 250_001, seed=7)

    with monkeypatch.context() as patched:
        patched.setattr(Core, "step", _refuse)
        native = run(True)
    reference = run(False)
    assert reference.core_memory_ops[2] >= 2
    assert native == reference
    assert native.extra == reference.extra


@pytest.mark.parametrize("budget", [30_001, 4_447])
def test_callbacks_and_events_interleave(c_engine, monkeypatch, budget):
    # secThr 1 and a 3-cycle prefetch delay: captures (tracked, so each
    # one calls back), pEvicts and prefetch events land between steps.
    base = scaled_system_config(False)
    config = replace(
        base, prefetch_delay=3,
        filter=replace(base.filter, security_threshold=1),
    )

    def run(native):
        system, monitor = _bound(
            native, build_system, config, scaled_mix_workloads("mix1", False),
            seed=5, track_captured_lines=True,
        )
        return system.run(budget), monitor.captured_lines

    with monkeypatch.context() as patched:
        patched.setattr(Core, "step", _refuse)
        native, native_lines = run(True)
    reference, reference_lines = run(False)
    assert native == reference
    assert native_lines == reference_lines
    if budget > 10_000:
        assert reference.monitor_stats.prefetches_issued > 10


def test_callback_error_surfaces_from_the_c_loop(c_engine, monkeypatch):
    base = scaled_system_config(False)
    config = replace(base, filter=replace(base.filter, security_threshold=1))

    def explode(self, victim, now):
        raise RuntimeError("monitor failed")

    monkeypatch.setattr(PiPoMonitor, "on_llc_eviction", explode)
    monkeypatch.setattr(Core, "step", _refuse)
    system, _ = build_system(config, scaled_mix_workloads("mix1", False), seed=5)
    with pytest.raises(RuntimeError, match="monitor failed"):
        system.run(30_001)
    assert 0 < sum(core.memory_ops for core in system.cores)


# ----------------------------------------------------------------------
# Which systems take the C loop
# ----------------------------------------------------------------------

def test_fig8_cell_never_steps_a_python_core(c_engine, monkeypatch):
    monkeypatch.setattr(Core, "step", _refuse)
    monkeypatch.setattr(Core, "advance", _refuse)
    result = fig8_performance.run(
        seed=2, mixes=["mix1"], filter_sizes=((1024, 8),),
        instructions=5_000, jobs=1,
    )
    assert result.data["normalized"]


def _mix_run(engine="c", scripted=False):
    def run(native):
        config = scaled_system_config(False)
        workloads = scaled_mix_workloads("mix1", False)
        if scripted:
            workloads[0] = ScriptedWorkload(
                [(3, 0, 64 * i) for i in range(50)] * 40, name="scripted"
            )
        return _bound(native, run_workloads, config, workloads, 20_000, seed=3)

    return engine, run


@pytest.mark.parametrize("case", [
    _mix_run(engine="python"),
    _mix_run(scripted=True),
], ids=["python-engine", "scripted-core"])
def test_other_systems_keep_the_python_loop(monkeypatch, case):
    engine, run = case
    if engine not in available_engines():
        pytest.skip("C backend unavailable (no cffi/toolchain)")
    monkeypatch.setenv("REPRO_ENGINE", engine)
    with monkeypatch.context() as patched:
        steps = _count_calls(patched, Core, "step")
        native = run(True)
    assert steps[0] > 0
    assert native == run(False)


# ----------------------------------------------------------------------
# Defended systems: a detection unit online
# ----------------------------------------------------------------------

def _detected_run(native: bool):
    """A monitored mix1 system with a detection unit deployed, bound
    like ``bind_cores`` binds it (``native``: cores carry their
    source)."""
    config = scaled_system_config(False)
    spec = DetectionSpec()
    events = EventQueue()
    hierarchy = config.build_hierarchy(seed=3)
    monitor = PiPoMonitor(config.filter.build(seed=4), events)
    monitor.attach(hierarchy)
    bus = spec.attach_bus(monitor)
    cores = []
    for core_id, workload in enumerate(scaled_mix_workloads("mix1", False)):
        cores.append(Core(core_id, workload.generator(core_id, 9), hierarchy,
                          source=(workload, 9) if native else None))
    unit = spec.deploy(bus, events, hierarchy, cores)
    return MulticoreSystem(hierarchy, cores, events, detection=unit).run(20_000)


def _defended_run(defence: str, response: str):
    """A benign mix1 tenant under ``defence`` with a rate detector that
    fires (12 verdicts and one throttle window under ``pipo``)."""
    def run(native):
        config = scaled_system_config(False, security_threshold=2)
        spec = DetectionSpec(
            detectors=(("rate", {"threshold": 2, "window": 24_000}),),
            response=response,
        )
        simulation = _bound(
            native, run_workloads,
            config, scaled_mix_workloads("mix1", False), 60_000,
            seed=7, defence=defence, detection=spec,
        )
        assert simulation.extra["detection"]["verdicts"] > 0
        return simulation

    return run


_DEFENDED = {
    f"{defence}-{response}": _defended_run(defence, response)
    for defence in ("pipo", "bitp", "table") for response in RESPONSES
}
_DEFENDED["detection-unit"] = _detected_run


@pytest.mark.parametrize("case", list(_DEFENDED))
def test_defended_c_loop_equals_generator_loop(c_engine, monkeypatch, case):
    run = _DEFENDED[case]
    with monkeypatch.context() as patched:
        patched.setattr(Core, "step", _refuse)
        patched.setattr(Core, "advance", _refuse)
        native = run(True)
    reference = run(False)
    assert native == reference
    assert native.extra["detection"] == reference.extra["detection"]


def test_throttle_costs_the_same_under_both_engines(monkeypatch):
    """A throttled core pays its penalty on every op but the L1 read
    hit, whichever engine serves the op and whichever loop runs it."""
    def run(engine, native):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        system, _ = _bound(
            native, build_system,
            scaled_system_config(False), scaled_mix_workloads("mix3", False),
            seed=1,
        )
        system.events.schedule(100, lambda: system.cores[0].throttle(300))
        return system.run(20_000)

    reference = run("python", False)
    assert reference.core_times[0] == 715_035
    for engine in available_engines():
        for native in (True, False):
            assert run(engine, native) == reference, (engine, native)


# ----------------------------------------------------------------------
# The lazy line mirror (PERFORMANCE.md rule 16)
# ----------------------------------------------------------------------

_MIX5_CONFIG = scaled_system_config(False, monitor_enabled=True)


def _mix5_cell(monkeypatch, native: bool):
    """A monitored mix5 cell under the C walk, taking the C loop
    (``native``) or the Python loop (``REPRO_BATCH=0``).  Returns its
    result, its hierarchy and, per installed cache, the cache with the
    ``_map`` it had at install."""
    installed = []
    install = c_cache.install

    def recording(h):
        fresh = h._c_state is None
        done = install(h)
        if fresh:
            installed.append(
                (h, [(cache, cache._map) for cache in h._c_state.cache_objs])
            )
        return done

    with monkeypatch.context() as patched:
        patched.setattr(c_cache, "install", recording)
        result = _bound(
            native, run_workloads, _MIX5_CONFIG,
            scaled_mix_workloads("mix5", False), 20_000, seed=3,
        )
    ((h, maps),) = installed
    return result, h, maps


def _python_mix5_cell(monkeypatch):
    """The same cell on the python engine: its result and hierarchy."""
    with monkeypatch.context() as env:
        env.setenv("REPRO_ENGINE", "python")
        system, _ = build_system(
            _MIX5_CONFIG, scaled_mix_workloads("mix5", False), 3
        )
        result = run_system(system, 20_000)
    assert system.hierarchy._c_state is None
    return result, system.hierarchy


def _llc_rng_states(h):
    return [sl.policy._rng.getstate() for sl in h.llc.slices]


def _caches(h):
    return [*h.l1d, *h.l1i, *h.l2, *h.llc.slices]


def _line(line):
    """A snapshot's fields (``CacheLine`` compares by identity)."""
    if line is None:
        return None
    return (line.addr, line.state, line.dirty, line.stamp, line.sharers,
            line.pingpong, line.accessed, line.version)


#: Every reader of the line dicts, as ``read(h, addrs)``.
_LINE_READERS = {
    "lookup": lambda h, addrs: [
        _line(c.lookup(a)) for c in _caches(h) for a in addrs],
    "lines": lambda h, addrs: [
        [_line(line) for line in c.lines()] for c in _caches(h)],
    "set_lines": lambda h, addrs: [
        [_line(line) for line in c.set_lines(i)]
        for c in _caches(h) for i in range(c.num_sets)],
    "resident": lambda h, addrs: [c.resident for c in _caches(h)],
    "occupancy": lambda h, addrs: [c.occupancy() for c in _caches(h)],
    "in": lambda h, addrs: [a in c for c in _caches(h) for a in addrs],
    "len": lambda h, addrs: [len(c) for c in _caches(h)],
    "llc.lookup": lambda h, addrs: [_line(h.llc.lookup(a)) for a in addrs],
    "llc.lines": lambda h, addrs: [_line(line) for line in h.llc.lines()],
    "llc.set_lines": lambda h, addrs: [
        [_line(line) for line in h.llc.set_lines(a)] for a in addrs],
    "llc.occupancy": lambda h, addrs: h.llc.occupancy(),
    "llc.in": lambda h, addrs: [a in h.llc for a in addrs],
    "llc.len": lambda h, addrs: len(h.llc),
    "read_version": lambda h, addrs: [
        h.read_version(core, a << 6)
        for core in range(h.num_cores) for a in addrs],
    "holders_of": lambda h, addrs: [h.holders_of(a) for a in addrs],
    "check_invariants": lambda h, addrs: h.check_invariants(),
}


def test_sync_copies_counters_and_leaves_lines_stale(c_engine, monkeypatch):
    native, h, maps = _mix5_cell(monkeypatch, native=True)
    reference, ref = _python_mix5_cell(monkeypatch)
    fresh = _MIX5_CONFIG.build_hierarchy(seed=3)
    # The run's sync rebuilt no line dict, and left _memory_versions
    # and the LLC slices' MT states as they were at install, where the
    # python engine has moved both ...
    assert all(cache._map is m and not m for cache, m in maps)
    assert not any(any(cache._sets) for cache, _ in maps)
    memver = h._memory_versions
    assert memver == fresh._memory_versions == {} != ref._memory_versions
    assert _llc_rng_states(h) == _llc_rng_states(fresh) != _llc_rng_states(ref)
    # ... yet every counter is current.
    for result in (native, reference):
        result.extra.pop("engine")  # provenance, not semantics
    assert native == reference
    assert h.stats is native.stats
    assert h.stats == ref.stats
    assert [(c._stamp, c.hits, c.misses, c.evictions) for c in _caches(h)] == [
        (c._stamp, c.hits, c.misses, c.evictions) for c in _caches(ref)
    ]
    # The first reader brings the rest of the mirror to the python
    # engine's state, _memory_versions in place.
    assert len(h.llc) == len(ref.llc)
    assert h._memory_versions is memver
    assert memver == ref._memory_versions
    assert _llc_rng_states(h) == _llc_rng_states(ref)
    assert h.llc.evictions == ref.llc.evictions == h.stats.llc_evictions > 0
    # With no C work in between, neither a second sync nor a reader
    # rebuilds: a planted entry survives both.
    l1 = h.l1d[0]
    l1._map[1 << 40] = 0
    h.engine_sync()
    assert (1 << 40) in l1
    del l1._map[1 << 40]


@pytest.mark.parametrize("reader", list(_LINE_READERS))
def test_first_line_reader_rebuilds_the_mirror(c_engine, monkeypatch, reader):
    read = _LINE_READERS[reader]
    _, ref, _ = _mix5_cell(monkeypatch, native=False)
    addrs = sorted({line.addr for c in _caches(ref) for line in c.lines()})
    assert len(addrs) > 1000
    addrs.append(1 << 40)  # resident nowhere
    _, h, maps = _mix5_cell(monkeypatch, native=True)
    assert not any(m for _, m in maps)
    assert read(h, addrs) == read(ref, addrs)
    # The reader rebuilt the dicts, in place.
    assert all(cache._map is m for cache, m in maps)
    assert any(m for _, m in maps)
