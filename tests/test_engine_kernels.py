"""The C engine: compiled kernels == generic paths.

The conformance harness pins the engines against *fixed* scenarios;
this suite attacks the same contract from the other side — the C
filter kernel and the C cache walk must agree with the generic
reference implementation on **arbitrary** access streams
(Hypothesis-driven), on every service tier (L1/L2/LLC hits, misses,
writes, ifetches, flushes, prefetch fills), with and without a
monitor, over every hierarchy configuration the engines accept (LLC
policy, pool size, ways, slices), plus the engine-selection plumbing
itself.
"""

import dataclasses
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine as engine_mod
from repro.baselines.registry import build_defence
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import SlicedLLC
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.config import (
    TABLE_II,
    CacheLevelConfig,
    FilterConfig,
    SystemConfig,
)
from repro.core.pipomonitor import PiPoMonitor
from repro.cpu.core import Core
from repro.cpu.system import run_workloads
from repro.engine import (
    _filter_batch_src,
    _walk_src,
    available_engines,
    c_backend,
    engine_name,
    set_engine,
)
from repro.experiments import defense_ablation
from repro.experiments.common import scaled_mix_workloads, scaled_system_config
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.filters.hashing import PartialKeyHasher
from repro.memory.controller import MemoryController
from repro.obs import trace
from repro.utils import rng
from repro.utils.events import EventQueue

#: op codes: READ, WRITE, IFETCH, FLUSH
_OPS = (0, 1, 2, 3)

#: A small 4-core hierarchy: 2 KB L1s, 8 KB L2s and a 128-line LLC (4
#: slices of 4 sets x 8 ways), so the random streams below evict.
_SMALL = SystemConfig(
    num_cores=4,
    l1=CacheLevelConfig(2 * 1024, 2, 2),
    l2=CacheLevelConfig(8 * 1024, 4, 18),
    llc=CacheLevelConfig(8 * 1024, 8, 35),
    llc_slices=4,
    filter=FilterConfig(num_buckets=64, security_threshold=1),
    prefetch_delay=5,
)

#: A record: (core, op, line index) — line indices mix a hot region
#: (L1/L2 hits), a warm one of twice the LLC's lines (LLC hits and
#: capacity victims) and a cold tail (misses).
_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(_OPS),
        st.one_of(
            st.integers(min_value=0, max_value=15),           # hot
            st.integers(min_value=0, max_value=255),          # warm
            st.integers(min_value=0, max_value=(1 << 22) - 1),  # cold
        ),
    ),
    min_size=100,
    max_size=400,
)

#: Records that capture line 0 (a second demand fetch at Security
#: threshold 1) after 64 lines of set 0, over the 4 slices, evicted it,
#: so the sweep of :func:`_replay` raises a pEvict and the prefetch
#: refills the line.
_CAPTURE_THEN_EVICT = (
    [(0, 0, 0)] + [(1, 1, 4 * k) for k in range(1, 65)] + [(2, 0, 0)]
)


def _replay(records):
    """``(now, core, op, addr)`` for each record, then a read sweep of
    twice the LLC's lines above every drawn line: every example then
    evicts what its records left in the LLC (sharers, dirty data,
    tagged lines), even the all-zero one Hypothesis tries first."""
    for now, (core, op, line) in enumerate(records):
        yield now, core, op, line * 64
    llc_lines = _SMALL.llc.size_bytes // 64
    for k in range(2 * llc_lines):
        yield len(records) + k, k & 3, 0, ((1 << 22) + k) * 64


def _monitored_pair(built_under, seed=7):
    """The reference (hierarchy, monitor), built under ``python``, and
    its twin built under ``c``, whose filter the walk runs inline."""
    def build(engine):
        with built_under(engine):
            h = _SMALL.build_hierarchy(seed=seed)
            monitor = PiPoMonitor(
                _SMALL.filter.build(seed=seed + 1),
                EventQueue(),
                prefetch_delay=_SMALL.prefetch_delay,
                track_captured_lines=True,
            )
        monitor.attach(h)
        return h, monitor

    return build("python"), build("c")


def _assert_hierarchies_equal(ha, hb):
    # Under the C cache walk the counters are a batch-synced mirror and
    # the line dicts are rebuilt by their first public reader (``len``
    # below); both are no-ops for the python engine.
    ha.engine_sync()
    hb.engine_sync()
    assert ha.stats == hb.stats
    for group_a, group_b in (
        (ha.l1d, hb.l1d), (ha.l1i, hb.l1i), (ha.l2, hb.l2),
        (ha.llc.slices, hb.llc.slices),
    ):
        for ca, cb in zip(group_a, group_b):
            assert len(ca) == len(cb)
            assert ca._map == cb._map
            assert ca._sets == cb._sets
            assert ca._stamp == cb._stamp
            assert (ca.hits, ca.misses, ca.evictions) == (
                cb.hits, cb.misses, cb.evictions
            )
    # The fused lru_rand/random victim draw must consume the exact
    # same Mersenne-Twister stream as the generic randrange path.
    for ca, cb in zip(ha.llc.slices, hb.llc.slices):
        rng_a = getattr(ca.policy, "_rng", None)
        rng_b = getattr(cb.policy, "_rng", None)
        if rng_a is not None:
            assert rng_a.getstate() == rng_b.getstate()


class TestCBackend:
    """The cffi filter kernel (skipped when no toolchain)."""

    @pytest.fixture(autouse=True)
    def _require_c(self):
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")

    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=(1 << 48) - 1),
            min_size=1,
            max_size=500,
        )
    )
    def test_c_filter_random_keys(self, built_under, keys):
        with built_under("python"):
            ref = AutoCuckooFilter(seed=13)
        with built_under("c"):
            cfl = AutoCuckooFilter(seed=13)
        assert cfl._c_state is not None and ref._c_state is None
        assert [ref.access(k) for k in keys] == [cfl.access(k) for k in keys]
        assert ref.snapshot() == cfl.snapshot()

    def test_c_backend_resumes_a_python_filter(self, built_under):
        # A filter is bound for life, so a table built on the reference
        # path moves into C through ``from_bytes``: the restored C
        # filter must carry it over exactly and track the reference.
        keys = [(k * 977) & ((1 << 40) - 1) for k in range(20_000)]
        with built_under("python"):
            ref = AutoCuckooFilter(seed=2)
            early = AutoCuckooFilter(seed=2)
        for k in keys[:7_000]:
            ref.access(k)
            early.access(k)
        with built_under("c"):
            cfl = AutoCuckooFilter.from_bytes(early.to_bytes())
        assert cfl._c_state is not None
        for k in keys[7_000:]:
            assert ref.access(k) == cfl.access(k)
        assert ref.snapshot() == cfl.snapshot()
        assert ref.occupancy() == cfl.occupancy()
        probe = keys[123]
        assert ref.contains(probe) == cfl.contains(probe)
        assert ref.security_of(probe) == cfl.security_of(probe)
        assert sorted(ref.entries()) == sorted(cfl.entries())

    def test_ineligible_filters_refuse(self, built_under):
        # Instrumentation is the one per-filter fallback: its shadow
        # address sets have no C form.  Every width is eligible.
        with built_under("c"):
            flt = AutoCuckooFilter(seed=1, instrument=True)
        assert flt._c_state is None
        assert not c_backend.install(flt)

    def test_c_routed_filter_survives_engine_switch(self, monkeypatch):
        # Once a filter's state moved into C arrays, later kernels
        # (and the python engine's generic paths) must keep routing
        # through them — a half-switched filter would silently fork
        # its table state.
        def drive(h, access, lo, hi):
            for i in range(lo, hi):
                access(0, 0, (i * 131) * 64, i)

        monkeypatch.setenv("REPRO_ENGINE", "c")
        h = TABLE_II.build_hierarchy(seed=0)
        mon = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
        mon.attach(h)
        drive(h, h.engine_access(), 0, 2_000)
        monkeypatch.setenv("REPRO_ENGINE", "python")
        drive(h, h.engine_access(), 2_000, 3_000)
        drive(h, h.access, 3_000, 4_000)

        href = TABLE_II.build_hierarchy(seed=0)
        mref = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
        mref.attach(href)
        drive(href, href.access, 0, 4_000)

        # Under the C cache walk the Python-side stats are a batch-
        # synced mirror; comparing mid-session state requires a sync
        # (design rule 16 — every introspection entry point does this).
        h.engine_sync()
        assert h.stats == href.stats
        assert dataclasses.asdict(mon.stats) == dataclasses.asdict(mref.stats)
        assert mon.filter.snapshot() == mref.filter.snapshot()


def test_build_tag_hashes_the_compile_environment(monkeypatch):
    """Every environment variable the compile honours moves the build
    cache directory, so a ``-fsanitize`` build never serves a plain
    one; with none of them changed, the directory stays put."""
    pytest.importorskip("cffi")
    names = ("CC", "CFLAGS", "CPPFLAGS", "LDFLAGS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    plain = c_backend._build_tag()
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert c_backend._build_tag() == plain
    for name in names:
        monkeypatch.setenv(name, "-fsanitize=address")
        assert c_backend._build_tag() != plain, name
        monkeypatch.delenv(name)
    assert c_backend._build_tag() == plain


#: The classes (and the one module) whose functions the C kernels
#: port (the twin tables).
_TWIN_OWNERS = {
    **{
        cls.__name__: cls
        for cls in (
            CacheHierarchy, SetAssociativeCache, SlicedLLC,
            MemoryController, AutoCuckooFilter, PartialKeyHasher,
        )
    },
    "rng": rng,
}
#: A twin-table row: ``Owner.method`` then its C function.
_TWIN_ROW = re.compile(r"^``(\w+)\.(\w+)``\s+``(\w+)``$", re.M)
#: Static helpers with no Python body of their own: the walk's
#: ``_memory_versions`` map, Mersenne Twister (the block refill and the
#: draws that load from it, which port CPython's ``_random`` module),
#: record emitter and scheduler step, and the filter's mix and row scan,
#: which port expressions (``splitmix64``, ``value in row``) rather
#: than methods.
_UNPAIRED_HELPERS = {
    "cw_map_hash", "cw_map_get", "cw_map_set",
    "cw_mt_refill", "cw_genrand", "cw_random", "cw_randbelow",
    "cw_next_line", "cw_emit_one",
    "cw_advance",
    "acf_mix", "acf_find",
}


def _c_definitions(source, head=r"(?!\s)"):
    """Names of the functions ``source`` defines at file scope (a
    declaration ends in a semicolon, a definition opens a body)."""
    return set(re.findall(
        rf"^{head}[\w \*]*?\b(\w+)\([^;{{}}]*\)\s*\{{", source, re.M
    ))


def test_twin_tables_pair_every_kernel_with_its_python_body():
    """Each row of the engine docstrings' twin tables pairs a C function
    the extension defines with a Python method that exists, one to one,
    and every static function of the walk and filter kernels has a row:
    a new hand-fused copy of a body fails here."""
    rows = [
        row
        for module in (_walk_src, _filter_batch_src)
        for row in _TWIN_ROW.findall(module.__doc__)
    ]
    c_functions = {c for _, _, c in rows}
    assert len(c_functions) == len(rows)
    assert len({(owner, name) for owner, name, _ in rows}) == len(rows)
    defined = _c_definitions(c_backend._FULL_CSOURCE)
    for owner, name, c_function in rows:
        assert c_function in defined, c_function
        assert callable(getattr(_TWIN_OWNERS[owner], name, None)), (
            f"{owner}.{name}"
        )
    static = _c_definitions(
        c_backend._CSOURCE + _filter_batch_src.BATCH_SOURCE
        + _walk_src.WALK_SOURCE,
        head="static ",
    )
    assert {"cw_fill", "acf_candidates"} <= static
    assert not static - c_functions - _UNPAIRED_HELPERS


class TestEngineSelection:
    def test_engine_name_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert engine_name() == engine_mod.DEFAULT_ENGINE == "c"
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert engine_name() == "python"
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ValueError):
            engine_name()
        with pytest.raises(ValueError):
            set_engine("turbo")
        set_engine("c")
        assert engine_name() == "c"

    def test_python_engine_returns_generic_methods(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        h = TABLE_II.build_hierarchy(seed=0)
        assert h.engine_access() == h.access
        fltr = AutoCuckooFilter(seed=0)
        assert fltr.engine_batch().access.__func__ is AutoCuckooFilter.access

    def test_random_policy_takes_the_c_kernel(self, monkeypatch):
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        monkeypatch.setenv("REPRO_ENGINE", "c")
        config = dataclasses.replace(SystemConfig(), llc_policy="random")
        h = config.build_hierarchy(seed=0)
        # The C walk runs the random policy as the whole-set draw: the
        # seam installs it and hands back the C kernel.
        kernel = h.engine_access()
        assert h._c_state is not None
        assert kernel is h._c_state.kernel

    def test_kernel_and_generic_interleave_on_shared_state(
        self, monkeypatch
    ):
        # Mixed calling (generic access + engine kernel on one
        # hierarchy) must stay coherent: once the C walk owns the
        # storage, the generic entry point routes into it too.
        monkeypatch.setenv("REPRO_ENGINE", "c")
        h1 = CacheHierarchy(num_cores=2, seed=9)
        h2 = CacheHierarchy(num_cores=2, seed=9)
        kernel = h2.engine_access()
        for i in range(4_000):
            core = i & 1
            op = (0, 1, 0, 2)[i & 3]
            addr = ((i * 37) % 20_000) * 64
            expected = h1.access(core, op, addr, now=i)
            if i % 3:
                got = kernel(core, op, addr, now=i)
            else:
                got = h2.access(core, op, addr, now=i)
            assert expected == got
        _assert_hierarchies_equal(h1, h2)

    def test_python_bound_core_follows_a_later_c_install(self, monkeypatch):
        # A core bound under ``python`` holds ``h.access``; once a later
        # ``engine_access()`` installs the C walk, that binding routes
        # into C, so the core's L1 read hits must reach C too — a hit
        # served from the Python mirror would vanish at the next sync.
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        addr = 0x4000

        def records():
            for _ in range(3):
                yield 1, 0, addr  # one read miss, then two L1 read hits

        def run(switch):
            monkeypatch.setenv("REPRO_ENGINE", "python")
            h = CacheHierarchy(num_cores=1, seed=9)
            core = Core(0, records(), h)
            assert core.advance()
            assert core.step(float("inf"))  # the read miss
            if switch:
                set_engine("c")
            access = h.engine_access()
            assert (h._c_state is not None) == switch
            core.step(float("inf"))
            core.step(float("inf"))
            access(0, 0, addr + (1 << 20), core.time)  # a read miss
            h.engine_sync()
            return h.stats, h.l1d[0].hits

        stats, hits = run(switch=True)
        assert (stats, hits) == run(switch=False)
        assert (stats.l1_hits, stats.accesses, hits) == (2, 4, 2)


def _refuse_step(self, *args):
    raise AssertionError("the Python loop stepped a core")


@pytest.mark.parametrize("engine", available_engines())
def test_llc_evictions_read_current_counters(monkeypatch, engine):
    # Under the C walk the slice counters are a mirror; reading the
    # LLC's eviction total must resync it first, like len(llc) does.
    monkeypatch.setenv("REPRO_ENGINE", engine)
    h = CacheHierarchy(
        num_cores=1, llc=SlicedLLC(64 * 1024, ways=4, num_slices=2), seed=1
    )
    kernel = h.engine_access()
    for i in range(20_000):
        kernel(0, i & 1, ((i * 7919) % 6_000) * 64, i)
    evictions = h.llc.evictions
    h.engine_sync()
    assert evictions == h.stats.llc_evictions > 10_000


class TestCCacheWalk:
    """The full C cache walk (skipped when no toolchain): C-owned
    storage must replay arbitrary op streams — clflush interleavings,
    lru_rand draws, monitor captures and prefetch tails — bit-exactly
    against the generic reference."""

    @pytest.fixture(autouse=True)
    def _require_c(self):
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")

    @staticmethod
    def _install(h):
        from repro.engine import c_cache

        assert c_cache.install(h)
        return h._c_state.kernel

    @settings(max_examples=30, deadline=None)
    @given(records=_records)
    @example(records=_CAPTURE_THEN_EVICT)
    def test_monitored_random_streams(self, built_under, records):
        # Captures publish through the callback tail, evictions raise
        # the pEvict hook, and the scheduled prefetches drain through
        # prefetch_fill back into C — all orderings pinned vs generic.
        (hg, mg), (hc, mc) = _monitored_pair(built_under)
        kernel = self._install(hc)
        assert hc._c_state.st.mon_kind == 1
        for now, core, op, addr in _replay(records):
            mg.events.run_until(now)
            mc.events.run_until(now)
            assert hg.access(core, op, addr, now) == kernel(core, op, addr, now)
        for mon in (mg, mc):
            while (t := mon.events.next_time()) is not None:
                mon.events.run_until(t)
        _assert_hierarchies_equal(hg, hc)
        assert dataclasses.asdict(mg.stats) == dataclasses.asdict(mc.stats)
        assert mg.filter.snapshot() == mc.filter.snapshot()
        assert mg.captured_lines == mc.captured_lines
        hc.check_invariants()
        assert hc.stats.llc_evictions > 0
        if records == _CAPTURE_THEN_EVICT:
            assert mc.stats.pevicts > 0
            assert mc.stats.prefetches_issued > 0

    @settings(max_examples=20, deadline=None)
    @given(records=_records)
    def test_unmonitored_random_streams(self, records):
        # lru_rand lockstep: _assert_hierarchies_equal compares the
        # Mersenne-Twister states, so every victim draw must have
        # consumed the exact same stream.
        hg = _SMALL.build_hierarchy(seed=3)
        hc = _SMALL.build_hierarchy(seed=3)
        kernel = self._install(hc)
        for now, core, op, addr in _replay(records):
            assert hg.access(core, op, addr, now) == kernel(core, op, addr, now)
        _assert_hierarchies_equal(hg, hc)
        hc.check_invariants()
        assert hc.stats.llc_evictions > 0

    def test_midstream_install_carries_state(self):
        # Installing after generic-path traffic must seed the C arrays
        # from the live dicts exactly — counters, stamps, words, RNG,
        # memory versions — occupied sets and all.
        hg = TABLE_II.build_hierarchy(seed=5)
        hc = TABLE_II.build_hierarchy(seed=5)

        def line(i):
            # A flush (i % 4 == 3) takes the line written two ops
            # before, so dirty data reaches memory before the install.
            return ((i - 2 if i & 3 == 3 else i) * 131) % 60_000

        stream = [
            ((i * 7) & 3, (0, 1, 0, 3)[i & 3], line(i) * 64)
            for i in range(12_000)
        ]
        for i, (core, op, addr) in enumerate(stream[:5_000]):
            assert hg.access(core, op, addr, now=i) == hc.access(
                core, op, addr, now=i
            )
        assert hc._memory_versions and len(hc.llc)
        kernel = self._install(hc)
        for i, (core, op, addr) in enumerate(stream[5_000:], start=5_000):
            assert hg.access(core, op, addr, now=i) == kernel(
                core, op, addr, now=i
            )
        _assert_hierarchies_equal(hg, hc)
        assert hg._memory_versions == hc._memory_versions

    @settings(max_examples=12, deadline=None)
    @given(
        policy=st.sampled_from(["lru_rand", "random"]),
        drawn=st.integers(0, 1_999),
    )
    @example(policy="lru_rand", drawn=0)
    @example(policy="lru_rand", drawn=1)
    @example(policy="lru_rand", drawn=623)
    @example(policy="lru_rand", drawn=624)
    @example(policy="lru_rand", drawn=625)
    @example(policy="random", drawn=0)
    @example(policy="random", drawn=1)
    @example(policy="random", drawn=623)
    @example(policy="random", drawn=624)
    @example(policy="random", drawn=625)
    def test_imported_mt_state_at_block_edges(self, policy, drawn):
        # The C draws load from a tempered copy of the 624-word block,
        # so an imported Random.getstate() must be tempered as it is,
        # not twisted: every slice's MT has handed out ``drawn`` words
        # before install (index 624 on a fresh or a spent block, 1 or
        # 623 inside one), and the stream's victim draws then cross
        # further block edges under both engines.
        config = dataclasses.replace(_SMALL, llc_policy=policy)
        hg = config.build_hierarchy(seed=9)
        hc = config.build_hierarchy(seed=9)
        for h in (hg, hc):
            for sl in h.llc.slices:
                assert sl.policy.pool_size == (4 if policy == "lru_rand" else None)
                for _ in range(drawn):
                    sl.policy._rng.getrandbits(32)
        kernel = self._install(hc)
        for i in range(4_000):
            core, op = i & 3, (0, 1, 0, 2)[i % 4]
            addr = ((i * 37) % 1_500) * 64
            assert hg.access(core, op, addr, now=i) == kernel(
                core, op, addr, now=i
            )
        hc.engine_sync()
        assert hg.stats == hc.stats
        assert hc.stats.llc_evictions > 1_000
        assert len(hc.llc) == len(hg.llc)
        for sg, sc in zip(hg.llc.slices, hc.llc.slices):
            assert sg.policy._rng.getstate() == sc.policy._rng.getstate()

    def test_random_llc_takes_the_c_walk(self, monkeypatch):
        # The random LLC runs in C as the whole-set draw (pool_size
        # None): install accepts it, the engine seam hands back the C
        # kernel, and the draws consume the same MT stream as Python.
        from repro.engine import c_cache

        config = dataclasses.replace(SystemConfig(), llc_policy="random")
        hc = config.build_hierarchy(seed=0)
        assert c_cache.install(hc)
        monkeypatch.setenv("REPRO_ENGINE", "c")
        kernel = hc.engine_access()
        assert kernel is hc._c_state.kernel
        hg = config.build_hierarchy(seed=0)
        # 97 lines congruent in LLC set 0 (1024 sets per slice) over 4
        # slices of 16 ways: hits mixed with draws.
        for i in range(6_000):
            core, op = i & 3, (0, 0, 1, 2)[i & 3]
            addr = ((i * 271) % 97) * 1024 * 64
            assert hg.access(core, op, addr, now=i) == kernel(
                core, op, addr, now=i
            )
        _assert_hierarchies_equal(hg, hc)
        assert hc.stats.llc_evictions > 1_000

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_configuration_takes_the_c_walk(self, built_under, data):
        # Every hierarchy SystemConfig.build_hierarchy can make installs,
        # and the kernel replays a stream of reads, writes, ifetches,
        # flushes and prefetch fills bit-exactly against the generic
        # walk: latencies, stats, every cache's lines and the MT states.
        # The monitor is any defence, so the inline PiPoMonitor, BITP's
        # every-eviction hook and the table recorder's callbacks all
        # meet the shared eviction/flush body.
        from repro.engine import c_cache

        policy = data.draw(st.sampled_from(["lru", "lru_rand", "random"]))
        ways = data.draw(st.integers(1, 128))
        slices = data.draw(st.sampled_from([1, 2, 4]))
        sets = data.draw(st.sampled_from([1, 2, 8]))
        pool = data.draw(st.integers(1, ways + 2))
        monitor = data.draw(st.sampled_from([None, "pipo", "bitp", "table"]))
        cores = data.draw(st.integers(1, 4))
        config = SystemConfig(
            num_cores=cores,
            l1=CacheLevelConfig(2 * 1024, 2, 2),
            l2=CacheLevelConfig(8 * 1024, 4, 18),
            llc=CacheLevelConfig(slices * sets * ways * 64, ways, 35),
            llc_slices=slices,
            llc_policy=policy,
            filter=FilterConfig(num_buckets=64, security_threshold=1),
            prefetch_delay=5,
        )

        def build(engine):
            with built_under(engine):
                h = config.build_hierarchy(seed=11)
                if monitor == "pipo":
                    mon = PiPoMonitor(
                        config.filter.build(seed=12), EventQueue(),
                        prefetch_delay=config.prefetch_delay,
                        track_captured_lines=True,
                    )
                else:
                    mon = build_defence(
                        monitor or "none", config, EventQueue(), seed=12
                    )
            if policy == "lru_rand":
                for sl in h.llc.slices:
                    sl.policy.pool_size = pool
            if mon is not None:
                mon.attach(h)
            return h, mon

        (hg, mg), (hc, mc) = build("python"), build("c")
        assert c_cache.install(hc)
        kernel = hc._c_state.kernel
        lines = 3 * slices * sets * ways + 8
        # At least 100 records, so a typical example evicts lines that
        # cores still hold and every defence's eviction hook runs.
        records = data.draw(st.lists(
            st.tuples(
                st.integers(0, cores - 1),
                st.sampled_from((0, 0, 1, 2, 3, 4)),  # 4: prefetch fill
                st.integers(0, lines),
                st.booleans(),
            ),
            min_size=100, max_size=300,
        ))
        for now, (core, op, line, tag) in enumerate(records):
            for mon in (mg, mc):
                if mon is not None:
                    mon.events.run_until(now)
            if op == 4:
                assert hg.prefetch_fill(line, now, tag) == hc.prefetch_fill(
                    line, now, tag
                )
            else:
                assert hg.access(core, op, line * 64, now) == kernel(
                    core, op, line * 64, now
                )
        _assert_hierarchies_equal(hg, hc)
        assert hg.mc.__dict__ == hc.mc.__dict__
        assert hg._memory_versions == hc._memory_versions
        if monitor is not None:
            assert dataclasses.asdict(mg.stats) == dataclasses.asdict(mc.stats)
        if monitor == "pipo":
            assert mg.filter.snapshot() == mc.filter.snapshot()
            assert mg.captured_lines == mc.captured_lines
        hc.check_invariants()

    def test_random_llc_cells_equal_under_both_engines(self, monkeypatch):
        # The ablation's random Prime+Probe cell and a random-LLC mix1
        # cell: the C walk (and, for the mix, the C run loop) gives
        # the python engine's results.
        installed = []
        engine_access = CacheHierarchy.engine_access

        def recording(h):
            installed.append(h)
            return engine_access(h)

        monkeypatch.setattr(CacheHierarchy, "engine_access", recording)
        cell = ("random", 1500, 30, 4)
        config = dataclasses.replace(
            scaled_system_config(False), llc_policy="random"
        )

        def mix(native):
            with monkeypatch.context() as env:
                env.setenv("REPRO_BATCH", "1" if native else "0")
                return run_workloads(
                    config, scaled_mix_workloads("mix1", False), 20_000, seed=3
                )

        monkeypatch.setenv("REPRO_ENGINE", "python")
        reference_cell = defense_ablation._run_cell(cell)
        reference_mix = mix(True)
        assert all(h._c_state is None for h in installed)
        installed.clear()
        monkeypatch.setenv("REPRO_ENGINE", "c")
        assert defense_ablation._run_cell(cell) == reference_cell
        assert installed and all(h._c_state is not None for h in installed)
        installed.clear()
        with monkeypatch.context() as patched:
            patched.setattr(Core, "step", _refuse_step)
            native = mix(True)
        assert installed and all(h._c_state is not None for h in installed)
        python_loop = mix(False)
        for result in (native, python_loop, reference_mix):
            result.extra.pop("engine")  # provenance, not semantics
        assert native == python_loop == reference_mix
        assert native.stats.llc_evictions > 0

    def test_kernel_pinned_to_its_install_time_sinks(self, monkeypatch):
        # engine_access installs the walk once and keeps handing back
        # its kernel; the monitor and trace recorder present at install
        # are baked in, so swapping either afterwards must be refused
        # rather than silently ignored.
        monkeypatch.setenv("REPRO_ENGINE", "c")
        h = TABLE_II.build_hierarchy(seed=0)
        first = h.engine_access()
        assert first is h._c_state.kernel
        assert first is h.engine_access()
        with trace.recording(trace.TraceRecorder()):
            with pytest.raises(RuntimeError, match="changed after"):
                h.engine_access()
        monitor = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
        monitor.attach(h)
        with pytest.raises(RuntimeError, match="changed after"):
            h.engine_access()

    def test_introspection_syncs_the_mirror(self):
        # The guarded read APIs must observe current C state without an
        # explicit engine_sync.
        h = TABLE_II.build_hierarchy(seed=2)
        kernel = self._install(h)
        kernel(0, 1, 0x4440, 0)
        kernel(1, 0, 0x4440, 1)
        line = 0x4440 >> 6
        assert line in h.l1d[0]
        assert line in h.l1d[1]
        assert h.read_version(1, 0x4440) == h.read_version(0, 0x4440)
        assert any(line in sl for sl in h.llc.slices)
        h.check_invariants()

    def test_mirror_refuses_writes(self):
        # While the C walk owns the arrays, the object-level mutators
        # could change only the mirror (the next sync would silently
        # undo them), so each refuses, naming the cache.
        h = TABLE_II.build_hierarchy(seed=0)
        kernel = self._install(h)
        kernel(0, 0, 0x40, 0)
        l1 = h.l1d[0]
        llc = h.llc
        calls = [
            (l1, l1.insert, 12345),
            (l1, l1.remove, 1),
            (l1, l1.touch, 1),
            (l1, l1.probe, 1),
            (llc.slice_for(12345), llc.insert, 12345),
            (llc.slice_for(1), llc.remove, 1),
            (llc.slice_for(1), llc.touch, 1),
        ]
        for owner, call, line_addr in calls:
            with pytest.raises(RuntimeError, match=f"^{owner.name}: "):
                call(line_addr)
        assert 12345 not in llc and 12345 not in l1
        assert 1 in llc and 1 in l1
        assert (l1.hits, l1.misses) == (0, 1)
        assert kernel(0, 0, 0x40, 1) == h.l1_latency
