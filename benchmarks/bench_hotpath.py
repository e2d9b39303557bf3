"""Hot-path microbenchmarks: the numbers behind PERFORMANCE.md.

Measures ops/sec of the simulator's innermost loops so speedups are
tracked, not asserted:

* ``CacheHierarchy.access`` on its three service tiers — L1 hit,
  LLC hit (L1/L2 miss), and full miss to memory with the monitor's
  filter on the path;
* three dedicated cache-walk mixes (``test_walk_*``) — L1-hit
  dominated, cold miss+fill, and monitored evict-heavy — so the C
  walk's effect is measured per-path, not only end-to-end;
* ``AutoCuckooFilter.access`` hit-heavy and mixed (insert-heavy);
* the batched storage-mode filter ops, and filter construction plus
  install at the LSM level shapes;
* ``derive_seed`` in the LSM build's two label shapes, the Python body
  and its C twin;
* a pointer chase's per-core chain, built in Python and in C;
* one core's record emission, by the generator and by ``cw_emit``;
* one end-to-end Fig. 8 cell (mix1, Table II filter, scaled system).

Run through ``benchmarks/run_perf.sh``, which writes the ops/sec
trajectory to ``benchmarks/results/BENCH_hotpath.json``.  All state
is rebuilt per round (``pedantic`` + setup) so rounds are identical
work; every stream is seeded — run-to-run variance is the machine's,
not the workload's.

The measured entry points go through the **engine seam**
(``hierarchy.engine_access()`` / ``filter.engine_batch()``), so the
same benchmark file measures whichever ``REPRO_ENGINE`` selects —
``benchmarks/run_perf.sh`` stamps the engine into every record, and
interleaved before/after comparisons are just two runs with the
variable flipped (see PERFORMANCE.md).
"""

import pytest

from repro.cache.hierarchy import OP_READ
from repro.core.config import TABLE_II
from repro.core.pipomonitor import PiPoMonitor
from repro.engine import effective_engine
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.utils.events import EventQueue

pytestmark = pytest.mark.tier2_perf

#: Memory operations (or filter queries) per measured round.
N_OPS = 100_000

_U64 = (1 << 64) - 1
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407


def _lcg_stream(seed, count, modulus):
    """Deterministic pseudo-random ints in [0, modulus) — cheap and
    library-free so stream generation never pollutes the profile."""
    state = seed
    out = []
    for _ in range(count):
        state = (state * _LCG_MULT + _LCG_INC) & _U64
        out.append((state >> 24) % modulus)
    return out


def _bench_ops(benchmark, fn, setup, ops):
    """Run ``fn(state)`` once per round on a fresh ``setup()`` state
    and record ops/sec in the benchmark record.

    Under ``--benchmark-disable`` (the CI smoke: one plain rep, no
    timing machinery) there are no stats to record — the run is purely
    a does-it-still-execute check.
    """
    result = benchmark.pedantic(
        fn, setup=lambda: ((setup(),), {}), rounds=3, iterations=1,
    )
    if benchmark.stats is not None:
        benchmark.extra_info["operations"] = ops
        benchmark.extra_info["engine"] = effective_engine()
        benchmark.extra_info["ops_per_sec"] = round(
            ops / benchmark.stats.stats.min
        )
    return result


# ----------------------------------------------------------------------
# CacheHierarchy.access tiers
# ----------------------------------------------------------------------

def _l1_hit_state():
    h = TABLE_II.build_hierarchy(seed=0)
    addrs = [i * 64 for i in range(256)]  # 16 KiB: resident in L1
    for a in addrs:
        h.access(0, OP_READ, a)
    return h, addrs * (N_OPS // len(addrs))


def test_access_l1_hit(benchmark):
    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, _l1_hit_state, N_OPS)


def test_access_llc_hit(benchmark):
    lines = 16384  # 1 MiB: overflows L1 and L2, resident in the LLC

    def setup():
        h = TABLE_II.build_hierarchy(seed=0)
        addrs = [i * 64 for i in range(lines)]
        for a in addrs:
            h.access(0, OP_READ, a)
        return h, (addrs * (N_OPS // lines + 1))[:N_OPS]

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, setup, N_OPS)


def test_access_miss(benchmark):
    ops = N_OPS // 4  # misses are ~30x slower than L1 hits

    def setup():
        h = TABLE_II.build_hierarchy(seed=0)
        monitor = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
        monitor.attach(h)
        seq = [a * 64 for a in _lcg_stream(12345, ops, 1 << 30)]
        return h, seq

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, setup, ops)


# ----------------------------------------------------------------------
# Cache-walk cells: the three service mixes the C walk targets.
# Dedicated cells (instead of reusing the tier benches above) so the
# c-vs-python trajectory for the fused walk is measured on
# streams that exercise the whole chain, not a single tier.
# ----------------------------------------------------------------------

def test_walk_l1_hit_dominated(benchmark):
    """~94% L1 read hits over a hot region, the rest falling through
    to L2/LLC — the demand mix a benign workload presents."""
    def setup():
        h = TABLE_II.build_hierarchy(seed=0)
        hot = [i * 64 for i in range(256)]          # resident in L1
        warm = [i * 64 for i in range(8192)]        # L2/LLC tier
        rolls = _lcg_stream(42, N_OPS, 16)
        picks = _lcg_stream(43, N_OPS, 8192)
        seq = [
            warm[picks[i]] if rolls[i] == 0 else hot[picks[i] & 255]
            for i in range(N_OPS)
        ]
        for a in warm:
            h.access(0, OP_READ, a)
        return h, seq

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, setup, N_OPS)


def test_walk_miss_fill(benchmark):
    """Cold sweep: every access misses all three levels and runs the
    full fetch → LLC fill → private fill chain (with L1/L2 inclusion
    victims once those fill up).  No monitor on the path."""
    ops = N_OPS // 4

    def setup():
        h = TABLE_II.build_hierarchy(seed=0)
        return h, [(1 << 24 | i) * 64 for i in range(ops)]

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, setup, ops)


def test_walk_evict_heavy_monitored(benchmark):
    """Conflict stream into one LLC set per slice with PiPoMonitor
    attached: every access evicts, repeated lines get captured and
    tagged, and tagged victims raise the pEvict hook — the walk's
    worst case (fill + evict + filter + monitor tail per op)."""
    ops = N_OPS // 8

    def setup():
        h = TABLE_II.build_hierarchy(seed=0)
        monitor = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
        monitor.attach(h)
        # All tags map to set 0 of their slice, far over the 16-way
        # capacity, so the steady state is one eviction per access.
        # 7 in 8 tags are fresh (their victims evict inline); 1 in 8
        # cycles a hot pool of 64, which the filter captures and tags,
        # so pEvict callbacks and monitor prefetches stay on the
        # measured path at a realistic rate rather than on every op.
        seq = [
            (((i >> 3) % 64 if i & 7 == 7 else 64 + i) << 10) * 64
            for i in range(ops)
        ]
        return h, seq

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, setup, ops)


# ----------------------------------------------------------------------
# Counter-export overhead: the observability layer's zero/near-zero claims.
# Same monitored evict-heavy stream as ``test_walk_evict_heavy_monitored``
# (the worst case for counter traffic: fills, evictions, probes,
# captures, and kick walks all on the measured path), run once with no
# recorder attached (must be *identical* work — detached installs bind
# no export wrapper) and once with a TraceRecorder attached at kernel
# install time (the <5% attached budget PERFORMANCE.md rule 18
# documents).  Both go through the engine seam, so the c legs measure
# the batched counter export instead of per-event callbacks.
# ----------------------------------------------------------------------

def _telemetry_mix_state(ops):
    h = TABLE_II.build_hierarchy(seed=0)
    monitor = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
    monitor.attach(h)
    seq = [
        (((i >> 3) % 64 if i & 7 == 7 else 64 + i) << 10) * 64
        for i in range(ops)
    ]
    return h, seq


def test_telemetry_detached(benchmark):
    from repro.obs.trace import detach_recorder

    ops = N_OPS // 8

    def setup():
        detach_recorder()  # belt-and-braces: measure the true baseline
        return _telemetry_mix_state(ops)

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    _bench_ops(benchmark, run, setup, ops)


def test_telemetry_attached(benchmark):
    from repro.obs.trace import TraceRecorder, attach_recorder, detach_recorder

    ops = N_OPS // 8

    def setup():
        # Attach before the run binds its kernel: publish sites are
        # resolved at install time, so the recorder must be live here
        # for the C walk to export its counters.
        attach_recorder(TraceRecorder())
        return _telemetry_mix_state(ops)

    def run(state):
        h, seq = state
        access = h.engine_access()
        for a in seq:
            access(0, OP_READ, a)

    try:
        _bench_ops(benchmark, run, setup, ops)
    finally:
        detach_recorder()


# ----------------------------------------------------------------------
# AutoCuckooFilter.access
# ----------------------------------------------------------------------

def test_filter_access_hits(benchmark):
    def setup():
        fltr = AutoCuckooFilter(seed=0)
        # Key space well under capacity: steady state is pure re-access.
        return fltr, _lcg_stream(999, N_OPS, 1 << 11)

    def run(state):
        fltr, keys = state
        access = fltr.engine_batch().access
        for k in keys:
            access(k)

    _bench_ops(benchmark, run, setup, N_OPS)


def test_filter_access_mixed(benchmark):
    def setup():
        fltr = AutoCuckooFilter(seed=0)
        # Key space 2x capacity: saturates the table, so the steady
        # state mixes hits with insertions and full relocation chains.
        return fltr, _lcg_stream(999, N_OPS, 1 << 14)

    def run(state):
        fltr, keys = state
        access = fltr.engine_batch().access
        for k in keys:
            access(k)

    _bench_ops(benchmark, run, setup, N_OPS)


# ----------------------------------------------------------------------
# Batched storage-mode filter cells (the standalone-filter surface).
# All three go through the engine batch seam (``filter.engine_batch()``)
# with ``array('Q')`` key buffers, so the C legs measure the one-
# crossing-per-batch kernels (zero-copy via ffi.from_buffer) against
# the per-key loops of the other engines.
# ----------------------------------------------------------------------

BATCH_OPS = 1_000_000


def _u64_array(seed, count, modulus):
    from array import array

    return array("Q", _lcg_stream(seed, count, modulus))


def test_filter_batch_insert_cold(benchmark):
    """Cold insert-heavy: 1 M distinct keys bulk-loaded into a
    ``from_fpp``-sized filter — the LSM compaction-rebuild shape."""
    def setup():
        fltr = AutoCuckooFilter.from_fpp(BATCH_OPS, 1e-3, seed=0)
        return fltr.engine_batch(), _u64_array(7, BATCH_OPS, 1 << 60)

    def run(state):
        batch, keys = state
        batch.insert_many(keys)

    _bench_ops(benchmark, run, setup, BATCH_OPS)


def test_filter_batch_query_hits(benchmark):
    """Query-hit-dominated: a 1 M-key read stream cycling a resident
    set — the LSM point-read shape (every probe scans both buckets)."""
    residents = 1 << 18

    def setup():
        fltr = AutoCuckooFilter.from_fpp(residents, 1e-3, seed=0)
        batch = fltr.engine_batch()
        batch.insert_many(_u64_array(11, residents, 1 << 60))
        return batch, _u64_array(11, BATCH_OPS, 1 << 60)

    def run(state):
        batch, keys = state
        batch.query_many(keys)

    _bench_ops(benchmark, run, setup, BATCH_OPS)


def test_filter_batch_mixed_deletes(benchmark):
    """Mixed with deletes at 1 M+ keys on the paper's default geometry
    (key space 2x capacity, as ``test_filter_access_mixed``): 1 M
    monitor accesses — hits, insertions, kick walks, autonomic
    deletions — then a 250 k delete wave.  This is the cell the
    batched-C-vs-per-key speedup gate is measured on."""
    deletes = BATCH_OPS // 4

    def setup():
        fltr = AutoCuckooFilter(seed=0)
        return (
            fltr.engine_batch(),
            _u64_array(999, BATCH_OPS, 1 << 14),
            _u64_array(998, deletes, 1 << 14),
        )

    def run(state):
        batch, accesses, victims = state
        batch.access_many(accesses)
        batch.delete_many(victims)

    _bench_ops(benchmark, run, setup, BATCH_OPS + deletes)


#: The LSM level shapes: ``from_fpp`` capacities 512..32768 at both
#: storage targets (fpp 1e-2: b=2, f=9; fpp 1e-3: b=4, f=13).
BUILD_SHAPES = [(512 << i, fpp) for i in range(7) for fpp in (1e-2, 1e-3)]

#: Passes over the shapes per round: 140 filters, about what one
#: perfbench ``lsm_store`` round builds.
BUILD_PASSES = 10


def test_filter_build_install(benchmark):
    """Filter construction and install (filters/sec): every LSM level
    shape built with ``from_fpp``, given ``engine_batch()`` and one
    128-key ``insert_many``, so the python leg pays its table build
    inside the cell and the c leg its C-side set-up."""
    def setup():
        return _u64_array(13, 128, 1 << 60)

    def run(keys):
        for _ in range(BUILD_PASSES):
            for cap, fpp in BUILD_SHAPES:
                batch = AutoCuckooFilter.from_fpp(cap, fpp, seed=0).engine_batch()
                batch.insert_many(keys)

    _bench_ops(benchmark, run, setup, BUILD_PASSES * len(BUILD_SHAPES))


# ----------------------------------------------------------------------
# Per-filter set-up: seed derivation
# ----------------------------------------------------------------------

#: ``derive_seed`` calls per measured round: about one perfbench
#: ``lsm_store`` round's 136 filter builds, half in each LSM shape.
DERIVE_CALLS = 136


@pytest.mark.parametrize("leg", ["python", "c"])
def test_derive_seed(benchmark, leg, monkeypatch):
    """Seed derivation (seeds/sec) in the two label shapes of an LSM
    level build: a filter's kick-walk LCG seed
    (``(seed, "auto-cuckoo-victim")``) and a level's hasher seed
    (``(seed, "lsm-level", depth, generation)``).  The python leg runs
    the reference body (the twin unbound), the c leg the C twin
    ``rng_derive_seed``."""
    from repro.engine import c_backend
    from repro.utils import rng

    # Load (and so bind) first: the python leg's unbinding must not
    # be undone by a first load inside it, nor outlive it.  A tree
    # from before the twin has no ``_c_twin``, and both legs run the
    # Python body there.
    loaded = c_backend._load_lib() is not None
    if leg == "python":
        monkeypatch.setattr(rng, "_c_twin", None, raising=False)
    elif not loaded:
        pytest.skip("C backend unavailable (no cffi/toolchain)")
    derive_seed = rng.derive_seed

    def run(_state):
        for i in range(DERIVE_CALLS // 2):
            derive_seed(i, "auto-cuckoo-victim")
            derive_seed(7, "lsm-level", i & 3, i)

    _bench_ops(benchmark, run, lambda: None, DERIVE_CALLS)


# ----------------------------------------------------------------------
# Per-core set-up: a pointer chase's chain
# ----------------------------------------------------------------------

#: Chains built per measured round.
CHAIN_BUILDS = 10


@pytest.mark.parametrize("leg", ["python", "c"])
def test_pointer_chain_build(benchmark, leg):
    """Pointer-chase set-up (chains/sec) for one scaled-mcf core, a
    32,768-line chain.  The python leg times ``_chain``, the shuffle a
    generator runs on its first ``next``; the c leg times
    ``emitter_state`` plus ``_load_emitter``, where ``cw_chain``
    builds the same chain for the C run loop."""
    from repro.experiments.common import scaled_mix_workloads

    (mcf,) = [w for w in scaled_mix_workloads("mix1", False)
              if w.name == "mcf"]
    workload = mcf._inner
    assert workload.num_lines == 32_768
    if leg == "python":
        def run(_state):
            for core_id in range(CHAIN_BUILDS):
                workload._chain(core_id, 0)
    else:
        from repro.engine import c_backend, c_cache

        pair = c_backend._load_lib()
        if pair is None:
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        ffi, lib = pair

        def run(_state):
            for core_id in range(CHAIN_BUILDS):
                c = ffi.new("cw_core *")
                c_cache._load_emitter(
                    ffi, lib, c, workload.emitter_state(core_id, 0), []
                )

    _bench_ops(benchmark, run, lambda: None, CHAIN_BUILDS)


# ----------------------------------------------------------------------
# Record emission
# ----------------------------------------------------------------------

@pytest.mark.parametrize("leg", ["python", "c"])
def test_emit_records(benchmark, leg):
    """Record emission (records/sec) for one scaled-mix1 core, sphinx3
    on core 2: a hot/cold stream, five or six Mersenne-Twister draws per
    record.  The python leg advances the generator; the c leg calls
    ``cw_emit``, the emitter the C run loop steps, into preallocated
    buffers.  Each round starts a fresh stream."""
    from collections import deque
    from itertools import islice

    from repro.experiments.common import scaled_mix_workloads

    core_id = 2
    workload = scaled_mix_workloads("mix1", False)[core_id]
    assert workload.name == "sphinx3"
    if leg == "python":
        def setup():
            return workload.generator(core_id, 0)

        def run(gen):
            deque(islice(gen, N_OPS), maxlen=0)
    else:
        from repro.engine import c_backend, c_cache

        pair = c_backend._load_lib()
        if pair is None:
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        ffi, lib = pair
        gaps = ffi.new("int64_t[]", N_OPS)
        ops = ffi.new("int32_t[]", N_OPS)
        addrs = ffi.new("uint64_t[]", N_OPS)

        def setup():
            c = ffi.new("cw_core *")
            c_cache._load_emitter(
                ffi, lib, c, workload.emitter_state(core_id, 0), []
            )
            return c

        def run(c):
            lib.cw_emit(c, N_OPS, gaps, ops, addrs)

    _bench_ops(benchmark, run, setup, N_OPS)


# ----------------------------------------------------------------------
# End-to-end: one Fig. 8 cell
# ----------------------------------------------------------------------

def test_fig8_single_cell(benchmark):
    from repro.experiments import fig8_performance

    # The budget is pinned (not the scaled default, which moved from
    # 200 k to 2 M in the array-native PR) so this trajectory point
    # stays comparable across every PR's BENCH_trajectory record.
    def run(_state):
        fig8_performance.run(
            seed=0, mixes=["mix1"], filter_sizes=((1024, 8),),
            instructions=200_000, jobs=1,
        )

    result = benchmark.pedantic(
        run, setup=lambda: ((None,), {}), rounds=3, iterations=1,
    )
    benchmark.extra_info["operations"] = 1
    benchmark.extra_info["engine"] = effective_engine()
    return result


def test_fig8_single_cell_generator_loop(benchmark, monkeypatch):
    """:func:`test_fig8_single_cell` on the Python loop
    (``REPRO_BATCH=0``: cores bound without a source): the scheduler
    loop with per-op kernel calls, which every attacker tenant and the
    python engine still run, recorded beside the C-resident run loop
    the default cell takes."""
    monkeypatch.setenv("REPRO_BATCH", "0")
    return test_fig8_single_cell(benchmark)


def test_campaign_throughput(benchmark):
    """Fleet-campaign throughput (tenants/sec): a pinned 32-tenant
    streamed sweep, serial, folded online — the trajectory point for
    the PR 8 campaign runner.  Budgets are pinned (not the campaign
    defaults) so the point stays comparable across PRs; ``operations``
    is the tenant count, so ``ops_per_sec`` *is* tenants/sec/core.
    """
    import warnings

    from repro.experiments.campaign import run as campaign_run

    tenants = 32

    def run(_state):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign_run(
                seed=0, tenants=tenants, jobs=1, chunk_size=16,
                benign_instructions=(6_000, 12_000),
                attack_iterations=(6, 10),
                covert_bits=(8, 12),
            )

    result = benchmark.pedantic(
        run, setup=lambda: ((None,), {}), rounds=3, iterations=1,
    )
    if benchmark.stats is not None:
        benchmark.extra_info["operations"] = tenants
        benchmark.extra_info["engine"] = effective_engine()
        benchmark.extra_info["ops_per_sec"] = round(
            tenants / benchmark.stats.stats.min, 2
        )
    return result


def test_campaign_throughput_generator_loop(benchmark, monkeypatch):
    """:func:`test_campaign_throughput` on the Python loop
    (``REPRO_BATCH=0``): every tenant on the Python scheduler loop with
    per-op kernel calls, recorded beside the default sweep whose
    benign tenants take the C-resident run loop."""
    monkeypatch.setenv("REPRO_BATCH", "0")
    return test_campaign_throughput(benchmark)


def test_fig10_detection_cell(benchmark):
    """One end-to-end fig10 cell: Flush+Reload under PiPoMonitor with
    the alarm bus, rate detector, and throttle response all online —
    the detection subsystem's trajectory point (run_perf.sh stamps it
    into BENCH_trajectory.json alongside the fig8 cell).

    Budget pinned at the fig10 defaults so the point stays comparable
    across PRs even if the experiment's own defaults move.
    """
    from repro.attacks.flush_reload import run_flush_attack
    from repro.detection import DetectionSpec

    def run(_state):
        run_flush_attack(
            "flush_reload", "pipo", iterations=32, seed=0,
            detection=DetectionSpec(
                detectors=(("rate", {"window": 12000, "threshold": 3}),),
                response="throttle_core",
            ),
        )

    result = benchmark.pedantic(
        run, setup=lambda: ((None,), {}), rounds=3, iterations=1,
    )
    benchmark.extra_info["operations"] = 1
    benchmark.extra_info["engine"] = effective_engine()
    return result
