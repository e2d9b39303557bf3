"""Golden-equivalence guards for the hot-path overhaul.

The fast paths (the engine kernels, the inlined hit paths, the
parallel experiment fan-out) must be *semantically invisible*: same stats, same
filter state, same simulation results as the plain serial code, for
the same seed.  These tests pin that, so a future optimisation that
quietly changes replacement decisions, stat accounting, or RNG
derivation fails loudly.

The suites are parametrized over every available engine
(``REPRO_ENGINE`` — python, and c when buildable, via the
shared ``repro_engine`` fixture): the serial reference side always
runs the generic paths (its filter is built under ``python``, since a
filter binds its engine when it is built), so under ``c`` each case
pins the compiled kernel against the generic reference.
"""

import dataclasses

import pytest

from repro.cache.hierarchy import OP_IFETCH, OP_READ, OP_WRITE
from repro.core.config import TABLE_II, SystemConfig
from repro.core.pipomonitor import PiPoMonitor
from repro.cpu.system import run_workloads
from repro.experiments import (
    baseline_comparison,
    defense_ablation,
    fig8_performance,
    secthr_sensitivity,
)
from repro.experiments.common import scaled_mix_workloads, scaled_system_config
from repro.experiments.parallel import resolve_jobs, run_cells
from repro.utils.events import EventQueue

_U64 = (1 << 64) - 1


def _request_stream(count=6000, cores=2):
    """Deterministic mixed request stream touching every service tier:
    a hot region (L1 hits), a warm region (L2/LLC), and a cold sweep
    (misses), with writes and ifetches sprinkled in."""
    state = 0xC0FFEE
    requests = []
    for i in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) & _U64
        roll = state >> 33
        core = i % cores
        if roll % 10 < 6:           # hot: 16 KiB
            line = roll % 256
        elif roll % 10 < 8:         # warm: 2 MiB
            line = roll % 32768
        else:                       # cold sweep
            line = 1 << 20 | (i * 7)
        if roll % 17 == 0:
            op = OP_IFETCH
        elif roll % 5 == 0:
            op = OP_WRITE
        else:
            op = OP_READ
        requests.append((core, op, line * 64))
    return requests


def _monitored_hierarchy(seed=3):
    h = TABLE_II.build_hierarchy(seed=seed)
    monitor = PiPoMonitor(TABLE_II.filter.build(seed=seed + 1), EventQueue())
    monitor.attach(h)
    return h, monitor


def _drive_kernel(h, requests):
    """Run ``requests`` through ``h``'s engine kernel, one call each."""
    access = h.engine_access()
    return [access(core, op, addr, 0) for core, op, addr in requests]


@pytest.mark.usefixtures("repro_engine")
class TestKernelEquivalence:
    def test_kernel_matches_serial(self, built_under):
        requests = _request_stream()
        with built_under("python"):
            serial_h, serial_m = _monitored_hierarchy()
        kernel_h, kernel_m = _monitored_hierarchy()

        serial_latencies = [
            serial_h.access(core, op, addr) for core, op, addr in requests
        ]
        kernel_latencies = _drive_kernel(kernel_h, requests)

        assert serial_latencies == kernel_latencies
        # Under the C cache walk the Python-side stats/dicts are a
        # batch-synced mirror (design rule 16); the serial side never
        # bound an engine kernel, so it is already current.
        kernel_h.engine_sync()
        assert serial_h.stats == kernel_h.stats
        # snapshot() reads either engine's table, so the comparison is
        # meaningful under every REPRO_ENGINE value.
        assert serial_m.filter.snapshot() == kernel_m.filter.snapshot()
        assert dataclasses.asdict(serial_m.stats) == dataclasses.asdict(
            kernel_m.stats
        )
        for a, b in (
            (serial_h.l1d, kernel_h.l1d),
            (serial_h.l1i, kernel_h.l1i),
            (serial_h.l2, kernel_h.l2),
            (serial_h.llc.slices, kernel_h.llc.slices),
        ):
            for ca, cb in zip(a, b):
                assert (ca.hits, ca.misses, ca.evictions) == (
                    cb.hits, cb.misses, cb.evictions
                )
                assert sorted(line.addr for line in ca.lines()) == sorted(
                    line.addr for line in cb.lines()
                )
        kernel_h.check_invariants()

    def test_per_core_and_resident_counters(self):
        requests = _request_stream(count=2000)
        h, _ = _monitored_hierarchy()
        _drive_kernel(h, requests)
        h.engine_sync()
        assert sum(h.stats.per_core_accesses) == h.stats.accesses
        # O(1) resident counters agree with a full walk of the sets.
        for cache in (*h.l1d, *h.l1i, *h.l2, *h.llc.slices):
            assert len(cache) == sum(1 for _ in cache.lines())
            assert cache.occupancy() == len(cache) / (
                cache.num_sets * cache.ways
            )


@pytest.mark.usefixtures("repro_engine")
class TestBatchPrefetchEquivalence:
    """Binding each core's source must be semantically invisible:
    identical SimulationResult whether the run may move into the
    C-resident run loop (under ``c``) or stays on the Python loop
    (``REPRO_BATCH=0``), with or without a monitor on the path."""

    def _run(self, native, monitor_enabled, seed=11):
        config = scaled_system_config(False, monitor_enabled=monitor_enabled)
        workloads = scaled_mix_workloads("mix1", False)
        with pytest.MonkeyPatch.context() as env:
            env.setenv("REPRO_BATCH", "1" if native else "0")
            return run_workloads(config, workloads, 25_000, seed=seed)

    def test_batched_matches_generator_baseline(self):
        assert self._run(True, False) == self._run(False, False)

    def test_batched_matches_generator_monitored(self):
        batched = self._run(True, True)
        serial = self._run(False, True)
        assert batched == serial
        assert batched.extra == serial.extra

    def test_trace_replay_matches_per_op_walk(self):
        from repro.cache.hierarchy import CacheHierarchy
        from repro.workloads.trace import record_trace, replay_trace

        workload = scaled_mix_workloads("mix3", False)[0]
        records = record_trace(workload, core_id=0, seed=4, max_ops=4000)
        batched_h = CacheHierarchy(num_cores=1, seed=2)
        serial_h = CacheHierarchy(num_cores=1, seed=2)
        latencies = replay_trace(batched_h, records, core_id=0)
        expected = [
            serial_h.access(0, r.op, r.address)
            for r in records if r.op is not None
        ]
        assert latencies == expected
        batched_h.engine_sync()
        assert batched_h.stats == serial_h.stats


def _cell(args):
    """Module-level (picklable) cell: one full simulation, returning
    the complete SimulationResult for equality comparison."""
    mix, instructions, seed = args
    config = scaled_system_config(False)
    workloads = scaled_mix_workloads(mix, False)
    return run_workloads(config, workloads, instructions, seed=seed)


@pytest.mark.usefixtures("repro_engine")
class TestParallelRunnerEquivalence:
    def test_simulation_result_identical_across_processes(self):
        args = ("mix3", 20_000, 7)
        in_process = _cell(args)
        # Two cells give each of the two workers one; both must
        # reproduce the in-process SimulationResult exactly, field for
        # field.
        worker_results = run_cells([args, args], _cell, jobs=2)
        assert worker_results[0] == in_process
        assert worker_results[1] == in_process

    def test_fig8_serial_vs_parallel(self):
        kwargs = dict(
            seed=5, mixes=["mix1", "mix3"],
            filter_sizes=((1024, 8), (512, 8)), instructions=20_000,
        )
        serial = fig8_performance.run(jobs=1, **kwargs)
        parallel = fig8_performance.run(jobs=4, **kwargs)
        assert serial.data["normalized"] == parallel.data["normalized"]
        assert serial.data["false_positives"] == parallel.data["false_positives"]
        assert serial.tables == parallel.tables

    def test_secthr_serial_vs_parallel(self):
        kwargs = dict(seed=5, mixes=("mix3",), instructions=20_000)
        serial = secthr_sensitivity.run(jobs=1, **kwargs)
        parallel = secthr_sensitivity.run(jobs=3, **kwargs)
        assert serial.data["means"] == parallel.data["means"]
        assert serial.tables == parallel.tables

    def test_baselines_serial_vs_parallel(self):
        kwargs = dict(seed=5, instructions=20_000)
        serial = baseline_comparison.run(jobs=1, **kwargs)
        parallel = baseline_comparison.run(jobs=4, **kwargs)
        assert serial.data["fp"] == parallel.data["fp"]
        assert serial.tables == parallel.tables

    def test_defense_ablation_serial_vs_parallel(self):
        kwargs = dict(seed=3, iterations=20)
        serial = defense_ablation.run(jobs=1, **kwargs)
        parallel = defense_ablation.run(jobs=3, **kwargs)
        # KeyRecovery objects cross the process boundary; they must
        # compare equal field-for-field against the in-process run.
        assert serial.data["baseline"] == parallel.data["baseline"]
        assert serial.data["defended"] == parallel.data["defended"]
        assert serial.tables == parallel.tables

    def test_repro_jobs_env(self, monkeypatch):
        # jobs=None defers to REPRO_JOBS; the full contract is pinned in
        # test_fault_tolerance::test_resolve_jobs_contract.
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) >= 1
