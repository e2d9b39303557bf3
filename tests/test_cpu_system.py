"""Unit tests for cores, the multicore scheduler, and system assembly."""

import pytest

from repro.cache.hierarchy import OP_READ, OP_WRITE
from repro.core.config import CacheLevelConfig, FilterConfig, SystemConfig
from repro.cpu.core import Core
from repro.cpu.multicore import MulticoreSystem
from repro.cpu.system import build_system, run_workloads
from repro.utils.events import EventQueue
from repro.workloads.base import ScriptedWorkload


def small_config(num_cores=2, monitor=True):
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheLevelConfig(2 * 1024, 2, 2),
        l2=CacheLevelConfig(8 * 1024, 4, 18),
        llc=CacheLevelConfig(64 * 1024, 8, 35),
        llc_slices=2,
        filter=FilterConfig(num_buckets=64),
        monitor_enabled=monitor,
    )


def build_small(workloads, monitor=True, seed=0):
    config = small_config(num_cores=len(workloads), monitor=monitor)
    return build_system(config, workloads, seed=seed)


class TestCore:
    def test_compute_advances_time_and_instructions(self):
        system, _ = build_small([ScriptedWorkload([(10, None, 0)])])
        core = system.cores[0]
        assert core.advance()
        assert core.time == 10 and core.instructions == 10
        assert not core.step(float("inf"))  # no memory op; stream ends
        assert core.time == 10

    def test_memory_op_adds_latency(self):
        system, _ = build_small([ScriptedWorkload([(0, OP_READ, 0x40)])])
        core = system.cores[0]
        core.advance()
        core.step(float("inf"))
        assert core.time == 2 + 18 + 35 + 200
        assert core.instructions == 1
        assert core.memory_ops == 1

    def test_generator_exhaustion_finishes_core(self):
        system, _ = build_small([ScriptedWorkload([(1, None, 0)])])
        core = system.cores[0]
        assert core.advance()
        assert not core.advance()
        assert core.finished

    def test_latency_fed_back_to_generator(self):
        seen = []

        def workload():
            latency = yield (0, OP_READ, 0x40)
            seen.append(latency)
            yield (0, None, 0)

        class Probe(ScriptedWorkload):
            def generator(self, core_id, seed):
                return workload()

        system, _ = build_small([Probe([])])
        system.run()
        assert seen == [2 + 18 + 35 + 200]

    def test_negative_compute_rejected(self):
        system, _ = build_small([ScriptedWorkload([(-1, None, 0)])])
        with pytest.raises(ValueError):
            system.cores[0].advance()


class TestMulticoreScheduler:
    def test_earliest_core_first(self):
        """Operations must reach the hierarchy in global time order."""
        order = []

        class Tagged(ScriptedWorkload):
            def __init__(self, records, tag):
                super().__init__(records, name=f"tag{tag}")
                self.tag = tag

            def generator(self, core_id, seed):
                for record in self.records:
                    order.append((self.tag, record[0]))
                    yield record

        # Core 0 ops at t=100; core 1 ops at t=5 — core 1 goes first.
        system, _ = build_small([
            Tagged([(100, OP_READ, 0x40)], 0),
            Tagged([(5, OP_READ, 0x80)], 1),
        ])
        system.run()
        assert system.cores[1].time < system.cores[0].time

    def test_records_of_any_shape_replay(self, repro_engine):
        # An unaligned address, a compute gap far wider than 14 bits
        # and a pure-compute record carrying an address each run as
        # given; the unaligned read fills the line the last read hits.
        records = [(1, OP_READ, 0x1001), (1 << 20, OP_WRITE, 0x40),
                   (3, None, 4096), (0, OP_READ, 0x1000)]
        system, _ = build_small([ScriptedWorkload(records)])
        result = system.run()
        assert result.core_instructions == [(1 << 20) + 4 + 3]
        assert result.core_memory_ops == [3]
        assert result.stats.l1_hits == 1 and result.stats.l1_misses == 2
        miss = 2 + 18 + 35 + 200
        assert result.core_times == [1 + miss + (1 << 20) + miss + 3 + 2]

    def test_instruction_budget_respected(self):
        workload = ScriptedWorkload([(9, OP_READ, 0x40)] * 1000)
        system, _ = build_small([workload])
        result = system.run(max_instructions_per_core=100)
        assert 100 <= result.core_instructions[0] < 120

    def test_rejects_nonpositive_budget(self):
        system, _ = build_small([ScriptedWorkload([(1, None, 0)])])
        with pytest.raises(ValueError):
            system.run(max_instructions_per_core=0)

    def test_rejects_empty_core_list(self):
        config = small_config(num_cores=1)
        hierarchy = config.build_hierarchy()
        with pytest.raises(ValueError):
            MulticoreSystem(hierarchy, [], EventQueue())

    def test_result_shape(self):
        system, _ = build_small(
            [ScriptedWorkload([(1, OP_READ, 0x40)] * 5)] * 2
        )
        result = system.run(max_instructions_per_core=8)
        assert len(result.core_times) == 2
        assert result.mean_time > 0
        assert result.max_time >= result.mean_time
        assert result.total_instructions == sum(result.core_instructions)

    def test_pending_events_drained_after_cores_finish(self):
        fired = []
        system, _ = build_small([ScriptedWorkload([(1, None, 0)])])
        system.events.schedule(10**9, lambda: fired.append(True))
        system.run()
        assert fired == [True]

    def test_deterministic_across_runs(self):
        def make():
            return build_small(
                [ScriptedWorkload([(3, OP_READ, 0x40 * (i + 1))
                                   for i in range(50)])] * 2,
                seed=5,
            )

        system_a, _ = make()
        system_b, _ = make()
        result_a = system_a.run()
        result_b = system_b.run()
        assert result_a.core_times == result_b.core_times
        assert result_a.stats.total_latency == result_b.stats.total_latency


class TestBuildSystem:
    def test_monitor_deployed_when_enabled(self):
        system, monitor = build_small([ScriptedWorkload([(1, None, 0)])])
        assert monitor is not None
        assert system.hierarchy.monitor is monitor

    def test_no_monitor_when_disabled(self):
        system, monitor = build_small(
            [ScriptedWorkload([(1, None, 0)])], monitor=False
        )
        assert monitor is None
        assert system.hierarchy.monitor is None

    def test_workload_count_must_match_cores(self):
        config = small_config(num_cores=2)
        with pytest.raises(ValueError):
            build_system(config, [ScriptedWorkload([(1, None, 0)])])

    def test_run_workloads_records_extra(self):
        config = small_config(num_cores=1)
        result = run_workloads(
            config, [ScriptedWorkload([(1, OP_WRITE, 0x40)] * 10)],
            instructions_per_core=15,
        )
        # Provenance only: the defended golden payloads include
        # ``extra``, so the run step adds no other key.
        assert list(result.extra) == ["engine"]
        assert result.monitor_stats is not None
