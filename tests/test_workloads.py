"""Unit tests for workload generators, SPEC profiles, mixes, traces."""

import pytest

from repro.attacks.flush_reload import FlushFlushAttacker
from repro.cache.hierarchy import OP_FLUSH, OP_IFETCH, OP_READ, OP_WRITE
from repro.workloads.base import (
    ScriptedWorkload,
    compute_gap,
    core_code_base,
    core_data_base,
)
from repro.workloads.mixes import TABLE_III_MIXES, mix_names, mix_workloads
from repro.workloads.spec import BENCHMARK_PROFILES, spec_workload
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)
from repro.workloads.trace import (
    read_trace_csv,
    record_trace,
    scripted_from_trace,
    write_trace_csv,
)
from repro.utils.rng import derive_rng


def take(workload, n, core_id=0, seed=1):
    """Materialise the first n records of a workload generator."""
    return [r.as_tuple() for r in record_trace(workload, core_id, seed, n)]


class TestAddressRegions:
    def test_disjoint_core_regions(self):
        assert core_data_base(0) != core_data_base(1)
        assert core_data_base(1) - core_data_base(0) >= 1 << 40

    def test_code_above_data(self):
        assert core_code_base(0) > core_data_base(0)

    def test_rejects_negative_core(self):
        with pytest.raises(ValueError):
            core_data_base(-1)


class TestComputeGap:
    def test_mean_matches_fraction(self):
        rng = derive_rng(1, "gap-test")
        samples = [compute_gap(0.25, rng) for _ in range(20_000)]
        # gap mean should be 1/0.25 - 1 = 3.
        assert sum(samples) / len(samples) == pytest.approx(3.0, abs=0.05)

    def test_full_fraction_zero_gap(self):
        rng = derive_rng(1, "gap-test")
        assert compute_gap(1.0, rng) == 0

    def test_rejects_bad_fraction(self):
        rng = derive_rng(1, "gap-test")
        with pytest.raises(ValueError):
            compute_gap(0.0, rng)
        with pytest.raises(ValueError):
            compute_gap(1.5, rng)


class TestSyntheticGenerators:
    def test_stream_is_sequential(self):
        workload = StreamWorkload(64 * 64, mem_fraction=1.0,
                                  write_fraction=0.0, ifetch_fraction=0.0)
        records = take(workload, 130)
        lines = [(addr - core_data_base(0)) // 64 for _, _, addr in records]
        assert lines[:5] == [0, 1, 2, 3, 4]
        assert lines[64] == 0  # wrapped around the working set

    def test_addresses_within_working_set(self):
        for workload in (
            StreamWorkload(4096, ifetch_fraction=0.0),
            RandomWorkload(4096, ifetch_fraction=0.0),
            PointerChaseWorkload(4096, ifetch_fraction=0.0),
            StencilWorkload(4096, ifetch_fraction=0.0),
            HotColdWorkload(4096, ifetch_fraction=0.0),
        ):
            base = core_data_base(0)
            for _, _, addr in take(workload, 300):
                assert base <= addr < base + 4096

    def test_pointer_chase_covers_cycle(self):
        workload = PointerChaseWorkload(
            32 * 64, mem_fraction=1.0, write_fraction=0.0,
            ifetch_fraction=0.0,
        )
        records = take(workload, 64)
        lines = {(addr - core_data_base(0)) // 64 for _, _, addr in records}
        # A permutation cycle visits many distinct lines, not a few.
        assert len(lines) > 16

    def test_write_fraction_respected(self):
        workload = RandomWorkload(
            64 * 1024, mem_fraction=1.0, write_fraction=0.5,
            ifetch_fraction=0.0,
        )
        records = take(workload, 4000)
        writes = sum(1 for _, op, _ in records if op == OP_WRITE)
        assert writes / len(records) == pytest.approx(0.5, abs=0.05)

    def test_ifetch_fraction_respected(self):
        workload = RandomWorkload(
            64 * 1024, mem_fraction=1.0, ifetch_fraction=0.2,
        )
        records = take(workload, 4000)
        fetches = sum(1 for _, op, _ in records if op == OP_IFETCH)
        assert fetches / len(records) == pytest.approx(0.2, abs=0.05)

    def test_ifetches_hit_code_region(self):
        workload = RandomWorkload(4096, ifetch_fraction=0.5)
        for _, op, addr in take(workload, 200, core_id=2):
            if op == OP_IFETCH:
                assert addr >= core_code_base(2)

    def test_different_cores_different_streams(self):
        workload = RandomWorkload(64 * 1024, ifetch_fraction=0.0)
        a = take(workload, 50, core_id=0)
        b = take(workload, 50, core_id=1)
        assert a != b

    def test_deterministic_per_seed(self):
        workload = HotColdWorkload(64 * 1024)
        assert take(workload, 100, seed=9) == take(workload, 100, seed=9)
        assert take(workload, 100, seed=9) != take(workload, 100, seed=10)

    def test_hotcold_prefers_hot_region(self):
        workload = HotColdWorkload(
            64 * 1024, hot_bytes=4096, hot_probability=0.9,
            mem_fraction=1.0, ifetch_fraction=0.0,
        )
        base = core_data_base(0)
        records = take(workload, 3000)
        hot = sum(1 for _, _, addr in records if addr < base + 4096)
        assert hot / len(records) == pytest.approx(0.9, abs=0.06)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StreamWorkload(32)  # smaller than one line
        with pytest.raises(ValueError):
            StreamWorkload(4096, mem_fraction=0.0)
        with pytest.raises(ValueError):
            StreamWorkload(4096, write_fraction=1.5)
        with pytest.raises(ValueError):
            HotColdWorkload(4096, hot_bytes=8192)
        with pytest.raises(ValueError):
            HotColdWorkload(4096, hot_probability=1.0)


class TestSpecProfiles:
    def test_all_table_iii_benchmarks_modelled(self):
        needed = {name for mix in TABLE_III_MIXES.values() for name in mix}
        assert needed <= set(BENCHMARK_PROFILES)

    def test_profiles_build(self):
        for name in BENCHMARK_PROFILES:
            workload = spec_workload(name)
            records = take(workload, 20)
            assert len(records) == 20

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            spec_workload("povray")

    def test_streaming_benchmarks_use_stream(self):
        assert BENCHMARK_PROFILES["libquantum"].pattern == "stream"
        assert BENCHMARK_PROFILES["mcf"].pattern == "pointer"

    def test_workload_named_after_benchmark(self):
        assert spec_workload("libquantum").name == "libquantum"


class TestMixes:
    def test_ten_mixes(self):
        assert mix_names() == [f"mix{i}" for i in range(1, 11)]

    def test_each_mix_has_four_components(self):
        for mix, components in TABLE_III_MIXES.items():
            assert len(components) == 4, mix

    def test_mix1_verbatim(self):
        assert TABLE_III_MIXES["mix1"] == (
            "libquantum", "mcf", "sphinx3", "gobmk"
        )

    def test_mix_workloads_instantiates_in_order(self):
        workloads = mix_workloads("mix7")
        assert [w.name for w in workloads] == [
            "gcc", "milc", "gobmk", "calculix"
        ]

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            mix_workloads("mix11")


class TestTraces:
    def test_record_trace_counts(self):
        records = record_trace(StreamWorkload(4096), max_ops=25)
        assert len(records) == 25

    def test_trace_csv_round_trip(self, tmp_path):
        records = record_trace(
            RandomWorkload(8192, write_fraction=0.4), max_ops=50
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        assert read_trace_csv(path) == records

    def test_flush_trace_csv_round_trip(self, tmp_path):
        attacker = FlushFlushAttacker(3)
        attacker.targets = [0x1000, 0x2040]
        records = record_trace(attacker, max_ops=50)
        assert sum(r.op == OP_FLUSH for r in records) == 8
        path = tmp_path / "flush.csv"
        write_trace_csv(records, path)
        assert read_trace_csv(path) == records

    def test_unknown_op_letter_rejected(self, tmp_path):
        path = tmp_path / "bad_op.csv"
        path.write_text("compute,op,address\n1,R,0x40\n2,X,0x80\n")
        with pytest.raises(ValueError, match="line 3: unknown op 'X'"):
            read_trace_csv(path)

    def test_trace_keeps_records_of_any_shape(self, tmp_path):
        # Unaligned addresses, wide compute gaps and pure-compute
        # records carrying an address are captured and saved verbatim.
        records = [(1, OP_READ, 0x1001), (1 << 40, OP_WRITE, 0x40),
                   (3, None, 4096), (0, OP_IFETCH, 0x380000)]
        trace = record_trace(ScriptedWorkload(records), max_ops=10)
        assert [r.as_tuple() for r in trace] == records
        path = tmp_path / "shapes.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope,nope\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_scripted_replay_matches(self):
        records = record_trace(StreamWorkload(4096), max_ops=30)
        replay = scripted_from_trace(records)
        assert take(replay, 30) == [r.as_tuple() for r in records]

    def test_finite_workload_trace_stops(self):
        workload = ScriptedWorkload([(1, OP_READ, 64), (2, None, 0)])
        records = record_trace(workload, max_ops=100)
        assert len(records) == 2

    def test_rejects_zero_ops(self):
        with pytest.raises(ValueError):
            record_trace(StreamWorkload(4096), max_ops=0)
