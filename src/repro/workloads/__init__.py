"""Workload generators.

The paper drives Fig. 8 with 10 mixes of SPEC CPU2006 benchmarks
(Table III).  SPEC binaries and reference inputs are not redistributable,
so this package models each benchmark as a parameterised synthetic
address-stream generator calibrated to the benchmark's published memory
character (working-set size, dominant access pattern, memory-operation
density) — see ``repro.workloads.spec`` for the calibration table.
"""

from repro.workloads.base import (
    ScriptedWorkload,
    Workload,
    compute_gap,
    core_data_base,
    core_code_base,
)
from repro.workloads.lsm import (
    LSMFilterTree,
    ZipfRanks,
    filter_state_digest,
    probe_key,
    resident_key,
)
from repro.workloads.mixes import TABLE_III_MIXES, mix_names, mix_workloads
from repro.workloads.spec import (
    BENCHMARK_PROFILES,
    BenchmarkProfile,
    SpecWorkload,
    spec_workload,
)
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)
from repro.workloads.trace import TraceRecord, read_trace_csv, record_trace, write_trace_csv

__all__ = [
    "BENCHMARK_PROFILES",
    "BenchmarkProfile",
    "HotColdWorkload",
    "LSMFilterTree",
    "PointerChaseWorkload",
    "RandomWorkload",
    "ScriptedWorkload",
    "SpecWorkload",
    "StencilWorkload",
    "StreamWorkload",
    "TABLE_III_MIXES",
    "TraceRecord",
    "Workload",
    "ZipfRanks",
    "compute_gap",
    "filter_state_digest",
    "core_code_base",
    "core_data_base",
    "mix_names",
    "mix_workloads",
    "probe_key",
    "read_trace_csv",
    "record_trace",
    "resident_key",
    "spec_workload",
    "write_trace_csv",
]
