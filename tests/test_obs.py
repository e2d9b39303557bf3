"""Zero-overhead observability contract (:mod:`repro.obs`).

The layer's two load-bearing claims, proven rather than asserted:

* **Detached = absent.**  With no trace recorder attached, the C
  engine installs its kernels without export wrappers: nothing is
  published, not even to a recorder attached after the install
  (publish sites bind at install time).
* **Attached = invisible to results.**  With a recorder attached,
  every golden conformance digest and every grid result is
  bit-identical to the untraced run — serial or fan-out — while spans
  and counter snapshots stream back over the result pipes.

Plus the supporting instruments: sidecar CRC handling (corrupt blobs
drop, never fail a cell), Chrome-trace structural validity, the live
progress line, the offline ``status`` reader, and the shared failure
summary.
"""

from __future__ import annotations

import json
import pickle
import sys
import zlib
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "conformance"))

from repro.engine import available_engines, c_cache
from repro.experiments.checkpoint import GridCheckpoint
from repro.experiments.parallel import (
    CellFailure,
    _absorb_sidecar,
    failure_kinds,
    run_cells,
    summarize_failures,
)
from repro.obs.progress import Progress, attach_progress, detach_progress
from repro.obs.status import checkpoint_status, render_status
from repro.obs.trace import (
    TraceRecorder,
    attach_recorder,
    current_recorder,
    detach_recorder,
    recording,
    span,
    validate_chrome_trace,
)
from repro.utils.bitops import mix64

JOBS = 2


@pytest.fixture(autouse=True)
def _clean_sinks():
    """Every test starts and ends with no process-wide sinks attached
    (a leaked recorder would silently change later tests' kernel
    builds)."""
    detach_recorder()
    detach_progress()
    yield
    detach_recorder()
    detach_progress()


# ----------------------------------------------------------------------
# Recorder counters and gauges
# ----------------------------------------------------------------------

def test_counters_gauges_roundtrip():
    t = TraceRecorder()
    t.count("a")
    t.count("a", 4)
    t.gauge("g", 2.5)
    state = t.metrics()
    assert state["counters"] == {"a": 5}
    assert state["gauges"] == {"g": 2.5}

    merged = TraceRecorder()
    merged.merge_metrics(state)
    merged.merge_metrics(state)
    assert merged.counter("a") == 10
    assert merged.gauges["g"] == 2.5


def test_attach_detach_and_context_manager():
    assert current_recorder() is None
    t = TraceRecorder()
    with recording(t):
        assert current_recorder() is t
    assert current_recorder() is None
    attach_recorder(t)
    assert detach_recorder() is t
    assert current_recorder() is None


# ----------------------------------------------------------------------
# Tentpole: detached kernels publish nothing
# ----------------------------------------------------------------------

def _installed_walk(built_under):
    """A fresh monitored hierarchy, its filter built into C, with the C
    cache walk installed under whatever recorder is attached now;
    returns it and its kernel."""
    from repro.core.config import TABLE_II
    from repro.core.pipomonitor import PiPoMonitor
    from repro.utils.events import EventQueue

    if "c" not in available_engines():
        pytest.skip("C backend unavailable (no cffi/toolchain)")
    h = TABLE_II.build_hierarchy(seed=0)
    with built_under("c"):
        monitor = PiPoMonitor(TABLE_II.filter.build(seed=1), EventQueue())
    monitor.attach(h)
    assert c_cache.install(h)
    return h, h._c_state.kernel


def _drive(h, kernel):
    from repro.cache.hierarchy import OP_READ

    for i in range(512):
        kernel(0, OP_READ, (1 << 22 | i) * 64)
    for i in range(64):
        kernel(1, OP_READ, (1 << 23 | i) * 64)
    h.engine_sync()


def test_detached_c_walk_publishes_nothing(built_under):
    h, kernel = _installed_walk(built_under)
    t = attach_recorder(TraceRecorder())
    _drive(h, kernel)
    assert t.metrics()["counters"] == {}


def test_attached_kernel_publishes_counters(built_under):
    t = attach_recorder(TraceRecorder())
    h, kernel = _installed_walk(built_under)
    _drive(h, kernel)
    assert t.counter("engine.llc_fills") >= 512
    assert t.counter("engine.monitor_probes") >= 512


# ----------------------------------------------------------------------
# Tentpole: golden digests are recorder-blind
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["benign_mix1__pipo", "flush_reload__pipo"])
def test_golden_digests_unchanged_with_telemetry_attached(name, repro_engine):
    from regenerate import check_fixture

    rec = attach_recorder(TraceRecorder())
    with rec.span("conformance", "run", scenario=name):
        problems = check_fixture(name)
    assert not problems, (
        f"recorder attached changed a golden digest: {problems}"
    )
    # The run must also have *published*: a silently dead export would
    # make this test vacuous.  Only the C walk exports ``engine.*``
    # counters; the python engine has no per-event publish sites.
    if repro_engine == "c":
        assert rec.counter("engine.llc_fills") > 0


# ----------------------------------------------------------------------
# Worker sidecars: spans + snapshots stream back, corrupt blobs drop
# ----------------------------------------------------------------------

def _observed_cell(cell):
    """A cheap pure cell that also publishes to whatever recorder is
    attached in its process (the worker's per-cell recorder when
    fanned out, the in-process recorder when serial)."""
    index, seed = cell
    t = current_recorder()
    if t is not None:
        t.count("cell.runs")
        t.count("cell.work", index)
    with span("cell.compute", "cell", index=index):
        return mix64(index, salt=seed)


CELLS = [(i, 77) for i in range(8)]
EXPECTED = [mix64(i, salt=77) for i, _ in CELLS]
EXPECTED_COUNTERS = {
    "cell.runs": len(CELLS),
    "cell.work": sum(i for i, _ in CELLS),
}


def _run_observed(jobs):
    recorder = attach_recorder(TraceRecorder())
    try:
        out = run_cells(CELLS, _observed_cell, jobs=jobs)
    finally:
        detach_recorder()
    return out, recorder


def test_serial_and_parallel_observed_runs_agree():
    out_serial, rec_serial = _run_observed(1)
    out_par, rec_par = _run_observed(JOBS)
    assert out_serial == EXPECTED
    assert out_par == EXPECTED
    # Counters are integers folded commutatively: the fan-out merge
    # must agree exactly with the in-process serial publishes.
    for name, expected in EXPECTED_COUNTERS.items():
        assert rec_serial.counter(name) == expected
        assert rec_par.counter(name) == expected
    # Both recorders hold a full span set (cell spans + the inner
    # compute spans + the grid span) and validate as Chrome trace.
    for rec in (rec_serial, rec_par):
        trace = rec.chrome_trace()
        assert validate_chrome_trace(trace) == []
        names = [e["name"] for e in rec.events]
        assert names.count("cell") == len(CELLS)
        assert names.count("cell.compute") == len(CELLS)
        assert "grid" in names
    # Worker spans carry the worker pids; the supervisor's grid span
    # carries the parent pid.
    pids = {e["pid"] for e in rec_par.events}
    assert len(pids) >= 2


def test_cell_spans_are_attempt_tagged():
    _, recorder = _run_observed(JOBS)
    cell_spans = [e for e in recorder.events if e["name"] == "cell"]
    assert cell_spans
    for event in cell_spans:
        assert isinstance(event["args"]["index"], int)
        assert isinstance(event["args"]["attempt"], int)


def test_fig8_grid_counters_equal_serial_and_fanned(monkeypatch):
    """With a recorder attached and no environment flag, a fanned-out
    fig8 grid's C walk counters reach it through the worker sidecars,
    and equal the serial run's: the attached recorder is the one
    switch."""
    from repro.experiments.fig8_performance import _run_cell

    if "c" not in available_engines():
        pytest.skip("C backend unavailable (no cffi/toolchain)")
    monkeypatch.setenv("REPRO_ENGINE", "c")
    cells = [
        ("mix3", None, False, 20_000, 0),
        ("mix3", (1024, 8), False, 20_000, 0),
    ]
    counts = []
    for jobs in (1, JOBS):
        with recording(TraceRecorder()) as recorder:
            run_cells(cells, _run_cell, jobs=jobs)
        counts.append((
            recorder.counter("engine.llc_fills"),
            recorder.counter("engine.monitor_probes"),
        ))
    serial, fanned = counts
    assert serial == fanned
    assert all(serial), serial


def test_corrupt_sidecar_drops_without_failing():
    recorder = attach_recorder(TraceRecorder())
    blob = pickle.dumps({"spans": [], "metrics": {}})
    # Wrong CRC: dropped, counted, nothing raised.
    _absorb_sidecar((zlib.crc32(blob) ^ 1, blob))
    assert recorder.dropped == 1
    # Unpicklable blob with a "valid" CRC: same.
    junk = b"\x80\x04junk"
    _absorb_sidecar((zlib.crc32(junk), junk))
    assert recorder.dropped == 2
    # A valid sidecar still lands.
    good = pickle.dumps({
        "spans": [{"name": "x", "cat": "c", "ph": "X", "ts": 0.0,
                   "dur": 1.0, "pid": 1, "tid": 1}],
        "metrics": {"counters": {"k": 3}},
    })
    _absorb_sidecar((zlib.crc32(good), good))
    assert recorder.dropped == 2
    assert len(recorder.events) == 1
    assert recorder.counter("k") == 3


def test_absorb_sidecar_noop_when_detached():
    _absorb_sidecar(None)
    _absorb_sidecar((0, b"whatever"))  # no recorder: nothing to do


# ----------------------------------------------------------------------
# Chrome-trace structure
# ----------------------------------------------------------------------

def test_validate_chrome_trace_accepts_recorder_output(tmp_path):
    recorder = TraceRecorder()
    recorder.process_name("supervisor")
    with recording(recorder):
        with span("outer", "run", k=1):
            with span("inner", "run"):
                pass
    recorder.count("n", 2)
    path = tmp_path / "trace.json"
    recorder.write(str(path))
    trace = json.loads(path.read_text())
    assert validate_chrome_trace(trace) == []
    assert trace["telemetry"] == {"counters": {"n": 2}, "gauges": {}}
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in events} == {"outer", "inner"}
    for event in events:
        assert event["dur"] >= 0


def test_validate_chrome_trace_rejects_malformed():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) != []
    bad = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                            "ts": 0.0, "dur": -1}]}
    assert any("dur" in p for p in validate_chrome_trace(bad))
    missing_ts = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                                   "tid": 1, "dur": 1}]}
    assert any("ts" in p for p in validate_chrome_trace(missing_ts))


def test_span_is_noop_when_detached():
    ctx = span("anything", "run", arg=1)
    with ctx:
        pass  # the shared nullcontext: no recorder, no event, no error


# ----------------------------------------------------------------------
# Progress line
# ----------------------------------------------------------------------

def test_progress_line_contents():
    p = Progress("fig8", total=100, stream=None)
    p.advance(20)
    p.advance(5, loaded=True)
    p.note_retry(2)
    p.note_failure()
    p.note_fallback(3)
    p.note_orphans()
    p.heartbeat(busy=2, workers=4)
    line = p.line()
    assert line.startswith("fig8: 25/100 cells (25%)")
    assert "[workers 2/4]" in line
    assert "loaded 5" in line
    assert "retries 2" in line
    assert "fallbacks 3" in line
    assert "failures 1" in line
    assert "orphan-shards 1" in line
    assert "eta" in line


def test_progress_unknown_total_and_growth():
    p = Progress(stream=None)
    p.advance(3)
    assert "3 cells" in p.line()
    p.add_total(10)
    p.add_total(10)
    assert p.total == 20


def test_progress_disables_itself_on_dead_stream():
    class DeadStream:
        def write(self, _):
            raise OSError("gone")

        def flush(self):
            pass

    p = Progress("x", total=2, stream=DeadStream(), interval=0.0)
    p.advance()  # must not raise
    assert p.stream is None


def test_grid_feeds_attached_progress(monkeypatch):
    p = attach_progress(Progress("grid", stream=None))
    out = run_cells(CELLS, _observed_cell, jobs=1)
    assert out == EXPECTED
    assert p.done == len(CELLS)
    assert p.total == len(CELLS)


# ----------------------------------------------------------------------
# Failure summaries (satellite: partial-policy triage)
# ----------------------------------------------------------------------

def _failures():
    return [
        CellFailure(index=0, cell="(0,)", attempts=3, kind="crash",
                    error="worker crashed", engine="c"),
        CellFailure(index=1, cell="(1,)", attempts=3, kind="exception",
                    error="ValueError: boom", engine="c",
                    traceback="Traceback ...\nValueError: boom"),
        CellFailure(index=2, cell="(2,)", attempts=3, kind="crash",
                    error="worker crashed", engine="c"),
    ]


def test_failure_kinds_and_summary():
    fails = _failures()
    assert failure_kinds(fails) == {"crash": 2, "exception": 1}
    lines = summarize_failures(fails)
    assert lines[0] == "failures by kind: crash=2, exception=1"
    assert "first worker traceback:" in lines
    assert lines[-1].endswith("ValueError: boom")
    assert summarize_failures([]) == []


def test_grid_error_message_includes_kind_counts():
    from repro.experiments.parallel import GridExecutionError

    err = GridExecutionError(_failures(), 10)
    text = str(err)
    assert "3 of 10 cells failed" in text
    assert "failures by kind: crash=2, exception=1" in text
    assert "first worker traceback:" in text


# ----------------------------------------------------------------------
# status: offline checkpoint inspection
# ----------------------------------------------------------------------

def _status_cell(cell):
    return cell[0] * 2


def test_status_reads_live_checkpoint_dir(tmp_path):
    cells = [(i, 1) for i in range(4)]
    ckpt = GridCheckpoint(tmp_path, "grid_a", cells, _status_cell)
    ckpt.record(0, 1, 0)
    ckpt.record(1, 1, 2)
    ckpt.close()
    # A second, empty grid (manifest only) and an in-flight truncated
    # tail on the first shard.
    GridCheckpoint(tmp_path, "grid_b", cells, _status_cell).close()
    shard = next(tmp_path.glob("grid_a-*.jsonl"))
    with shard.open("a") as fh:
        fh.write('{"i": 2, "a": 1, "p": "truncat')  # no newline: mid-append

    rows = checkpoint_status(tmp_path)
    by_label = {row.label: row for row in rows}
    assert by_label["grid_a"].done == 2
    assert by_label["grid_a"].cells == 4
    assert by_label["grid_a"].partial_lines == 1
    assert not by_label["grid_a"].complete
    assert by_label["grid_b"].done == 0
    assert by_label["grid_a"].engine in ("python", "c")

    text = render_status(rows)
    assert "grid_a" in text and "grid_b" in text
    assert "total: 2/8 cells" in text
    assert "1 in-flight/truncated line(s)" in text
    assert "last append" in text


def test_status_never_unpickles_payloads(tmp_path):
    # A shard line whose payload would explode if unpickled: status
    # must count it as done without ever touching the bytes.
    cells = [(0, 1)]
    ckpt = GridCheckpoint(tmp_path, "grid_c", cells, _status_cell)
    ckpt.close()
    shard = next(tmp_path.glob("grid_c-*.jsonl"))
    shard.write_text('{"i": 0, "a": 1, "p": "!!not-base64-pickle!!"}\n')
    rows = checkpoint_status(tmp_path)
    assert rows[0].done == 1


def test_status_skips_orphan_shards_and_missing_dir(tmp_path):
    (tmp_path / "orphan-0123.jsonl").write_text('{"i": 0}\n')
    assert checkpoint_status(tmp_path) == []
    with pytest.raises(FileNotFoundError):
        checkpoint_status(tmp_path / "nope")


def test_cli_status_subcommand(tmp_path, capsys, monkeypatch):
    from repro.experiments.cli import main

    cells = [(i, 1) for i in range(2)]
    ckpt = GridCheckpoint(tmp_path, "grid_d", cells, _status_cell)
    ckpt.record(0, 1, 0)
    ckpt.close()
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    assert main(["status", "--checkpoint-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "grid_d" in out
    assert "total: 1/2 cells" in out


# ----------------------------------------------------------------------
# Campaign fallback surfacing (satellite)
# ----------------------------------------------------------------------

def test_campaign_aggregate_tracks_fallbacks_outside_digest():
    from repro.experiments.campaign import CampaignAggregate

    record = {
        "kind": "benign", "secthr": 2, "detector": "rate()",
        "verdicts": 0, "latency": None, "cycles": 100,
        "instructions": 50,
    }
    clean = CampaignAggregate()
    clean.update(0, dict(record))
    degraded = CampaignAggregate()
    degraded.update(0, dict(record, fallback="no C toolchain"))
    assert degraded.fallbacks == {"no C toolchain": 1}
    # Provenance only: the digested aggregate state is identical.
    assert degraded.state() == clean.state()
    assert degraded.digest() == clean.digest()
