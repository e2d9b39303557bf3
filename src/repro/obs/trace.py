"""The run's one observability sink: wall-clock spans plus counters,
serialized as Chrome-trace / Perfetto JSON.

A :class:`TraceRecorder` collects *complete events* (``"ph": "X"`` in
the Chrome trace format): one record per span with a start timestamp
in microseconds and a duration.  Spans nest naturally — grid → chunk
→ cell → attempt → engine phase — because Perfetto reconstructs the
stack from containment on the same ``(pid, tid)`` track.  The same
recorder holds the run's named counters (ints that add) and gauges
(floats, last write wins): what the monitor saw — captures, kick
steps, fills, evictions — sits on the timeline that says where the
wall-clock went.

Recording is opt-in, and an attached recorder is the only switch:

* in-process sites call :func:`span`, which returns a shared no-op
  context manager unless a recorder is attached — one global load and
  an ``is None`` test, at grid/chunk/cell granularity only (never per
  simulated event);
* fork workers observe when the supervisor had a recorder attached as
  it built its worker pool: they collect their spans and counters on
  a per-cell recorder and ship them back over the result pipe as a
  CRC-checked sidecar next to the payload — a corrupt sidecar drops
  and bumps a counter, it never fails the cell.

Counter publish sites follow the AlarmBus pattern of PERFORMANCE.md
design rule 15: the C kernels resolve :func:`current_recorder` when
they are *installed*, not when they run (rule 18).  A kernel installed
with no recorder attached binds no export and publishes nothing, not
even to a recorder attached later; the recorder's identity joins the
install key, so swapping it under a live C walk is refused.

Timestamps are wall-clock (``time.time``) so spans from different
processes land on one coherent timeline; durations use the monotonic
``perf_counter``.  Counters are wall-clock-free and deterministic per
cell, so a fan-out's merged counts equal the serial run's.  None of
this ever enters a result payload, a checkpoint shard, or a digest:
tracing a run cannot change its output.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext

class TraceRecorder:
    """Accumulates Chrome-trace events, counters and gauges; cheap
    enough to live in a fork worker for the duration of one cell."""

    __slots__ = ("events", "dropped", "counters", "gauges")

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.dropped = 0
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    def add(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        *,
        pid: int | None = None,
        tid: int = 1,
        args: dict | None = None,
    ) -> None:
        """Record one complete event (timestamps in microseconds)."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": os.getpid() if pid is None else pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def extend(self, events: list[dict]) -> None:
        """Append raw events (e.g. shipped back from a worker)."""
        self.events.extend(events)

    def process_name(self, name: str, pid: int | None = None) -> None:
        """Emit the metadata event that labels a process track."""
        self.events.append({
            "name": "process_name",
            "ph": "M",
            "pid": os.getpid() if pid is None else pid,
            "tid": 1,
            "args": {"name": name},
        })

    @contextmanager
    def span(self, name: str, cat: str = "run", **args):
        """Record the enclosed block as one complete event."""
        ts = time.time() * 1e6
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = (time.perf_counter() - start) * 1e6
            self.add(name, cat, ts, dur, args=args or None)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def counter(self, name: str) -> int:
        """Current value of one counter (0 when never published)."""
        return self.counters.get(name, 0)

    def metrics(self) -> dict:
        """Key-sorted, JSON-safe ``{"counters", "gauges"}`` snapshot.

        Holds no timestamps, ids or provenance, so the snapshot of a
        deterministic run diffs cleanly across engines and across
        serial/parallel executions of the same cells.
        """
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
        }

    def merge_metrics(self, metrics: dict) -> None:
        """Fold a :meth:`metrics` snapshot (e.g. shipped back from a
        fork worker) into this recorder: counters add, gauges are
        last-write-wins."""
        for name, n in metrics.get("counters", {}).items():
            self.count(name, n)
        self.gauges.update(metrics.get("gauges", {}))

    def chrome_trace(self) -> dict:
        """The JSON-object trace container Perfetto and chrome://tracing
        load directly.  The :meth:`metrics` snapshot rides along as an
        extra top-level ``"telemetry"`` key, which the format
        explicitly permits."""
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"droppedSidecars": self.dropped},
            "telemetry": self.metrics(),
        }

    def write(self, path: str) -> None:
        """Serialize the trace to ``path`` as Chrome-trace JSON."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
            fh.write("\n")


def validate_chrome_trace(trace: object) -> list[str]:
    """Structural validation against the Chrome-trace JSON schema.

    Returns a list of problems (empty == valid).  Used by the CI
    campaign smoke step and the obs tests; deliberately strict about
    the fields Perfetto needs (``name``/``ph``/``ts``/``pid``/``tid``,
    a non-negative ``dur`` on complete events) and silent about
    optional extras.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace container must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace container has no traceEvents list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"event {i}: missing phase ('ph')")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i}: missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"event {i}: missing integer pid")
        if not isinstance(event.get("tid"), int):
            problems.append(f"event {i}: missing integer tid")
        if ph == "M":
            continue  # metadata events carry no timestamp
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {i}: missing timestamp ('ts')")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: complete event without dur >= 0")
    return problems


# ----------------------------------------------------------------------
# Process-wide recorder (the AlarmBus-style attach point)
# ----------------------------------------------------------------------

_recorder: TraceRecorder | None = None
_NOOP = nullcontext()


def attach_recorder(recorder: TraceRecorder) -> TraceRecorder:
    """Install ``recorder`` as the process-wide sink and return it.

    C kernels installed *after* this point export their counters to
    it; kernels installed before it stay silent.
    """
    global _recorder
    _recorder = recorder
    return recorder


def detach_recorder() -> TraceRecorder | None:
    """Remove the process-wide sink (kernels installed afterwards
    export nothing)."""
    global _recorder
    previous, _recorder = _recorder, None
    return previous


def current_recorder() -> TraceRecorder | None:
    """The attached recorder, or None.  Install-time publish sites
    capture it once; per-cell sites call it directly."""
    return _recorder


def span(name: str, cat: str = "run", **args):
    """Span the enclosed block on the attached recorder, or do
    nothing (a shared, reentrant null context) when none is attached.
    The detached cost is one global load and an ``is None`` test."""
    recorder = _recorder
    if recorder is None:
        return _NOOP
    return recorder.span(name, cat, **args)


@contextmanager
def recording(recorder: TraceRecorder):
    """Attach ``recorder`` for the duration of a ``with`` block,
    restoring the previous sink afterwards."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    try:
        yield recorder
    finally:
        _recorder = previous
