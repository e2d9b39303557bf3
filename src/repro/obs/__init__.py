"""Zero-overhead observability: one trace recorder, live progress.

The package follows the AlarmBus discipline (PERFORMANCE.md design
rules 15 and 18): every instrument is opt-in, resolved at *install
time*, and costs nothing when detached.  A simulation with no recorder
attached installs its C kernels without export wrappers, and a traced
run produces bit-identical result digests to an untraced one —
observability reads the run, it never participates in it.

Modules:

``trace``
    The one sink, :class:`~repro.obs.trace.TraceRecorder`: wall-clock
    spans across the execution stack (grid → chunk → cell → attempt →
    engine phase) plus the run's counters and gauges, serialized as
    Chrome-trace / Perfetto JSON.  The C engine exports aggregate
    counter deltas, to the recorder attached at install time, in one
    boundary crossing per batch (rules 16/17).  Workers stream spans
    and counter snapshots back over the existing result pipes,
    CRC-checked like payloads.

``progress``
    A throttled, single-line live progress renderer fed by the worker
    supervisor and the streaming campaign runner.

``status``
    Offline inspection of a (possibly mid-run) checkpoint directory —
    the ``repro-experiment status`` subcommand.
"""

from repro.obs.trace import (  # noqa: F401
    TraceRecorder,
    attach_recorder,
    current_recorder,
    detach_recorder,
    span,
)
