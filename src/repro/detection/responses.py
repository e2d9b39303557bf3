"""OS response policies — what happens after a verdict.

Every policy turns detector verdicts into *scheduled* actions on the
shared :class:`~repro.utils.events.EventQueue` (never synchronous
mutations: verdicts arrive from inside the access path, where the
hierarchy is mid-operation — the same reason PiPoMonitor's prefetches
are delayed events).  The multicore scheduler drains events between
memory operations, so responses land at deterministic points of the
global timeline and stay bit-identical across engines.

=================  ====================================================
``log``            record verdicts only — the measurement mode the
                   ROC sweeps run in (zero perturbation)
``flush_suspect``  ``clflush`` the accused lines: scrubs the attacker's
                   primed/probed state and the covert channel's shared
                   line, at the cost of the victim's refetches
``throttle_core``  add a fixed latency penalty to every memory
                   operation the accused core sends past its L1 for a
                   fixed duration — degrades the attacker's probe rate
                   (and is what the adaptive attacker reacts to)
``isolate``        TPPD-style targeted partition: reserve LLC
                   residency for the accused lines — each is refilled
                   (tagged) right after any subsequent eviction or
                   flush, so probes of it stop carrying information.
                   Unlike a blanket defence this costs only the
                   accused lines' worth of LLC
=================  ====================================================

Policies are constructed from plain data (:func:`build_response`) so
experiment cells pickle across the ``REPRO_JOBS`` fan-out.
"""

from __future__ import annotations

from repro.detection.detectors import Verdict

#: Cycles between a verdict and its response landing (the OS's
#: reaction time; same order as the monitor's prefetch delay).
DEFAULT_RESPONSE_DELAY = 40


class LogPolicy:
    """Record verdicts; touch nothing (the ROC measurement mode)."""

    name = "log"

    def __init__(self):
        self.unit = None

    def bind(self, unit) -> None:
        self.unit = unit

    def on_verdict(self, verdict: Verdict) -> None:
        pass

    def summary(self) -> dict:
        return {}


class FlushSuspectPolicy(LogPolicy):
    """``clflush`` the accused lines after the verdict.

    Each verdict schedules a *burst*: ``burst`` flushes per accused
    line, spaced ``interval`` cycles apart.  A single flush at the
    verdict instant is trivially repaired by the next transfer on a
    self-clocked channel; a burst keeps landing flushes at phases the
    endpoints did not agree on, which is what actually injects errors.
    """

    name = "flush_suspect"

    def __init__(
        self,
        delay: int = DEFAULT_RESPONSE_DELAY,
        burst: int = 8,
        interval: int = 1100,
    ):
        super().__init__()
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.delay = delay
        self.burst = burst
        self.interval = interval
        self.flushes_requested = 0

    def on_verdict(self, verdict: Verdict) -> None:
        unit = self.unit
        hierarchy = unit.hierarchy
        line_bits = hierarchy._line_bits
        for line_addr in verdict.lines:
            for shot in range(self.burst):
                fire_at = verdict.time + self.delay + shot * self.interval
                self.flushes_requested += 1
                unit.events.schedule(
                    fire_at,
                    # Issued "by the OS": core 0 is the issuing-core
                    # slot; clflush scrubs every core's copies
                    # regardless.
                    lambda a=line_addr << line_bits, t=fire_at: (
                        hierarchy.clflush(0, a, t)
                    ),
                    label=f"response-flush:{line_addr:#x}",
                )

    def summary(self) -> dict:
        return {"flushes_requested": self.flushes_requested}


class ThrottleCorePolicy(LogPolicy):
    """Penalise the accused core's memory operations for a while.

    The penalty applies to every memory operation of the core except
    an L1 read hit (exactly the probes, flushes, and misses an attack
    is made of), under either engine and either scheduler loop
    (:meth:`repro.cpu.core.Core.throttle`).  Repeat verdicts extend
    the throttle window.  Verdicts that accuse no core (``core == -1``,
    e.g. against a Flush+Flush attacker who never holds the line) are
    counted but unanswered — the stealthy-attacker limitation the
    fig10 response table quantifies.
    """

    name = "throttle_core"

    def __init__(
        self,
        penalty: int = 300,
        duration: int = 20000,
        delay: int = DEFAULT_RESPONSE_DELAY,
    ):
        super().__init__()
        if penalty < 1:
            raise ValueError("penalty must be >= 1")
        if duration < 1:
            raise ValueError("duration must be >= 1")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.penalty = penalty
        self.duration = duration
        self.delay = delay
        self.throttles_applied = 0
        self.unattributed_verdicts = 0

    def on_verdict(self, verdict: Verdict) -> None:
        if verdict.core < 0:
            self.unattributed_verdicts += 1
            return
        self.throttles_applied += 1
        unit = self.unit
        fire_at = verdict.time + self.delay
        unit.events.schedule(
            fire_at,
            lambda c=verdict.core, t=fire_at: unit.throttle_core(
                c, self.penalty, t + self.duration
            ),
            label=f"response-throttle:core{verdict.core}",
        )

    def summary(self) -> dict:
        return {
            "throttles_applied": self.throttles_applied,
            "unattributed_verdicts": self.unattributed_verdicts,
            "penalty": self.penalty,
        }


class IsolatePolicy(LogPolicy):
    """Reserve LLC residency for the accused lines (targeted
    partition).  The unit keeps refilling an isolated line (tagged)
    after every later eviction/flush alarm, so the line stays resident
    and timing probes of it go flat."""

    name = "isolate"

    def __init__(self, delay: int = DEFAULT_RESPONSE_DELAY):
        super().__init__()
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = delay
        self.lines_isolated = 0

    def on_verdict(self, verdict: Verdict) -> None:
        unit = self.unit
        for line_addr in verdict.lines:
            if unit.isolate_line(line_addr):
                self.lines_isolated += 1
                # Seat the line immediately; later alarms re-seat it.
                unit.schedule_guard_refill(line_addr, verdict.time + self.delay)

    def summary(self) -> dict:
        return {"lines_isolated": self.lines_isolated}


#: Registry: response name -> class.
RESPONSES = {
    LogPolicy.name: LogPolicy,
    FlushSuspectPolicy.name: FlushSuspectPolicy,
    ThrottleCorePolicy.name: ThrottleCorePolicy,
    IsolatePolicy.name: IsolatePolicy,
}


def build_response(name: str, params: dict | None = None):
    """Instantiate a registry policy from plain data."""
    if name not in RESPONSES:
        raise ValueError(
            f"unknown response {name!r} (expected one of {sorted(RESPONSES)})"
        )
    return RESPONSES[name](**(params or {}))
