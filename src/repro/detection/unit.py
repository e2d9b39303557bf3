"""The detection unit: alarm bus → detectors → response policy.

One :class:`DetectionUnit` per simulated system.  It subscribes to the
monitor's :class:`~repro.utils.events.AlarmBus`, feeds every alarm
through its detectors online, hands verdicts to the response policy,
and owns the response mechanics the policies share (throttle wrappers
on cores, the isolated-line guard).  Its :meth:`report` is attached to
``SimulationResult.extra["detection"]`` by the multicore scheduler —
the canonical, golden-able record of what the subsystem saw and did.

:class:`DetectionSpec` is the plain-data description of a unit
(detector names + params, response name + params) so experiment cells
carry detection configs across the ``REPRO_JOBS`` process fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.detectors import Verdict, build_detector
from repro.detection.responses import build_response
from repro.utils.events import ALARM_CAPTURE, AlarmBus, EventQueue

#: Cycles between an alarm on an isolated line and its guard refill.
DEFAULT_GUARD_DELAY = 40

#: Verdict-log cap inside :meth:`DetectionUnit.report` (full count is
#: always reported; the tail is elided to keep goldens reviewable).
REPORT_VERDICT_CAP = 64


class DetectionUnit:
    """Wires one bus, a detector set, and one response policy."""

    def __init__(
        self,
        detectors,
        policy,
        events: EventQueue,
        hierarchy,
        cores=None,
        guard_delay: int = DEFAULT_GUARD_DELAY,
    ):
        self.detectors = list(detectors)
        self.policy = policy
        self.events = events
        self.hierarchy = hierarchy
        self.cores = list(cores) if cores is not None else []
        self.guard_delay = guard_delay
        self.bus: AlarmBus | None = None
        self.verdicts: list[Verdict] = []
        self.alarms_seen = 0
        self.isolated: set[int] = set()
        self.guard_refills = 0
        self.guard_reseats = 0
        # core_id -> throttle expiry time (absent = unthrottled).
        self._throttle_expiry: dict[int, int] = {}
        self.throttle_windows = 0
        policy.bind(self)

    # ------------------------------------------------------------------
    # Bus plumbing
    # ------------------------------------------------------------------

    def subscribe_to(self, bus: AlarmBus) -> None:
        self.bus = bus
        bus.subscribe(self.on_alarm)

    def on_alarm(
        self, kind: int, time: int, line_addr: int, core: int, sharers: int
    ) -> None:
        """One alarm: detectors first, then the isolation guard."""
        self.alarms_seen += 1
        for detector in self.detectors:
            verdict = detector.observe(kind, time, line_addr, core, sharers)
            if verdict is not None:
                self.verdicts.append(verdict)
                self.policy.on_verdict(verdict)
        if (
            self.isolated
            and kind != ALARM_CAPTURE
            and line_addr in self.isolated
        ):
            # The line just left the LLC (pEvict or suppressed):
            # re-seat it — the partition guarantees residency.
            self.guard_reseats += 1
            self.schedule_guard_refill(line_addr, time + self.guard_delay)

    # ------------------------------------------------------------------
    # Response mechanics shared by the policies
    # ------------------------------------------------------------------

    def isolate_line(self, line_addr: int) -> bool:
        """Mark a line isolated; returns False when already isolated."""
        if line_addr in self.isolated:
            return False
        self.isolated.add(line_addr)
        return True

    def schedule_guard_refill(self, line_addr: int, fire_at: int) -> None:
        """Schedule a tagged prefetch fill of an isolated line."""
        def refill(addr=line_addr, t=fire_at):
            if self.hierarchy.prefetch_fill(addr, t, tag=True):
                self.guard_refills += 1

        self.events.schedule(
            fire_at, refill, label=f"isolate-refill:{line_addr:#x}"
        )

    def throttle_core(self, core_id: int, penalty: int, until: int) -> None:
        """(Re)arm the throttle on one core until ``until``.

        The core adds ``penalty`` cycles to every operation but an L1
        read hit (:meth:`repro.cpu.core.Core.throttle`); an expiry
        event restores the original binding (re-verdicts extend the
        window — the latest expiry wins).
        """
        core = self.cores[core_id]
        already = core_id in self._throttle_expiry
        current = self._throttle_expiry.get(core_id, 0)
        if until <= current:
            return
        self._throttle_expiry[core_id] = until
        if not already:
            self.throttle_windows += 1
            core.throttle(penalty)
        self.events.schedule(
            until,
            lambda c=core_id, t=until: self._maybe_unthrottle(c, t),
            label=f"unthrottle:core{core_id}",
        )

    def _maybe_unthrottle(self, core_id: int, scheduled_until: int) -> None:
        if self._throttle_expiry.get(core_id) == scheduled_until:
            del self._throttle_expiry[core_id]
            self.cores[core_id].unthrottle()

    # ------------------------------------------------------------------

    @property
    def detected(self) -> bool:
        return bool(self.verdicts)

    @property
    def first_detection_time(self) -> int | None:
        return self.verdicts[0].time if self.verdicts else None

    @property
    def first_detection_latency(self) -> int | None:
        return self.verdicts[0].latency if self.verdicts else None

    def report(self) -> dict:
        """Canonical (JSON-safe) record of the run's detection story.

        When the bus logs alarms (``DetectionSpec.log_alarms``), the
        full stream rides along as ``alarm_log`` — the input the ROC
        sweeps replay offline through other detector configurations.
        """
        per_detector: dict[str, int] = {d.name: 0 for d in self.detectors}
        for verdict in self.verdicts:
            per_detector[verdict.detector] += 1
        report: dict = {
            "alarms_seen": self.alarms_seen,
            "alarms_published": (
                self.bus.published if self.bus is not None else 0
            ),
            "verdicts": len(self.verdicts),
            "verdicts_by_detector": per_detector,
            "first_detection_time": self.first_detection_time,
            "first_detection_latency": self.first_detection_latency,
            "verdict_log": [
                {
                    "time": v.time,
                    "detector": v.detector,
                    "score": v.score,
                    "core": v.core,
                    "lines": list(v.lines),
                    "latency": v.latency,
                }
                for v in self.verdicts[:REPORT_VERDICT_CAP]
            ],
            "response": self.policy.name,
            "response_summary": self.policy.summary(),
            "isolated_lines": sorted(self.isolated),
            "guard_refills": self.guard_refills,
            "guard_reseats": self.guard_reseats,
            "throttle_windows": self.throttle_windows,
        }
        if self.bus is not None and self.bus.log is not None:
            report["alarm_log"] = [list(alarm) for alarm in self.bus.log]
        return report


@dataclass
class DetectionSpec:
    """Plain-data description of a detection unit (picklable).

    ``detectors`` is a tuple of ``(name, params)`` pairs;
    ``response`` / ``response_params`` name a policy.  ``log_alarms``
    keeps the full alarm stream on the bus for offline ROC replay.
    """

    detectors: tuple = (("rate", None),)
    response: str = "log"
    response_params: dict | None = None
    log_alarms: bool = True
    guard_delay: int = DEFAULT_GUARD_DELAY
    extra: dict = field(default_factory=dict)

    def build_bus(self) -> AlarmBus:
        return AlarmBus(log=self.log_alarms)

    def attach_bus(self, monitor) -> AlarmBus:
        """Phase 1 of deployment — **before core construction**: each
        core installs its access kernel when built, and the C walk
        calls back to publish captures only if the monitor already
        carries the bus.  Returns the bus for :meth:`deploy`."""
        if monitor is None:
            raise ValueError(
                "detection requires a defence that publishes alarms "
                "(a monitor must be attached to the hierarchy)"
            )
        bus = self.build_bus()
        monitor.alarms = bus
        return bus

    def deploy(self, bus: AlarmBus, events, hierarchy, cores) -> DetectionUnit:
        """Phase 2 — after core construction: build the unit (the
        throttle response needs the cores) and subscribe it."""
        unit = self.build_unit(events, hierarchy, cores)
        unit.subscribe_to(bus)
        return unit

    def build_unit(
        self, events: EventQueue, hierarchy, cores
    ) -> DetectionUnit:
        detectors = [
            build_detector(name, params) for name, params in self.detectors
        ]
        policy = build_response(self.response, self.response_params)
        return DetectionUnit(
            detectors,
            policy,
            events,
            hierarchy,
            cores=cores,
            guard_delay=self.guard_delay,
        )
