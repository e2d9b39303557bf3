"""Discrete-event queue and alarm bus for the timing simulator.

PiPoMonitor schedules *delayed prefetches* ("the latter waits for a
pre-defined delay, and then sends a request to the memory fetch queue")
— those are events with a future timestamp.  The multicore scheduler
drains all events whose timestamp is not after the global clock before
advancing any core past that point, so event side effects interleave
with core memory accesses in timestamp order.

Ties are broken by insertion order (FIFO), which keeps simulations
deterministic.

The **alarm bus** (:class:`AlarmBus`) is the paper's "inform the OS"
channel: monitors publish per-line threshold crossings (*captures*)
and pEvict messages as timestamped tuples instead of only bumping
counters, and the online detection subsystem
(:mod:`repro.detection`) consumes them.  Publishing is strictly
observational — the bus mutates no simulator state — so attaching a
bus with no response policy leaves every simulation bit-identical.
The bus is opt-in per monitor (``monitor.alarms``), and the C cache
walk resolves its presence at install time exactly like
``needs_all_evictions``: configurations without a bus (and without
captured-line tracking) never leave C on a capture.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by ``(time, sequence)``."""

    time: int
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class EventQueue:
    """Min-heap of :class:`Event` with deterministic tie-breaking.

    Contract: ``_heap`` is only ever mutated in place, never rebound —
    the multicore scheduler holds a direct reference to the list as
    its cheap "any events pending?" check, and a rebinding (e.g. a
    compaction that builds a new list) would silently detach it.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def schedule(self, time: int, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` to fire at ``time``; returns the Event."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time=time, sequence=self._sequence, action=action, label=label)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def next_time(self) -> int | None:
        """Timestamp of the earliest live event, or None when empty."""
        self._discard_cancelled()
        return self._heap[0].time if self._heap else None

    def run_until(self, time: int) -> int:
        """Fire every live event with ``event.time <= time``.

        Events scheduled *by* fired actions are honoured if they also
        fall inside the window.  Returns the number of actions fired.
        """
        fired = 0
        while True:
            self._discard_cancelled()
            if not self._heap or self._heap[0].time > time:
                return fired
            event = heapq.heappop(self._heap)
            event.action()
            fired += 1

    def _discard_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)


# ----------------------------------------------------------------------
# Alarm bus
# ----------------------------------------------------------------------

#: Alarm kinds.  ``CAPTURE`` is the filter's threshold crossing (the
#: Security response reaching secThr on an Access); ``PEVICT`` is the
#: monitor's pEvict message for a tagged line the LLC lost;
#: ``SUPPRESSED`` is a tagged-line eviction swallowed by the
#: no-endless-prefetch rule (no prefetch is issued, but the OS-facing
#: stream still sees that the line left the LLC untouched).
ALARM_CAPTURE = 0
ALARM_PEVICT = 1
ALARM_SUPPRESSED = 2

ALARM_KIND_NAMES = ("capture", "pevict", "suppressed")


class AlarmBus:
    """Timestamped monitor→OS alarm stream.

    Alarms are plain tuples ``(kind, time, line_addr, core, sharers)``
    — no per-alarm object allocation:

    * ``kind``      — one of the ``ALARM_*`` constants above;
    * ``time``      — simulation cycle of the event;
    * ``line_addr`` — the accused cache line;
    * ``core``      — attributed core, ``-1`` when the publishing
      hook has no requester information (the monitor sits at the
      memory controller, like the paper's);
    * ``sharers``   — the LLC directory presence mask at eviction time
      (``0`` for captures) — the per-core attribution the cross-core
      detectors key on.

    Subscribers are called synchronously in subscription order, which
    keeps alarm handling deterministic; ``log=True`` additionally
    records every alarm for offline replay (the ROC sweeps in
    ``fig10`` re-run one simulation's stream through many detector
    configurations).  Publishing never touches simulator state, so a
    subscriber-free, log-only bus is semantically invisible.
    """

    __slots__ = ("published", "log", "_subscribers")

    def __init__(self, log: bool = False):
        self.published = 0
        self.log: list[tuple[int, int, int, int, int]] | None = (
            [] if log else None
        )
        self._subscribers: list[Callable[[int, int, int, int, int], Any]] = []

    def subscribe(self, fn: Callable[[int, int, int, int, int], Any]) -> None:
        """Add a subscriber; called as ``fn(kind, time, line_addr,
        core, sharers)`` for every subsequent publish."""
        self._subscribers.append(fn)

    def publish(
        self, kind: int, time: int, line_addr: int, core: int, sharers: int
    ) -> None:
        """Publish one alarm to the log and every subscriber."""
        self.published += 1
        log = self.log
        if log is not None:
            log.append((kind, time, line_addr, core, sharers))
        for fn in self._subscribers:
            fn(kind, time, line_addr, core, sharers)
