"""Cross-core flush-based covert channel (TPPD's harder target).

A *sender* and a *receiver* collude across cores over one shared cache
line — no secret-dependent victim needed.  Per bit window:

* the sender loads the shared line mid-window when transmitting a 1
  and stays idle for a 0;
* the receiver performs Flush+Reload at the window boundary: a fast
  reload means the sender touched the line (bit 1), then the flush
  re-arms the channel for the next window.

Ground truth is the transmitted bit string, so the channel's quality
is *measured*: raw signalling rate (one bit per window), bit error
rate against the truth, and the binary-symmetric-channel capacity that
error rate leaves — the number PiPoMonitor's prefetch response must
drive down.  The receiver's reloads are demand fetches, so the shared
line ping-pongs through the filter exactly like an attacked victim
line; once captured, every flush raises a pEvict and the prefetched
line makes the receiver read 1 regardless of the sender.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cache.hierarchy import OP_FLUSH, OP_READ
from repro.core.config import SystemConfig, TABLE_II
from repro.cpu.multicore import SimulationResult
from repro.cpu.system import run_workloads
from repro.utils.rng import derive_rng
from repro.workloads.base import Workload, core_data_base

from repro.attacks.flush_reload import DEFAULT_MISS_THRESHOLD

RECEIVER_CORE = 0
SENDER_CORE = 1

#: Byte offset of the shared line inside the sender's data region
#: (modelling a shared read-only page mapped into both processes).
SHARED_LINE_OFFSET = 0x4000

#: Smallest usable bit window: the receiver's per-window probe costs a
#: reload to DRAM (~255 cycles) plus a flush (~37), and the sender's
#: mid-window load needs room on the other side — below this the
#: endpoints desynchronise and decode bits from the wrong windows.
MIN_WINDOW = 1000


def shared_line_address(sender_core: int = SENDER_CORE) -> int:
    """Byte address of the covert channel's shared cache line."""
    return core_data_base(sender_core) + SHARED_LINE_OFFSET


def random_bits(count: int, seed: int) -> list[int]:
    """A reproducible random payload of 0/1 bits."""
    if count < 1:
        raise ValueError("payload must have at least one bit")
    rng = derive_rng(seed, "covert-payload")
    return [rng.randrange(2) for _ in range(count)]


class CovertSender(Workload):
    """Loads the shared line mid-window for every 1 bit.

    ``address`` defaults to the channel's canonical shared line; both
    endpoints take it as a parameter (never derive it from their own
    core placement) so a misplaced pair cannot silently end up
    signalling on two different lines.
    """

    name = "covert-sender"

    def __init__(
        self,
        bits: list[int],
        window: int = 5000,
        address: int | None = None,
    ):
        if not bits or any(bit not in (0, 1) for bit in bits):
            raise ValueError("bits must be a non-empty list of 0/1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.bits = list(bits)
        self.window = window
        self.address = (
            address if address is not None else shared_line_address()
        )

    def generator(self, core_id: int, seed: int):
        address = self.address
        clock = 0
        for index, bit in enumerate(self.bits):
            # Aim the transmission at the middle of the window,
            # self-clocked like the square-multiply victim.
            target_time = index * self.window + self.window // 2
            gap = target_time - clock
            if gap > 0:
                yield gap, None, 0
                clock += gap
            if bit:
                clock += yield 0, OP_READ, address


class CovertReceiver(Workload):
    """Flush+Reload on the shared line at every window boundary."""

    name = "covert-receiver"

    def __init__(
        self,
        windows: int,
        window: int = 5000,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        address: int | None = None,
    ):
        if windows < 1:
            raise ValueError("windows must be >= 1")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.windows = windows
        self.window = window
        self.miss_threshold = miss_threshold
        self.address = (
            address if address is not None else shared_line_address()
        )
        self.received: list[int] = []
        self.latencies: list[int] = []

    def generator(self, core_id: int, seed: int):
        address = self.address
        clock = 0
        # Arm the channel: start window 0 with the line flushed.
        clock += yield 0, OP_FLUSH, address
        for index in range(self.windows):
            wait = (index + 1) * self.window - clock
            if wait > 0:
                yield wait, None, 0
                clock += wait
            latency = yield 0, OP_READ, address
            clock += latency
            self.latencies.append(latency)
            self.received.append(1 if latency < self.miss_threshold else 0)
            clock += yield 0, OP_FLUSH, address


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@dataclass
class CovertChannelResult:
    """Measured quality of one covert-channel run."""

    defence: str
    window: int
    sent_bits: list[int]
    received_bits: list[int]
    monitor_stats: object | None
    simulation: SimulationResult
    extra: dict = field(default_factory=dict)

    @property
    def bit_errors(self) -> int:
        return sum(s != r for s, r in zip(self.sent_bits, self.received_bits))

    @property
    def error_rate(self) -> float:
        return self.bit_errors / len(self.sent_bits)

    @property
    def raw_bandwidth(self) -> float:
        """Signalling rate in bits per million cycles (one bit per
        window, regardless of whether it arrives intact)."""
        return 1_000_000 / self.window

    @property
    def effective_bandwidth(self) -> float:
        """Binary-symmetric-channel capacity the measured error rate
        leaves: ``raw * (1 - H2(p))`` bits per million cycles."""
        return self.raw_bandwidth * (1.0 - _binary_entropy(self.error_rate))


def run_covert_channel(
    defence: str = "none",
    bits: list[int] | None = None,
    n_bits: int = 64,
    window: int = 5000,
    seed: int = 0,
    config: SystemConfig | None = None,
    detection=None,
) -> CovertChannelResult:
    """Transmit a payload across cores; measure bandwidth and errors.

    ``defence`` is any name from
    :data:`repro.baselines.registry.DEFENCES`; ``window`` must leave
    room for one probe and one transmission per bit
    (:data:`MIN_WINDOW`).  ``detection`` (a
    :class:`repro.detection.DetectionSpec`) deploys the online
    detection-and-response subsystem — the responses that actually cut
    the measured capacity mid-run.
    """
    if window < MIN_WINDOW:
        raise ValueError(
            f"window {window} below MIN_WINDOW ({MIN_WINDOW}): the "
            "per-window probe cost would desynchronise the endpoints"
        )
    config = config if config is not None else TABLE_II
    if bits is None:
        bits = random_bits(n_bits, seed)
    sender = CovertSender(bits, window=window)
    receiver = CovertReceiver(len(bits), window=window)

    workloads: list[Workload] = [None, None]
    workloads[RECEIVER_CORE] = receiver
    workloads[SENDER_CORE] = sender
    simulation = run_workloads(
        config, workloads, None, seed=seed, defence=defence,
        seed_label="covert", pad_idle=True, detection=detection,
    )

    return CovertChannelResult(
        defence=defence,
        window=window,
        sent_bits=list(bits),
        received_bits=list(receiver.received),
        monitor_stats=simulation.monitor_stats,
        simulation=simulation,
        extra={
            "flushes": simulation.stats.flushes,
            "flush_hits": simulation.stats.flush_hits,
        },
    )
