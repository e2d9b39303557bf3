"""Defence registry — one name per scheme the experiments compare.

Every attack scenario (Prime+Probe, Flush+Reload, Flush+Flush, the
covert channel) and the conformance harness runs against the same four
configurations:

==========  ======================================================
``none``    undefended baseline (no monitor on the hierarchy)
``pipo``    PiPoMonitor with the config's Auto-Cuckoo filter
``bitp``    stateless back-invalidation prefetcher (BITP, PACT'19)
``table``   full-tag stateful recorder (prior stateful schemes)
==========  ======================================================

``build_defence`` holds the construction idiom (filter seed derivation,
table sizing to the filter's reach, BITP's short delay), and
:func:`repro.cpu.system.build_system` is its one caller, so a new
scenario gets the whole defence matrix by iterating :data:`DEFENCES`.
"""

from __future__ import annotations

from repro.baselines.bitp import BitpPrefetcher
from repro.baselines.table_recorder import TableRecorder
from repro.core.config import SystemConfig
from repro.core.pipomonitor import PiPoMonitor
from repro.utils.events import EventQueue
from repro.utils.rng import derive_seed

#: Registry order is presentation order in experiment tables.
DEFENCES: tuple[str, ...] = ("none", "pipo", "bitp", "table")

#: Additional buildable configurations that are not part of the
#: headline comparison matrix.  ``pipo_detect`` is PiPoMonitor in
#: *detect-only* mode: captures, pEvicts, and alarm-bus publishing
#: all run, but no obfuscating prefetch is scheduled — the deployment
#: where the OS response policies (:mod:`repro.detection`) carry the
#: mitigation, which is what the fig10 response comparison isolates.
EXTRA_DEFENCES: tuple[str, ...] = ("pipo_detect",)

#: BITP reacts to the back-invalidation itself, so its delay is the
#: short bus-turnaround figure the baseline comparison uses.
BITP_PREFETCH_DELAY = 40


def build_defence(
    name: str,
    config: SystemConfig,
    events: EventQueue,
    seed: int = 0,
    track_captured_lines: bool = False,
):
    """Build (not attach) the defence ``name`` describes.

    Returns the monitor object, or None for ``"none"``.  The caller
    attaches it to a hierarchy via ``monitor.attach(hierarchy)``; the
    shared ``events`` queue must be the one the simulation drains.
    ``track_captured_lines`` makes a PiPoMonitor record every line it
    captures (``monitor.captured_lines``).
    """
    if name == "none":
        return None
    if name == "pipo" or name == "pipo_detect":
        fltr = config.filter.build(seed=derive_seed(seed, "filter"))
        return PiPoMonitor(
            fltr, events, prefetch_delay=config.prefetch_delay,
            track_captured_lines=track_captured_lines,
            respond=(name == "pipo"),
        )
    if name == "bitp":
        return BitpPrefetcher(events, prefetch_delay=BITP_PREFETCH_DELAY)
    if name == "table":
        # Same reach as the Auto-Cuckoo filter: one table set per
        # filter bucket, the sizing the baseline comparison pins.
        return TableRecorder(
            events,
            num_sets=config.filter.num_buckets,
            ways=8,
            prefetch_delay=config.prefetch_delay,
        )
    raise ValueError(
        f"unknown defence {name!r} "
        f"(expected one of {DEFENCES + EXTRA_DEFENCES})"
    )
