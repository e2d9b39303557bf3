"""Online detection & response — pEvict alarms → OS policies.

The paper stops at "PiPoMonitor can further inform the OS" — this
package is that step, layered on the simulator:

* monitors publish captures/pEvicts on an
  :class:`~repro.utils.events.AlarmBus` (gated at kernel install
  time, so un-bussed configurations pay nothing);
* :mod:`~repro.detection.detectors` turn the stream into verdicts
  (windowed rate, per-region EWMA, cross-core correlation);
* :mod:`~repro.detection.responses` turn verdicts into scheduled OS
  actions (log / flush_suspect / throttle_core / isolate);
* :mod:`~repro.detection.unit` wires one system's bus, detectors, and
  policy, and reports through ``SimulationResult.extra["detection"]``.

Entry point for experiments: pass a :class:`DetectionSpec` as the
``detection=`` keyword of ``repro.cpu.system.build_system`` (through
``run_workloads`` or any attack runner), which attaches the bus before
the cores bind their access kernels and deploys the unit after.
``repro-experiment fig10`` sweeps the resulting ROC surface.
"""

from repro.detection.detectors import (
    DETECTORS,
    CrossCoreCorrelationDetector,
    RegionEwmaDetector,
    Verdict,
    WindowedRateDetector,
    build_detector,
    replay,
)
from repro.detection.responses import (
    RESPONSES,
    FlushSuspectPolicy,
    IsolatePolicy,
    LogPolicy,
    ThrottleCorePolicy,
    build_response,
)
from repro.detection.fleet import FleetDetectionStats, detector_desc
from repro.detection.unit import DetectionSpec, DetectionUnit

__all__ = [
    "DETECTORS",
    "RESPONSES",
    "CrossCoreCorrelationDetector",
    "DetectionSpec",
    "DetectionUnit",
    "FleetDetectionStats",
    "FlushSuspectPolicy",
    "IsolatePolicy",
    "LogPolicy",
    "RegionEwmaDetector",
    "ThrottleCorePolicy",
    "Verdict",
    "WindowedRateDetector",
    "build_detector",
    "build_response",
    "detector_desc",
    "replay",
]
