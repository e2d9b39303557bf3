"""Cuckoo-filter family — the paper's data structure as a standalone,
importable package.

``CuckooFilter``     — the classic software filter of Fan et al.
                       (CoNEXT'14): insertions fail once a relocation
                       chain exhausts MNK, and records can be deleted —
                       the deletion interface is the reverse-engineering
                       weakness the paper attacks.
``AutoCuckooFilter`` — the paper's contribution: insertions never fail;
                       when a relocation chain reaches MNK the last
                       carried fingerprint is *autonomically deleted*,
                       and each entry carries a saturating ``Security``
                       re-access counter used for Ping-Pong detection.

Storage-mode surface (standalone library use, LSM-style):

* ``AutoCuckooFilter.from_fpp(item_num, fpp)`` sizes the (l, b, f)
  geometry from a target false-positive rate;
* ``insert`` / ``query`` / ``delete`` and their ``*_many`` batch forms
  are the classic filter operations over the same table (batched C
  kernels for a filter built under ``REPRO_ENGINE=c``: a filter binds
  its engine when it is built, and ``engine_batch()`` returns it);
* ``to_bytes()`` / ``from_bytes()`` round-trip the complete state
  across processes (versioned header, RNG lockstep preserved);
* ``fpp_report`` measures the realized rate against the target.
"""

from repro.filters.auto_cuckoo import (
    DEFAULT_STORAGE_MAX_KICKS,
    AutoCuckooFilter,
    FilterGeometry,
)
from repro.filters.cuckoo import CuckooFilter
from repro.filters.hashing import PartialKeyHasher
from repro.filters.metrics import (
    CollisionCensus,
    FppReport,
    collision_census,
    fpp_report,
    measure_false_positive_rate,
    occupancy_curve,
    theoretical_false_positive_rate,
)

__all__ = [
    "AutoCuckooFilter",
    "CollisionCensus",
    "CuckooFilter",
    "DEFAULT_STORAGE_MAX_KICKS",
    "FilterGeometry",
    "FppReport",
    "PartialKeyHasher",
    "collision_census",
    "fpp_report",
    "measure_false_positive_rate",
    "occupancy_curve",
    "theoretical_false_positive_rate",
]
