"""Cache-hierarchy substrate: the quad-core inclusive MESI hierarchy of
Table II (private L1I/L1D and L2 per core, shared sliced inclusive LLC)
that PiPoMonitor guards.

The hierarchy is the reproduction's stand-in for gem5's memory system:
it models the same structure (sizes, associativities, latencies,
inclusion, MESI, back-invalidation) at access granularity rather than
cycle granularity.
"""

from repro.cache.addr import AddressMapper
from repro.cache.coherence import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    state_name,
)
from repro.cache.hierarchy import AccessStats, CacheHierarchy
from repro.cache.line import CacheLine, pack_line, unpack_line
from repro.cache.llc import SlicedLLC
from repro.cache.replacement import (
    LruPolicy,
    RandomPolicy,
    make_policy,
)
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache

__all__ = [
    "AccessStats",
    "AddressMapper",
    "CacheGeometry",
    "CacheHierarchy",
    "CacheLine",
    "EXCLUSIVE",
    "INVALID",
    "LruPolicy",
    "MODIFIED",
    "RandomPolicy",
    "SHARED",
    "SlicedLLC",
    "SetAssociativeCache",
    "make_policy",
    "pack_line",
    "state_name",
    "unpack_line",
]
