"""System configuration dataclasses — Table II as executable data.

``TABLE_II`` is the paper's baseline quad-core system;
``TABLE_II_FILTER`` the Auto-Cuckoo filter deployed in it
(l=1024, b=8, f=12, ε≈0.004, secThr=3, MNK=4).  The sensitivity
experiments derive variants with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import SlicedLLC
from repro.cache.set_assoc import CacheGeometry
from repro.filters.auto_cuckoo import AutoCuckooFilter, FilterGeometry
from repro.memory.controller import MemoryController


@dataclass(frozen=True)
class FilterConfig:
    """Auto-Cuckoo filter parameters (Table I notation)."""

    num_buckets: int = 1024          # l
    entries_per_bucket: int = 8      # b
    fingerprint_bits: int = 12       # f
    max_kicks: int = 4               # MNK
    security_threshold: int = 3      # secThr

    def build(self, seed: int = 0, instrument: bool = False) -> AutoCuckooFilter:
        """Instantiate the filter this config describes."""
        return AutoCuckooFilter(
            num_buckets=self.num_buckets,
            entries_per_bucket=self.entries_per_bucket,
            fingerprint_bits=self.fingerprint_bits,
            max_kicks=self.max_kicks,
            security_threshold=self.security_threshold,
            seed=seed,
            instrument=instrument,
        )

    @property
    def geometry(self) -> FilterGeometry:
        return FilterGeometry(
            self.num_buckets, self.entries_per_bucket, self.fingerprint_bits
        )

    def with_size(self, num_buckets: int, entries_per_bucket: int) -> "FilterConfig":
        """The Fig. 8 sensitivity variants: (l, b) pairs."""
        return replace(
            self,
            num_buckets=num_buckets,
            entries_per_bucket=entries_per_bucket,
        )


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level: capacity, associativity, access latency."""

    size_bytes: int
    ways: int
    latency: int

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(self.size_bytes, self.ways)


@dataclass(frozen=True)
class SystemConfig:
    """The full Table II system."""

    num_cores: int = 4
    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(64 * 1024, 4, 2)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(256 * 1024, 8, 18)
    )
    llc: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(4 * 1024 * 1024, 16, 35)
    )
    #: The paper does not name the LLC replacement policy or the
    #: prefetch delay.  ``lru_rand`` (LRU with a randomised 4-deep
    #: victim pool — the bounded imprecision of real tree-PLRU/NRU
    #: LLCs) and a delay of 1500 cycles (past one probe walk, and
    #: comfortably past the evicted line's writeback) reproduce the
    #: paper's Fig. 6 behaviour; ``repro-experiment ablation`` measures
    #: both choices.
    llc_slices: int = 4
    llc_policy: str = "lru_rand"
    dram_latency: int = 200
    filter: FilterConfig = field(default_factory=FilterConfig)
    prefetch_delay: int = 1500
    monitor_enabled: bool = True

    def build_hierarchy(self, seed: int = 0) -> CacheHierarchy:
        """Construct the cache hierarchy this config describes, with no
        defence attached (:func:`repro.cpu.system.build_system` attaches
        one)."""
        llc = SlicedLLC(
            size_bytes=self.llc.size_bytes,
            ways=self.llc.ways,
            num_slices=self.llc_slices,
            policy=self.llc_policy,
            seed=seed,
        )
        mc = MemoryController(dram_latency=self.dram_latency)
        return CacheHierarchy(
            num_cores=self.num_cores,
            l1_geometry=self.l1.geometry,
            l2_geometry=self.l2.geometry,
            llc=llc,
            mc=mc,
            l1_latency=self.l1.latency,
            l2_latency=self.l2.latency,
            llc_latency=self.llc.latency,
            seed=seed,
        )

    def without_monitor(self) -> "SystemConfig":
        """The paper's baseline: same hierarchy, no PiPoMonitor."""
        return replace(self, monitor_enabled=False)


#: The paper's configurations, ready to use.
TABLE_II_FILTER = FilterConfig()
TABLE_II = SystemConfig()

#: Fig. 8's filter-size sweep: (l, b) pairs as listed in Section VII-C.
FIG8_FILTER_SIZES: tuple[tuple[int, int], ...] = (
    (512, 8),
    (1024, 8),
    (1024, 16),
    (2048, 4),
    (2048, 8),
)
