"""Shared sliced last-level cache.

Table II: 4 MB, 16-way, inclusive, "physically distributed as slices"
— one slice per core, as in commercial parts.  A line's slice is a hash
of its upper line-address bits (so lines sharing a set index can still
live in different slices), and its set within the slice comes from the
low bits.  Both mappings are exposed so attack code can compute
eviction sets — the standard assumption that the adversary has reverse-
engineered the slice hash.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cache.line import CacheLine
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache
from repro.utils.bitops import is_power_of_two, log2_exact

#: Fibonacci multiply-shift constant for the slice hash — one multiply
#: per mapping (the C walk's ``CW_SMULT`` is the same constant).
_SLICE_MULT = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


class SlicedLLC:
    """The shared LLC: ``num_slices`` independent set-associative
    arrays behind a single lookup interface."""

    def __init__(
        self,
        size_bytes: int = 4 * 1024 * 1024,
        ways: int = 16,
        num_slices: int = 4,
        line_size: int = 64,
        policy: str = "lru",
        seed: int = 0,
    ):
        if not is_power_of_two(num_slices):
            raise ValueError("num_slices must be a power of two")
        if size_bytes % num_slices:
            raise ValueError("LLC size must divide evenly across slices")
        self.num_slices = num_slices
        slice_geometry = CacheGeometry(
            size_bytes // num_slices, ways, line_size
        )
        self.slices = [
            SetAssociativeCache(
                slice_geometry, policy=policy, seed=seed + i,
                name=f"llc-slice{i}",
            )
            for i in range(num_slices)
        ]
        self.geometry = slice_geometry
        self.size_bytes = size_bytes
        self.ways = ways
        self._slice_mask = num_slices - 1
        self._set_bits = log2_exact(slice_geometry.num_sets)
        self._slice_shift = 64 - log2_exact(num_slices) if num_slices > 1 else 64

    # ------------------------------------------------------------------
    # Address mapping (public: the attack framework uses it)
    # ------------------------------------------------------------------

    def slice_of(self, line_addr: int) -> int:
        """Slice selected by hashing the bits above the set index."""
        if self.num_slices == 1:
            return 0
        return (
            ((line_addr >> self._set_bits) * _SLICE_MULT) & _U64
        ) >> self._slice_shift

    def set_of(self, line_addr: int) -> int:
        """Set index within the slice (low line-address bits)."""
        return line_addr & ((1 << self._set_bits) - 1)

    def congruent(self, a: int, b: int) -> bool:
        """True when two line addresses compete for the same LLC set."""
        return self.slice_of(a) == self.slice_of(b) and self.set_of(a) == self.set_of(b)

    # ------------------------------------------------------------------
    # Cache operations (delegate to the owning slice)
    # ------------------------------------------------------------------

    def slice_for(self, line_addr: int) -> SetAssociativeCache:
        """The slice array owning ``line_addr``.

        For callers that need several operations on one address's
        slice: grab it once instead of re-hashing the address per
        delegated call.  Every LLC access of the hierarchy's Python
        walk resolves its slice here, so :meth:`slice_of` is the one
        copy of the hash in Python.
        """
        return self.slices[self.slice_of(line_addr)]

    def lookup(self, line_addr: int) -> CacheLine | None:
        return self.slices[self.slice_of(line_addr)].lookup(line_addr)

    def touch(self, line_addr: int) -> None:
        self.slices[self.slice_of(line_addr)].touch(line_addr)

    def insert(self, line_addr: int, version: int = 0) -> tuple[CacheLine, CacheLine | None]:
        return self.slices[self.slice_of(line_addr)].insert(line_addr, version=version)

    def remove(self, line_addr: int) -> CacheLine | None:
        return self.slices[self.slice_of(line_addr)].remove(line_addr)

    def lines(self) -> Iterator[CacheLine]:
        for sl in self.slices:
            yield from sl.lines()

    def set_lines(self, line_addr: int) -> list[CacheLine]:
        """Lines currently resident in ``line_addr``'s LLC set."""
        sl = self.slices[self.slice_of(line_addr)]
        return sl.set_lines(sl.set_index(line_addr))

    def occupancy(self) -> float:
        return sum(sl.resident for sl in self.slices) / (
            self.num_slices * self.geometry.num_lines
        )

    @property
    def evictions(self) -> int:
        # The counter is a plain attribute, so resync the C walk's
        # mirror first, as ``resident`` does for the other readers
        # (that rebuilds the line dicts too; no run path reads this).
        sync = self.slices[0]._c_sync
        if sync is not None:
            sync()
        return sum(sl.evictions for sl in self.slices)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self.slices[self.slice_of(line_addr)]

    def __len__(self) -> int:
        return sum(sl.resident for sl in self.slices)

    def __repr__(self) -> str:
        return (
            f"SlicedLLC({self.size_bytes // (1024 * 1024)} MiB, "
            f"{self.ways}-way, {self.num_slices} slices)"
        )
