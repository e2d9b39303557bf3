"""Generic set-associative cache array over packed line words.

Pure bookkeeping: lookup/insert/remove plus replacement.  Coherence,
inclusion, and writeback *policy* live in the hierarchy; this class
only reports the victim line it had to evict on an insertion into a
full set.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.cache.line import VERSION_SHIFT, CacheLine
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.utils.bitops import is_power_of_two


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line-size triple with derived quantities."""

    size_bytes: int
    ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ValueError("size and ways must be positive")
        if not is_power_of_two(self.line_size):
            raise ValueError("line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_size):
            raise ValueError("size must be divisible by ways*line_size")
        if not is_power_of_two(self.num_sets):
            raise ValueError(
                f"geometry yields {self.num_sets} sets; must be a power of two"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


class SetAssociativeCache:
    """One cache array (an L1, an L2, or one LLC slice).

    Lines are keyed by full line address within each set, so tags are
    implicit and exact.

    Hot-path contract: a resident line is **two plain ints** — its
    packed word (flags/state/sharers/version; see
    :mod:`repro.cache.line`) in the flat ``_map``, and its replacement
    stamp in the owning per-set dict of ``_sets``.  The hit path is a
    single ``_map`` membership probe; an LRU touch is one int store
    into the (small, CPU-cache-hot) set dict; a fill builds one word
    int — **no objects are allocated on hits, touches, fills, or
    evictions**.  The hierarchy mutates words in place through
    ``_map``, fills through :meth:`_fill`, stamps hits through
    :meth:`touch` and removes through :meth:`_remove_word` (a
    ``clflush`` pops the victim's stamp as well); the C walk's install
    and sync read and rebuild ``_map``, ``_sets``, ``_set_mask``,
    ``_stamp`` and ``_touch_stamps``, so those are a stable internal
    interface.  Every fill stamps; the
    :class:`ReplacementPolicy` decides only whether hits stamp and,
    for non-min-stamp policies, which address of a full set goes
    (``victim_addr``).  Both indices are mutated only by the
    fill/remove pair, which keeps them consistent by construction.

    The object-level API (``lookup``/``lines``/``set_lines`` and the
    victims of ``insert``/``remove``) returns detached
    :class:`CacheLine` snapshots: writing to one never changes the
    array.
    """

    __slots__ = (
        "geometry",
        "name",
        "num_sets",
        "ways",
        "_set_mask",
        "_sets",
        "_map",
        "policy",
        "_victim_addr",
        "_victim_is_min_stamp",
        "_touch_stamps",
        "_stamp",
        "hits",
        "misses",
        "evictions",
        "_c_sync",
    )

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str | ReplacementPolicy = "lru",
        seed: int = 0,
        name: str = "cache",
    ):
        self.geometry = geometry
        self.name = name
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self._set_mask = self.num_sets - 1
        #: Per-set dicts: line address -> replacement stamp.  Ground
        #: truth for victim selection (the scan stays inside one small,
        #: CPU-cache-hot dict); key order mirrors fill order, which
        #: the random policy's draw relies on for reproducibility.
        self._sets: list[dict[int, int]] = [{} for _ in range(self.num_sets)]
        #: Flat index: line address -> packed line word.
        self._map: dict[int, int] = {}
        if isinstance(policy, str):
            policy = make_policy(policy, seed=seed)
        self.policy = policy
        self._victim_addr = policy.victim_addr
        self._victim_is_min_stamp = policy.victim_is_min_stamp
        self._touch_stamps = policy.touch_stamps
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Set by the C cache walk (repro.engine.c_cache) to the
        #: hierarchy-wide line rebuild (``CWalkState.sync_lines``).
        #: While installed, ``_map`` / ``_sets`` are a mirror of the C
        #: arrays that a sync only marks stale: the read APIs below
        #: call this first so they always observe current state (the
        #: first read after a run rebuilds the dicts), and the
        #: object-level mutators (``insert``/``remove``/``touch``/
        #: ``probe``) refuse, since a write to the mirror would never
        #: reach C.  The packed mutators (``_fill``/``_remove_word``)
        #: are *not* guarded — with the walk in C, nothing routes to
        #: them.
        self._c_sync = None

    # ------------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        """Set selected by the low line-address bits."""
        return line_addr & self._set_mask

    def _refuse_mirror_write(self) -> None:
        """Raise when the C walk owns this array (see ``_c_sync``)."""
        if self._c_sync is not None:
            raise RuntimeError(
                f"{self.name}: the C cache walk owns this array; its "
                "Python dicts are a read-only mirror"
            )

    def _snapshot(self, line_addr: int) -> CacheLine:
        return CacheLine(
            line_addr,
            self._map[line_addr],
            self._sets[line_addr & self._set_mask][line_addr],
        )

    def lookup(self, line_addr: int) -> CacheLine | None:
        """Return a snapshot of the resident line or None.  Does not
        update recency (callers decide whether an operation counts as a
        use)."""
        if self._c_sync is not None:
            self._c_sync()
        if line_addr in self._map:
            return self._snapshot(line_addr)
        return None

    def probe(self, line_addr: int) -> bool:
        """Presence check with hit/miss accounting."""
        self._refuse_mirror_write()
        if line_addr in self._map:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def touch(self, line_addr: int) -> None:
        """Record a use of resident ``line_addr`` for the replacement
        policy."""
        self._refuse_mirror_write()
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr not in cache_set:
            raise KeyError(f"{self.name}: touch of absent line {line_addr:#x}")
        stamp = self._stamp + 1
        self._stamp = stamp
        if self._touch_stamps:
            cache_set[line_addr] = stamp

    # ------------------------------------------------------------------
    # Packed fill/remove (the hierarchy's interface)
    # ------------------------------------------------------------------

    def _fill(self, line_addr: int, word: int) -> tuple[int | None, int, int]:
        """Insert packed ``word``; return the evicted
        ``(victim_addr, victim_word, victim_stamp)`` (addr None when
        the set had space).

        The victim is removed from both indices before the new line is
        placed; the caller must handle its writeback/invalidation
        obligations.  Inserting an already-present address is an error
        (callers must lookup first).  Allocates nothing but the word
        ints themselves.
        """
        index = line_addr & self._set_mask
        cache_set = self._sets[index]
        if line_addr in cache_set:
            raise ValueError(
                f"{self.name}: duplicate insert of line {line_addr:#x}"
            )
        victim_addr = None
        victim_word = 0
        victim_stamp = 0
        if len(cache_set) >= self.ways:
            if self._victim_is_min_stamp:
                victim_addr = min(cache_set, key=cache_set.__getitem__)
            else:
                victim_addr = self._victim_addr(cache_set)
            victim_stamp = cache_set.pop(victim_addr)
            victim_word = self._map.pop(victim_addr)
            self.evictions += 1
        stamp = self._stamp + 1
        self._stamp = stamp
        self._map[line_addr] = word
        cache_set[line_addr] = stamp
        return victim_addr, victim_word, victim_stamp

    def _remove_word(self, line_addr: int) -> int | None:
        """Remove a resident line; return its packed word (None when
        absent).  The stamp is discarded — eviction/invalidation paths
        never read it."""
        word = self._map.pop(line_addr, None)
        if word is not None:
            del self._sets[line_addr & self._set_mask][line_addr]
        return word

    # ------------------------------------------------------------------
    # Object-level compatibility API (tests, attacks, examples)
    # ------------------------------------------------------------------

    def insert(
        self, line_addr: int, version: int = 0
    ) -> tuple[CacheLine, CacheLine | None]:
        """Fill ``line_addr``; return snapshots ``(new_line,
        evicted_line)`` (victim None when the set had space)."""
        self._refuse_mirror_write()
        victim_addr, victim_word, victim_stamp = self._fill(
            line_addr, version << VERSION_SHIFT
        )
        victim = (
            CacheLine(victim_addr, victim_word, victim_stamp)
            if victim_addr is not None
            else None
        )
        return self._snapshot(line_addr), victim

    def remove(self, line_addr: int) -> CacheLine | None:
        """Remove and return a detached line (None when absent)."""
        self._refuse_mirror_write()
        word = self._map.pop(line_addr, None)
        if word is None:
            return None
        stamp = self._sets[line_addr & self._set_mask].pop(line_addr)
        return CacheLine(line_addr, word, stamp)

    def lines(self) -> Iterator[CacheLine]:
        """Iterate snapshots of every resident line."""
        if self._c_sync is not None:
            self._c_sync()
        for cache_set in self._sets:
            for addr in cache_set:
                yield self._snapshot(addr)

    def set_lines(self, index: int) -> list[CacheLine]:
        """Snapshots of one set's resident lines."""
        if self._c_sync is not None:
            self._c_sync()
        return [self._snapshot(addr) for addr in self._sets[index]]

    @property
    def resident(self) -> int:
        """Number of resident lines, O(1).

        ``len`` of the flat index replaces a walk over every set — and,
        unlike a hand-maintained counter, cannot drift from the
        ground-truth structures.
        """
        if self._c_sync is not None:
            self._c_sync()
        return len(self._map)

    def occupancy(self) -> float:
        """Fraction of line slots in use (O(1))."""
        if self._c_sync is not None:
            self._c_sync()
        return len(self._map) / (self.num_sets * self.ways)

    def __contains__(self, line_addr: int) -> bool:
        if self._c_sync is not None:
            self._c_sync()
        return line_addr in self._map

    def __len__(self) -> int:
        if self._c_sync is not None:
            self._c_sync()
        return len(self._map)

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name}, "
            f"{self.geometry.size_bytes // 1024} KiB, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )
