"""LSM-tree-shaped key workloads for the standalone Auto-Cuckoo filter.

An LSM tree keeps one membership filter in front of every on-disk
level so point reads can skip levels that cannot hold the key — the
``humberto5213/LSMTreeCuckoo`` idiom behind ``from_fpp``.  This module
reproduces that *filter workload*, not the storage engine: levels keep
only their resident key runs (``array('Q')``) so compactions can
rebuild filters; gets, deletes, and compactions drive the filters
themselves through their batch entry points (``engine_batch()``).  Each
level's filter binds the engine ``REPRO_ENGINE`` selects when the level
is built — C batch kernels or the reference loops — with bit-identical
state.

Key streams are fully deterministic:

* **ranks** come from :class:`ZipfRanks`, the continuous inverse-CDF
  approximation of a Zipf(theta) law (the standard cheap stand-in for
  YCSB's zipfian generator), driven by a splitmix64 stream;
* **resident keys** live in the even half of the uint64 key space
  (:func:`resident_key`) and **negative probes** in the odd half
  (:func:`probe_key`), both scattered through ``mix64`` — a probe can
  never be a resident key, so every filter positive on the probe
  stream is a false positive by construction and measured fpp needs no
  ground-truth set even at tens of millions of keys.

Deletion semantics are the *filter purge* model: ``delete_many``
removes matching fingerprints from every level's filter (exercising
the classic delete path the monitor protocol bans), while the resident
runs keep the keys — so a compaction's bulk rebuild restores any
purged-but-resident records, like a store whose tombstones have not
merged down yet.  The model is tombstone-free on purpose: it keeps
every level's filter state a pure function of the operation stream,
which is what the conformance goldens pin.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field

from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.utils.bitops import GOLDEN_GAMMA, mix64
from repro.utils.rng import derive_seed

_U64 = (1 << 64) - 1
_HALF_MASK = (1 << 63) - 1
_F53 = 2.0 ** -53


def resident_key(rank: int, salt: int) -> int:
    """The key for ``rank`` in the even half of the uint64 space."""
    return (mix64(rank, salt=salt) & _HALF_MASK) << 1


def probe_key(index: int, salt: int) -> int:
    """A never-resident probe key (odd half of the uint64 space)."""
    return ((mix64(index, salt=salt) & _HALF_MASK) << 1) | 1


def filter_state_digest(flt: AutoCuckooFilter) -> str:
    """SHA-256 over the engine-independent snapshot — a fixed-size
    stand-in for full row dumps in golden fixtures."""
    snap = flt.snapshot()
    payload = json.dumps(snap, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class ZipfRanks:
    """Deterministic zipf-skewed rank stream.

    Inverse-CDF sampling of the continuous power law ``pdf(x) ~ x**-theta``
    on ``[1, n+1)`` with ``theta in (0, 1)``; ``rank = floor(x) - 1``,
    so rank 0 is the hottest.  Uniform variates come from a splitmix64
    counter stream, so the sequence is a pure function of the seed (and
    survives checkpoint replay byte-for-byte).
    """

    def __init__(self, theta: float = 0.8, seed: int = 0):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.theta = theta
        self._exp = 1.0 / (1.0 - theta)
        self._state = derive_seed(seed, "lsm-zipf")

    def draw(self, count: int, n: int) -> list[int]:
        """``count`` ranks in ``[0, n)``."""
        if n < 1:
            raise ValueError("n must be >= 1")
        state = self._state
        exp = self._exp
        span = float(n + 1) ** (1.0 - self.theta) - 1.0
        ranks = []
        append = ranks.append
        for _ in range(count):
            state = (state + GOLDEN_GAMMA) & _U64
            u = (mix64(state) >> 11) * _F53
            rank = int((1.0 + u * span) ** exp) - 1
            append(rank if rank < n else n - 1)
        self._state = state
        return ranks


@dataclass
class _Level:
    """One LSM level: capacity budget, resident key run, and the
    ``from_fpp``-sized filter (plus its engine batch view)."""

    depth: int
    capacity: int
    generation: int
    filter: AutoCuckooFilter
    batch: object
    keys: array = field(default_factory=lambda: array("Q"))


class LSMFilterTree:
    """A stack of levels, each fronted by a ``from_fpp``-sized filter.

    Write path: ``put_many`` buffers keys in a memtable; every
    ``memtable_size`` keys flush to level 0 as one ``insert_many``
    batch.  A level over its capacity compacts into the next: the key
    runs concatenate and the destination filter is **rebuilt from
    scratch** (fresh generation seed, one bulk ``insert_many``) — the
    compaction-style rebuild a real LSM performs — while the source
    level resets empty.  The bottom level is unbounded.

    Read path: ``get_many`` probes every level's filter with the batch
    (the worst-case all-level probe; a real read stops at the first
    resident level).  ``false_positive_counts`` probes the odd key
    space, where every positive is false by construction.

    Per-level filter seeds derive from ``(seed, depth, generation)``,
    so every rebuild re-hashes with fresh salts and the whole tree is
    a deterministic function of ``(construction params, op stream)``.
    """

    def __init__(
        self,
        *,
        memtable_size: int = 8192,
        fanout: int = 4,
        levels: int = 4,
        fpp: float = 1e-3,
        seed: int = 0,
    ):
        if memtable_size < 1:
            raise ValueError("memtable_size must be >= 1")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.memtable_size = memtable_size
        self.fanout = fanout
        self.fpp = fpp
        self.seed = seed
        self._memtable = array("Q")
        self._levels = [self._fresh_level(d, 0) for d in range(levels)]
        self.puts = 0
        self.flushes = 0
        self.compactions = 0
        self.rebuilt_keys = 0
        self.fresh_inserts = 0
        self.deletes_removed = 0

    def _fresh_level(self, depth: int, generation: int) -> _Level:
        capacity = self.memtable_size * self.fanout ** (depth + 1)
        flt = AutoCuckooFilter.from_fpp(
            capacity, self.fpp,
            seed=derive_seed(self.seed, "lsm-level", depth, generation),
        )
        return _Level(
            depth=depth, capacity=capacity, generation=generation,
            filter=flt, batch=flt.engine_batch(),
        )

    @property
    def levels(self) -> list[_Level]:
        return self._levels

    # -- write path ----------------------------------------------------

    def put_many(self, keys) -> None:
        """Buffer ``keys``; flush full memtables to level 0."""
        mem = self._memtable
        before = len(mem)
        mem.extend(keys)
        self.puts += len(mem) - before
        size = self.memtable_size
        while len(mem) >= size:
            self._flush(mem[:size])
            del mem[:size]

    def flush_pending(self) -> None:
        """Flush a partial memtable (end of a load phase)."""
        mem = self._memtable
        if mem:
            self._flush(mem)
            del mem[:]

    def _flush(self, batch: array) -> None:
        level0 = self._levels[0]
        self.fresh_inserts += level0.batch.insert_many(batch)
        level0.keys.extend(batch)
        self.flushes += 1
        self._compact_overflow(0)

    def _compact_overflow(self, depth: int) -> None:
        levels = self._levels
        while depth < len(levels) - 1:
            level = levels[depth]
            if len(level.keys) <= level.capacity:
                return
            nxt = levels[depth + 1]
            merged = nxt.keys + level.keys
            rebuilt = self._fresh_level(depth + 1, nxt.generation + 1)
            rebuilt.keys = merged
            rebuilt.batch.insert_many(merged)
            self.rebuilt_keys += len(merged)
            levels[depth + 1] = rebuilt
            levels[depth] = self._fresh_level(depth, level.generation + 1)
            self.compactions += 1
            depth += 1
        # The bottom level absorbs everything (unbounded).

    # -- read / delete path --------------------------------------------

    def get_many(self, keys) -> list[int]:
        """Per-level maybe-present counts for the key batch."""
        return [level.batch.query_many(keys) for level in self._levels]

    def delete_many(self, keys) -> int:
        """Purge matching fingerprints from every level's filter;
        returns the total records removed (see the module docstring
        for the tombstone-free semantics)."""
        removed = 0
        for level in self._levels:
            removed += level.batch.delete_many(keys)
        self.deletes_removed += removed
        return removed

    def false_positive_counts(self, probes: int) -> list[int]:
        """Per-level false-positive counts over ``probes`` keys from
        the never-resident odd key space."""
        salt = derive_seed(self.seed, "lsm-probes")
        batch = array("Q", (probe_key(i, salt) for i in range(probes)))
        return self.get_many(batch)

    # -- accounting ----------------------------------------------------

    def stats(self) -> dict:
        """Deterministic (engine-independent, timing-free) tree state."""
        per_level = []
        for level in self._levels:
            flt = level.filter
            per_level.append({
                "depth": level.depth,
                "capacity": level.capacity,
                "generation": level.generation,
                "resident_keys": len(level.keys),
                "geometry": {
                    "num_buckets": flt.num_buckets,
                    "entries_per_bucket": flt.entries_per_bucket,
                    "fingerprint_bits": flt.hasher.fingerprint_bits,
                },
                "valid_count": flt.valid_count,
                "occupancy": round(flt.occupancy(), 6),
                "autonomic_deletions": flt.autonomic_deletions,
                "total_relocations": flt.total_relocations,
            })
        return {
            "puts": self.puts,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "rebuilt_keys": self.rebuilt_keys,
            "fresh_inserts": self.fresh_inserts,
            "deletes_removed": self.deletes_removed,
            "memtable_pending": len(self._memtable),
            "levels": per_level,
        }

    def filter_digests(self) -> list[str]:
        """Per-level filter-state digests (golden-fixture sized)."""
        return [filter_state_digest(level.filter) for level in self._levels]
