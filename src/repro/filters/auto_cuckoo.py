"""The Auto-Cuckoo filter (Sections IV and V of the paper).

Differences from the classic cuckoo filter:

**Autonomic deletion** (Section V-A).  Insertions never fail.  A new
fingerprint always enters the table; when a relocation chain reaches
MNK relocations, the fingerprint that would need the (MNK+1)-th
relocation is silently evicted instead.  Consequences reproduced here:

* occupancy is monotonically non-decreasing and climbs to 100 % from
  insertion history alone, so a tiny MNK (the paper picks 4) suffices
  (Fig. 3);
* the eventually-evicted record is the endpoint of a random kick walk,
  so an adversary cannot deterministically evict a chosen record
  (Section VI-B, Fig. 7);
* the *monitor protocol* has **no delete operation** — the classic
  filter's false-deletion attack surface does not exist on the
  security path.  (The standalone storage-mode API below does expose
  :meth:`AutoCuckooFilter.delete` for LSM-style workloads, with the
  classic caveat documented there; the monitor never calls it.)

**Security counters** (Section IV, Table I).  Each entry carries a
saturating ``Security`` counter counting re-accesses (``reAccess``).
``access(x)`` implements the Query/Response protocol: a miss inserts a
new entry with Security 0; a hit increments Security (saturating); the
response is the post-access Security value.  PiPoMonitor declares a
Ping-Pong when the response reaches ``secThr``.

The relocation-chain semantics follow Fig. 7's analysis exactly: with
MNK = 0, inserting into a full bucket evicts a random resident; with
MNK = k, a record is evicted only when it is the carried victim after k
relocations, so a reverse-engineered eviction set needs b**(MNK+1)
addresses.

Optional ``instrument=True`` keeps a shadow map of the distinct source
addresses merged into every entry.  This powers Fig. 4 (fingerprint-
collision census) and gives attack experiments ground truth on whether
a *specific address's* record survives (``holds_address``), which
``contains`` cannot answer because of fingerprint collisions.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, repeat

from repro.engine import bind_filter
from repro.filters.hashing import PartialKeyHasher
from repro.utils.bitops import (
    MIX_MULT_1 as _MIX_MULT_1,
    MIX_MULT_2 as _MIX_MULT_2,
)
from repro.utils.rng import derive_seed

_U64 = (1 << 64) - 1

#: Paper defaults (Table II): l=1024, b=8, f=12, secThr=3, MNK=4.
DEFAULT_NUM_BUCKETS = 1024
DEFAULT_ENTRIES_PER_BUCKET = 8
DEFAULT_FINGERPRINT_BITS = 12
DEFAULT_MAX_KICKS = 4
DEFAULT_SECURITY_THRESHOLD = 3

#: Width of the hardware Security counter (Section VII-D: 2 bits).
SECURITY_COUNTER_BITS = 2

#: Relocation budget :meth:`AutoCuckooFilter.from_fpp` defaults to.
#: The hardware monitor wants MNK tiny (Table II picks 4) because
#: autonomic deletions are its feature; a storage-mode filter loaded
#: to 0.84/0.95 of capacity wants the opposite — autonomic deletions
#: there are silent false negatives — so the budget matches classic
#: cuckoo-filter practice (the LSMTreeCuckoo reference uses 500).
DEFAULT_STORAGE_MAX_KICKS = 500

#: Serialization framing for :meth:`AutoCuckooFilter.to_bytes`.
_SERIAL_MAGIC = b"RACF"
_SERIAL_VERSION = 1
#: magic, version, flags, l, b, f, MNK, secThr, seed, lcg,
#: valid_count, autonomic_deletions, total_accesses, total_relocations
_SERIAL_HEADER = struct.Struct("<4sHHIIIIIQQQQQQ")


@dataclass(frozen=True)
class FilterGeometry:
    """The (l, b, f) triple plus derived storage quantities."""

    num_buckets: int
    entries_per_bucket: int
    fingerprint_bits: int

    @property
    def entry_count(self) -> int:
        return self.num_buckets * self.entries_per_bucket

    @property
    def bits_per_entry(self) -> int:
        """fPrint (f) + Security (2) + Valid (1), per Section VII-D."""
        return self.fingerprint_bits + SECURITY_COUNTER_BITS + 1

    @property
    def storage_bits(self) -> int:
        return self.entry_count * self.bits_per_entry

    @property
    def storage_kib(self) -> float:
        return self.storage_bits / 8 / 1024


class AutoCuckooFilter:
    """Hardware-model Auto-Cuckoo filter over integer keys.

    Parameters (Table I / Table II of the paper)
    --------------------------------------------
    num_buckets:
        ``l`` — bucket rows; power of two.
    entries_per_bucket:
        ``b`` — entries per bucket row.
    fingerprint_bits:
        ``f`` — fingerprint width.
    max_kicks:
        MNK — relocation budget before autonomic deletion.
    security_threshold:
        ``secThr`` — Security saturation value; a Response equal to
        this value flags a Ping-Pong line.
    instrument:
        Keep per-entry shadow address sets (testing/measurement only —
        a real hardware filter stores no addresses).

    Engine
    ------
    A filter binds the engine selected when it is built
    (``REPRO_ENGINE``, :func:`repro.engine.bind_filter`), once and for
    life.  Under ``c`` a non-instrumented filter's table is born in
    zeroed C arrays and every operation runs in the C kernels; it holds
    no Python rows.  Otherwise — ``python``, an instrumented filter, or
    a host with no toolchain (which warns once per process) — the
    Python tables are built here and the methods below are the
    reference.  A filter built while ``python`` is selected stays on
    the reference path after a later ``set_engine("c")``, and a
    PiPoMonitor over it takes the C walk's per-event callbacks.
    """

    def __init__(
        self,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        entries_per_bucket: int = DEFAULT_ENTRIES_PER_BUCKET,
        fingerprint_bits: int = DEFAULT_FINGERPRINT_BITS,
        max_kicks: int = DEFAULT_MAX_KICKS,
        security_threshold: int = DEFAULT_SECURITY_THRESHOLD,
        seed: int = 0,
        instrument: bool = False,
    ):
        if entries_per_bucket < 1:
            raise ValueError("entries_per_bucket must be >= 1")
        if max_kicks < 0:
            raise ValueError("max_kicks must be >= 0")
        if security_threshold < 1:
            raise ValueError("security_threshold must be >= 1")
        if security_threshold > (1 << SECURITY_COUNTER_BITS) - 1:
            raise ValueError(
                "security_threshold exceeds the hardware counter range"
            )
        self.hasher = PartialKeyHasher(num_buckets, fingerprint_bits, seed=seed)
        # Bound-method cache for ``_locate``'s wide-fingerprint branch,
        # which runs once per operation: the attribute chase to the
        # hasher costs more than the call itself.
        self._candidate_buckets = self.hasher.candidate_buckets
        self.geometry = FilterGeometry(
            num_buckets, entries_per_bucket, fingerprint_bits
        )
        self.num_buckets = num_buckets
        self.entries_per_bucket = entries_per_bucket
        self._slot_mask = (
            entries_per_bucket - 1
            if entries_per_bucket & (entries_per_bucket - 1) == 0
            else None
        )
        self.max_kicks = max_kicks
        self.security_threshold = security_threshold
        # Victim selection uses an inline 64-bit LCG: the filter sits on
        # the simulator's hottest path (one access per LLC miss) and a
        # full random.Random call per kick dominates the profile.  The
        # LCG mirrors the hardware's cheap LFSR victim picker.
        self._lcg = derive_seed(seed, "auto-cuckoo-victim") | 1
        self.instrumented = instrument
        self._addresses: list[list[set[int] | None]] | None = (
            [[None] * entries_per_bucket for _ in range(num_buckets)]
            if instrument
            else None
        )
        self.valid_count = 0
        self.autonomic_deletions = 0
        self.total_accesses = 0
        self.total_relocations = 0
        # The engine binds once, here, as a ``Core`` binds its access
        # kernel when it is built.  Under ``c`` a non-instrumented
        # filter gets zeroed C arrays in ``_c_state`` and its entry
        # points are rebound on the instance (repro.engine.c_backend);
        # it holds no Python rows, and ``_locate`` (reached only by
        # ``security_of``) takes the hasher's alternate index.
        # Otherwise ``_c_state`` stays None and the Python tables are
        # built on the spot: the fingerprint rows ``_fps``, the
        # Security rows ``_security`` and, for f <= 16, ``_alt_xor``.
        self._alt_xor: list[int] | None = None
        self._c_state = None
        if not bind_filter(self):
            # ``list.copy`` mapped over one zero row builds a table in
            # one C-level pass, ~40 % faster than a comprehension.
            zeros = [0] * entries_per_bucket
            self._fps = list(map(list.copy, repeat(zeros, num_buckets)))
            self._security = list(map(list.copy, repeat(zeros, num_buckets)))
            if fingerprint_bits <= 16:
                # A Python-only memo: the alternate-bucket mix depends
                # only on the f-bit fingerprint, so ``i2 = i1 ^
                # _alt_xor[fp]`` saves the reference path a splitmix64
                # chain per Query and per relocation (the kick walk at
                # saturation is its hottest loop).  The C kernels
                # compute the mix instead.
                alt_index = self.hasher.alt_index
                self._alt_xor = [
                    alt_index(0, fp) for fp in range(1 << fingerprint_bits)
                ]

    # ------------------------------------------------------------------
    # fpp-driven sizing (storage mode)
    # ------------------------------------------------------------------

    @classmethod
    def from_fpp(
        cls,
        item_num: int,
        fpp: float,
        *,
        max_kicks: int = DEFAULT_STORAGE_MAX_KICKS,
        security_threshold: int = DEFAULT_SECURITY_THRESHOLD,
        seed: int = 0,
        instrument: bool = False,
    ) -> "AutoCuckooFilter":
        """Size a filter for ``item_num`` keys at a target false-positive
        rate, LSMTreeCuckoo-style, adapted to this filter's power-of-two
        geometry.

        The classic sizing rule: a loose target (fpp >= 0.2%) takes
        2-entry buckets at a 0.84 load budget, a tight one 4-entry
        buckets at 0.95 (bigger buckets tolerate higher load before
        inserts thrash, at the price of one extra fingerprint of
        collision surface per probe).  The fingerprint width then comes
        from the standard bound eps ~= 2b / 2**f, i.e.
        ``f = ceil(log2(2 b / fpp))`` — which guarantees the *analytic*
        rate ``1 - (1 - 2**-f)**(2b)`` is at or under target.  The
        bucket count is the next power of two covering
        ``item_num / load`` slots (the XOR alternate-index geometry
        requires a power of two), so real occupancy at ``item_num``
        keys lands at or below the load budget.

        The filter binds its engine as it is built (see the class
        docstring): under ``c`` it gets zeroed C rows and no Python
        copies.  Tight targets legitimately derive f > 16 — e.g. fpp =
        1e-4 gives f = 17.  The C kernels take every width (32-bit
        rows, the alternate index computed by the hasher's mix); on the
        reference path a wide filter has no ``_alt_xor`` memo and calls
        the hasher instead.
        """
        if item_num < 1:
            raise ValueError("item_num must be >= 1")
        if not 0.0 < fpp < 1.0:
            raise ValueError("fpp must be in (0, 1)")
        if fpp >= 0.002:
            entries_per_bucket, load = 2, 0.84
        else:
            entries_per_bucket, load = 4, 0.95
        fingerprint_bits = max(
            1, math.ceil(math.log2(2 * entries_per_bucket / fpp))
        )
        if fingerprint_bits > 32:
            raise ValueError(
                f"target fpp={fpp!r} needs {fingerprint_bits}-bit "
                "fingerprints; the hasher supports at most 32"
            )
        slots = math.ceil(item_num / load)
        needed_buckets = -(-slots // entries_per_bucket)  # ceil div
        num_buckets = 1 << (needed_buckets - 1).bit_length()
        return cls(
            num_buckets=num_buckets,
            entries_per_bucket=entries_per_bucket,
            fingerprint_bits=fingerprint_bits,
            max_kicks=max_kicks,
            security_threshold=security_threshold,
            seed=seed,
            instrument=instrument,
        )

    # ------------------------------------------------------------------
    # The Query/Response protocol (Section IV)
    # ------------------------------------------------------------------

    def _locate(self, key: int) -> tuple[int, int, int]:
        """``(ξ_x, µ_x, σ_x)``: the Query's fingerprint and candidate
        buckets, bit-identical to ``hasher.candidate_buckets(key)``.

        The one copy of the Query arithmetic; every operation calls
        it.  The two key-dependent splitmix64 mixes are inlined, and
        for f <= 16 the alternate index is one ``_alt_xor`` lookup
        instead of a third mix.  Wider fingerprints have no table and
        take the hasher's.
        """
        table = self._alt_xor
        if table is None:
            return self._candidate_buckets(key)
        hasher = self.hasher
        fp_mask = hasher._fp_mask
        z = (key + hasher._fp_add) & _U64
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _U64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _U64
        fp = (z ^ (z >> 31)) & fp_mask
        if not fp:
            fp = fp_mask
        z = (key + hasher._index_add) & _U64
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _U64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _U64
        i1 = (z ^ (z >> 31)) & hasher._index_mask
        return fp, i1, i1 ^ table[fp]

    def access(self, key: int) -> int:
        """Record an ``Access`` for ``key``; return the Response.

        The Response is the entry's Security value after this access:
        0 for a fresh insertion, otherwise the saturating re-access
        count.  A Response equal to ``security_threshold`` means the
        line satisfies the Ping-Pong pattern.
        """
        self.total_accesses += 1
        fp, i1, i2 = self._locate(key)
        # --- Query: is a valid entry of ξ_x present in µ_x or σ_x? ---
        # ``in`` guards keep every scan a C-level pass with no
        # exception machinery: the miss path (which dominates — every
        # new line inserts) costs exactly two scans, a hit one guard
        # scan plus the slot-locating ``index``.  (A try/``list.index``
        # single-scan variant measured slower here: saturated inserts
        # raise several ValueErrors per access.)
        fps = self._fps
        row = fps[i1]
        if fp in row:
            index = i1
        else:
            row = fps[i2]
            if fp in row:
                index = i2
            else:
                # --- Miss: insert a fresh entry (never fails). ---
                self._insert_new(key, fp, i1, i2)
                return 0
        slot = row.index(fp)
        sec_row = self._security[index]
        sec = sec_row[slot]
        if sec < self.security_threshold:
            sec += 1
            sec_row[slot] = sec
        if self._addresses is not None:
            entry = self._addresses[index][slot]
            if entry is not None:
                entry.add(key)
        return sec

    def access_many(self, keys) -> int:
        """Record an ``Access`` for every key in ``keys``; return how
        many Responses reached ``security_threshold`` (captures).

        A loop over :meth:`access`, so the table state, counters and
        kick walks are those of the per-key calls by construction.
        A filter bound to ``c`` at build runs it as one C call per batch
        (PERFORMANCE.md rule 17).  Fig. 3/Fig. 4-style insertion
        sweeps and the attack pre-fill loops run through this entry
        point.
        """
        threshold = self.security_threshold
        access = self.access
        return sum(1 for key in keys if access(key) >= threshold)

    def contains(self, key: int) -> bool:
        """Probabilistic membership (subject to fingerprint collisions).
        Read-only; :meth:`query` is the same function."""
        fp, i1, i2 = self._locate(key)
        fps = self._fps
        return fp in fps[i1] or fp in fps[i2]

    def security_of(self, key: int) -> int | None:
        """Current Security of ``key``'s entry, or None when absent.

        Read-only — does not count as an Access.
        """
        fp, i1, i2 = self._locate(key)
        for index in (i1, i2):
            row, sec_row = self._bucket_rows(index)
            if fp in row:
                return sec_row[row.index(fp)]
        return None

    # ------------------------------------------------------------------
    # Storage-mode operations (standalone library API)
    # ------------------------------------------------------------------
    # These are NOT part of the paper's Query/Response protocol — the
    # monitor never calls them.  They are the classic cuckoo-filter
    # surface an LSM-style consumer wants (insert-if-absent, read-only
    # membership, delete), sharing the table, ``_locate`` and the kick
    # walk with the protocol ops so one filter serves both roles.  The
    # ``*_many`` batch forms are plain loops over the scalar ops.
    # A filter bound to ``c`` at build has every one of them rebound to
    # the C kernels, where each batch is one boundary crossing; these
    # bodies are the bit-exact reference.

    def insert(self, key: int) -> bool:
        """Insert ``key`` if no matching fingerprint is present.

        Returns True when a fresh record was placed (never fails —
        a saturated table autonomically deletes, like ``access``).
        Returns False when the fingerprint was already resident, which
        means *either* ``key`` or a colliding address is represented.
        Does not touch Security counters or ``total_accesses``.
        """
        fp, i1, i2 = self._locate(key)
        fps = self._fps
        if fp in fps[i1] or fp in fps[i2]:
            return False
        self._insert_new(key, fp, i1, i2)
        return True

    #: Read-only membership under its storage-mode name.
    query = contains

    def delete(self, key: int) -> bool:
        """Remove one record matching ``key``'s fingerprint.

        Scans the primary bucket's slots in order, then the alternate;
        the first matching slot is cleared (fingerprint, Security, and
        the shadow address set when instrumented).  Returns True when a
        record was removed.  Classic-filter caveat applies: a colliding
        address's record is indistinguishable and may be the one
        deleted — which is exactly the false-deletion surface the paper
        removes from the *monitor* protocol (Section V-A).
        """
        fp, i1, i2 = self._locate(key)
        for index in (i1, i2):
            row = self._fps[index]
            if fp in row:
                slot = row.index(fp)
                row[slot] = 0
                self._security[index][slot] = 0
                if self._addresses is not None:
                    self._addresses[index][slot] = None
                self.valid_count -= 1
                return True
        return False

    def insert_many(self, keys) -> int:
        """:meth:`insert` for every key; returns the fresh-insert count.
        The LSM compaction rebuild is this call on an ``array('Q')``
        run of resident keys."""
        insert = self.insert
        return sum(1 for key in keys if insert(key))

    def query_many(self, keys) -> int:
        """:meth:`query` for every key; returns the maybe-present count."""
        query = self.query
        return sum(1 for key in keys if query(key))

    def delete_many(self, keys) -> int:
        """:meth:`delete` for every key; returns the removed count."""
        delete = self.delete
        return sum(1 for key in keys if delete(key))

    # ------------------------------------------------------------------
    # Insertion with autonomic deletion (Section V-A)
    # ------------------------------------------------------------------

    def _insert_new(self, key: int, fp: int, i1: int, i2: int) -> None:
        # Vacancy checks are ``0 in row`` C-level scans: at steady
        # state the filter is 100% occupied, buckets are full, and the
        # guard fails after one pass with no exception machinery —
        # this loop is the monitor's hottest code after the Query.
        fps = self._fps
        security = self._security
        addresses = self._addresses
        index = -1
        row = fps[i1]
        if 0 in row:
            index = i1
        else:
            row = fps[i2]
            if 0 in row:
                index = i2
        if index >= 0:
            slot = row.index(0)
            row[slot] = fp
            security[index][slot] = 0
            if addresses is not None:
                addresses[index][slot] = {key}
            self.valid_count += 1
            return
        # Both candidate buckets full: start a relocation chain.
        state = self._lcg
        state = (state * 6364136223846793005 + 1442695040888963407) & _U64
        index = i1 if state >> 63 else i2
        carried_fp = fp
        carried_sec = 0
        carried_addrs: set[int] | None = {key} if addresses is not None else None
        relocations = 0
        max_kicks = self.max_kicks
        entries_per_bucket = self.entries_per_bucket
        slot_mask = self._slot_mask
        # At saturation every insert runs the full MNK-kick chain, so
        # for f <= 16 the alternate index is one ``_alt_xor`` lookup;
        # wider fingerprints call the hasher's.
        alt_xor = self._alt_xor
        while True:
            state = (state * 6364136223846793005 + 1442695040888963407) & _U64
            # Power-of-two bucket widths (the Table II default) reduce
            # the slot pick to a mask; the modulo stays for odd b.
            slot = (
                (state >> 33) & slot_mask
                if slot_mask is not None
                else (state >> 33) % entries_per_bucket
            )
            row = fps[index]
            sec_row = security[index]
            carried_fp, row[slot] = row[slot], carried_fp
            carried_sec, sec_row[slot] = sec_row[slot], carried_sec
            if addresses is not None:
                addr_row = addresses[index]
                carried_addrs, addr_row[slot] = addr_row[slot], carried_addrs
            if relocations == max_kicks:
                # Autonomic deletion: the record that would need one
                # more relocation is evicted.  Occupied-slot count is
                # unchanged (the new record took a slot, one was lost).
                self.autonomic_deletions += 1
                self.total_relocations += relocations
                self._lcg = state
                return
            relocations += 1
            if alt_xor is not None:
                index ^= alt_xor[carried_fp]
            else:
                index = self.hasher.alt_index(index, carried_fp)
            row = fps[index]
            if 0 not in row:
                continue
            slot = row.index(0)
            row[slot] = carried_fp
            security[index][slot] = carried_sec
            if addresses is not None:
                addresses[index][slot] = (
                    carried_addrs if carried_addrs is not None else set()
                )
            self.valid_count += 1
            self.total_relocations += relocations
            self._lcg = state
            return

    # ------------------------------------------------------------------
    # Engine seam
    # ------------------------------------------------------------------

    def engine_batch(self):
        """This filter's entry points: the filter itself.

        ``access`` / ``access_many`` / ``insert_many`` / ``query_many``
        / ``delete_many`` (plus the scalar storage ops) are those of the
        engine the filter bound when it was built: the C kernels (one
        boundary crossing per batch) or the reference methods, which
        are bit-identical over the table state.  Nothing binds here; the
        LSM levels, the fpp report and the benchmarks call it to name
        the seam.
        """
        return self

    def _rows(self) -> tuple[list[list[int]], list[list[int]]]:
        """``(fps, security)`` per-bucket rows: the live Python tables,
        or fresh lists from the C arrays of a filter bound to ``c``.
        ``snapshot``, ``to_bytes`` and ``entries`` read the whole table
        through here, ``bucket`` and ``security_of`` one bucket through
        :meth:`_bucket_rows`; the instrumented-only readers use
        ``_fps`` directly, because an instrumented filter never binds
        to ``c``."""
        state = self._c_state
        if state is None:
            return self._fps, self._security
        return state.rows(self.entries_per_bucket)

    def _bucket_rows(self, index: int) -> tuple[list[int], list[int]]:
        """``(fps, security)`` of bucket ``index`` alone: the live
        Python rows, or fresh lists of its ``b`` slots in the C arrays
        (an index out of range raises ``IndexError``, as on a list)."""
        state = self._c_state
        if state is None:
            return self._fps[index], self._security[index]
        return state.row(
            range(self.num_buckets)[index], self.entries_per_bucket
        )

    def snapshot(self) -> dict:
        """Engine-independent structural state (the golden-equivalence
        suites compare engines through this).  The rows are the
        snapshot's own: a copy of the Python tables, or the fresh lists
        a C-bound filter's arrays are read into, taken once."""
        fps, security = self._rows()
        if self._c_state is None:
            fps = [list(row) for row in fps]
            security = [list(row) for row in security]
        return {
            "total_accesses": self.total_accesses,
            "total_relocations": self.total_relocations,
            "autonomic_deletions": self.autonomic_deletions,
            "valid_count": self.valid_count,
            "lcg": self._lcg,
            "fps": fps,
            "security": security,
        }

    # ------------------------------------------------------------------
    # Serialization (canonical, cross-process)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical byte serialization of the complete filter state.

        Layout (all little-endian): a versioned fixed header — magic
        ``RACF``, format version, flags, the (l, b, f, MNK, secThr)
        geometry, the hasher seed, the kick-walk LCG state, and the
        four counters — followed by the fingerprint rows as uint32 and
        the Security rows as uint8, row-major.  ``from_bytes`` of the
        result is state-identical *including* the LCG, so a restored
        filter's kick walks stay in RNG lockstep with the original
        (campaign workers ship filters through checkpoints on this).

        Instrumented filters are refused: shadow address sets are
        measurement scaffolding with no canonical wire form.
        """
        if self.instrumented:
            raise ValueError(
                "instrumented filters carry shadow address sets and "
                "have no canonical serialization"
            )
        seed = self.hasher._seed
        if not 0 <= seed <= _U64:
            raise ValueError("only uint64 hasher seeds serialize")
        if not 0 <= self.max_kicks < (1 << 32):
            raise ValueError("max_kicks out of uint32 range")
        header = _SERIAL_HEADER.pack(
            _SERIAL_MAGIC,
            _SERIAL_VERSION,
            0,
            self.num_buckets,
            self.entries_per_bucket,
            self.hasher.fingerprint_bits,
            self.max_kicks,
            self.security_threshold,
            seed,
            self._lcg,
            self.valid_count,
            self.autonomic_deletions,
            self.total_accesses,
            self.total_relocations,
        )
        rows, security = self._rows()
        fps = array("I", [fp for row in rows for fp in row])
        sec = array("B", [s for row in security for s in row])
        if sys.byteorder == "big":
            fps.byteswap()
        return header + fps.tobytes() + sec.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "AutoCuckooFilter":
        """Rebuild a filter from :meth:`to_bytes` output.

        The stored seed regenerates the hasher salts; the new filter
        binds the selected engine like any other (the class docstring),
        and the rows, counters and LCG are written verbatim into the
        store it was bound to — its Python tables, or its C arrays.  So
        the result is state-identical to the serialized filter and
        every subsequent operation (including kick walks) replays
        bit-exactly, whichever engine wrote the blob.  Works across
        processes and machines of either byte order.

        Raises ValueError on a bad frame and on rows no filter can
        hold: a fingerprint of ``2**f`` or more (the reference kick
        walk indexes the ``_alt_xor`` memo with it), a Security value
        above ``secThr`` or on an empty slot, or a ``valid_count``
        other than the number of occupied slots.
        """
        header_size = _SERIAL_HEADER.size
        if len(data) < header_size:
            raise ValueError("truncated AutoCuckooFilter serialization")
        (
            magic, version, _flags, num_buckets, entries_per_bucket,
            fingerprint_bits, max_kicks, security_threshold, seed, lcg,
            valid_count, autonomic_deletions, total_accesses,
            total_relocations,
        ) = _SERIAL_HEADER.unpack_from(data)
        if magic != _SERIAL_MAGIC:
            raise ValueError("not an AutoCuckooFilter serialization")
        if version != _SERIAL_VERSION:
            raise ValueError(
                f"unsupported serialization version {version}"
            )
        entry_count = num_buckets * entries_per_bucket
        expected = header_size + entry_count * 5
        if len(data) != expected:
            raise ValueError(
                f"serialization length {len(data)} != expected {expected}"
            )
        flt = cls(
            num_buckets=num_buckets,
            entries_per_bucket=entries_per_bucket,
            fingerprint_bits=fingerprint_bits,
            max_kicks=max_kicks,
            security_threshold=security_threshold,
            seed=seed,
        )
        fps = array("I")
        fps.frombytes(data[header_size:header_size + entry_count * 4])
        if sys.byteorder == "big":
            fps.byteswap()
        sec = data[header_size + entry_count * 4:]
        if max(fps, default=0) >= 1 << fingerprint_bits:
            raise ValueError(
                f"fingerprint out of range for {fingerprint_bits}-bit rows"
            )
        if max(sec, default=0) > security_threshold:
            raise ValueError(
                f"Security value above secThr={security_threshold}"
            )
        # Every operation that empties a slot clears its Security too.
        if any(compress(sec, map(operator.not_, fps))):
            raise ValueError("Security value on an empty slot (fp = 0)")
        occupied = entry_count - fps.count(0)
        if valid_count != occupied:
            raise ValueError(
                f"valid_count {valid_count} != {occupied} occupied slots"
            )
        flt.valid_count = valid_count
        flt.autonomic_deletions = autonomic_deletions
        flt.total_accesses = total_accesses
        flt.total_relocations = total_relocations
        flt._lcg = lcg
        state = flt._c_state
        if state is not None:
            state.load(flt, fps, sec)
        else:
            b = entries_per_bucket
            flt._fps = [fps[i:i + b].tolist() for i in range(0, entry_count, b)]
            flt._security = [
                list(sec[i:i + b]) for i in range(0, entry_count, b)
            ]
        return flt

    # ------------------------------------------------------------------
    # Introspection / instrumentation
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total number of entry slots (l × b)."""
        return self.geometry.entry_count

    def occupancy(self) -> float:
        """Fraction of slots holding a valid fingerprint."""
        return self.valid_count / self.capacity

    def entries(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(bucket, slot, fingerprint, security)`` of valid slots."""
        fps, security = self._rows()
        for index, row in enumerate(fps):
            sec_row = security[index]
            for slot, fp in enumerate(row):
                if fp:
                    yield index, slot, fp, sec_row[slot]

    def bucket(self, index: int) -> tuple[int, ...]:
        """Snapshot of one fingerprint bucket row (0 = empty slot)."""
        return tuple(self._bucket_rows(index)[0])

    def entry_address_sets(self) -> Iterator[set[int]]:
        """Shadow address sets of valid entries (instrumented only)."""
        if self._addresses is None:
            raise RuntimeError("filter was not created with instrument=True")
        for index, row in enumerate(self._fps):
            addr_row = self._addresses[index]
            for slot, fp in enumerate(row):
                if fp:
                    entry = addr_row[slot]
                    yield entry if entry is not None else set()

    def holds_address(self, key: int) -> bool:
        """Ground truth: does ``key``'s own record survive?

        Requires instrumentation; distinguishes the target's record
        from a colliding address's record, which ``contains`` cannot.
        """
        if self._addresses is None:
            raise RuntimeError("filter was not created with instrument=True")
        fp, i1, i2 = self._locate(key)
        for index in (i1, i2):
            row = self._fps[index]
            addr_row = self._addresses[index]
            for slot, stored in enumerate(row):
                if stored == fp:
                    entry = addr_row[slot]
                    if entry is not None and key in entry:
                        return True
        return False

    def __contains__(self, key: int) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self.valid_count

    def __repr__(self) -> str:
        return (
            f"AutoCuckooFilter(l={self.num_buckets}, "
            f"b={self.entries_per_bucket}, "
            f"f={self.hasher.fingerprint_bits}, MNK={self.max_kicks}, "
            f"secThr={self.security_threshold}, "
            f"load={self.occupancy():.3f})"
        )
