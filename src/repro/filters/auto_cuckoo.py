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
import struct
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

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


class _BuiltOnFirstRead:
    """A filter table built on first read.

    A non-data descriptor: an instance attribute of the same name
    shadows it, so it runs only while the table is missing.  The first
    read calls ``build(flt, flt._c_state)``, which stores the table as
    a plain instance attribute; every later read (every hot path) finds
    that attribute, with no call and no per-read check.  On CPython
    3.11 loads of the three table names stay unspecialised all the
    same, which costs the per-key python ``access`` loop 5-13 %.  A
    ``__getattr__`` hook would also run only on a miss, but defining
    one stops the specialisation of *every* attribute load on the
    class (about 3x slower per read).  A half-built instance
    (``__new__`` without ``__init__``) has no ``_c_state`` and raises
    AttributeError.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, flt, owner=None):
        if flt is None:
            return self
        try:
            state = flt._c_state
        except AttributeError:
            raise AttributeError(
                f"{type(flt).__name__!r} object has no attribute "
                f"{self.name!r}"
            ) from None
        self.build(flt, state)
        return getattr(flt, self.name)


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
        # The tables power up empty and are built on first read (see
        # ``_BuiltOnFirstRead``): the fingerprint rows ``_fps``, the
        # Security rows ``_security`` and, for f <= 16, the Python-only
        # ``_alt_xor`` memo.  Under ``c`` the C arrays own the rows and
        # C computes the alternate index, so a filter the kernels serve
        # never builds the Python copies at all.  Wide fingerprints
        # have no memo: ``_locate`` and the kick walk call the hasher.
        if fingerprint_bits > 16:
            self._alt_xor: list[int] | None = None
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
        # REPRO_ENGINE=c rebinds access/access_many on the instance and
        # parks the authoritative table in C arrays here (see
        # repro.engine.c_backend); None means the Python lists are
        # authoritative.  Set last: an instance without it is
        # half-built, and its tables cannot be read.
        self._c_state = None

    def _build_rows(self, state) -> None:
        # The fingerprint and Security rows come as a pair.
        l, b = self.num_buckets, self.entries_per_bucket
        if state is not None:
            self._fps, self._security = state.rows(l, b)
        else:
            self._fps = [[0] * b for _ in range(l)]
            self._security = [[0] * b for _ in range(l)]

    def _build_alt_xor(self, _state) -> None:
        # A Python-only memo: the alternate-bucket mix depends only on
        # the f-bit fingerprint, so ``i2 = i1 ^ _alt_xor[fp]`` saves the
        # reference path a splitmix64 chain per Query and per
        # relocation (the kick walk at saturation is its hottest loop).
        # The C kernels compute the mix instead.
        alt_index = self.hasher.alt_index
        self._alt_xor = [
            alt_index(0, fp) for fp in range(1 << self.hasher.fingerprint_bits)
        ]

    _fps = _BuiltOnFirstRead(_build_rows)
    _security = _BuiltOnFirstRead(_build_rows)
    _alt_xor = _BuiltOnFirstRead(_build_alt_xor)

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

        Construction allocates no table: the rows and the Python-only
        ``_alt_xor`` memo are built on first read, so under ``c`` a
        filter handed straight to :meth:`engine_batch` gets zeroed C
        rows and never builds the Python copies.  Tight targets
        legitimately derive f > 16 — e.g. fpp = 1e-4 gives f = 17.  The
        C kernels take every width (32-bit rows, the alternate index
        computed by the hasher's mix); on the reference path a wide
        filter has no ``_alt_xor`` memo and calls the hasher instead.
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
        Under ``c`` the install rebinds it to one C call per batch
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
            row = self._fps[index]
            if fp in row:
                return self._security[index][row.index(fp)]
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
    # Under REPRO_ENGINE=c the install rebinds every one of them to the
    # C kernels, where each batch is one boundary crossing; these
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
        """The entry points under the selected engine
        (``REPRO_ENGINE``), the only route into the C kernels.

        Returns an object exposing ``access`` / ``access_many`` /
        ``insert_many`` / ``query_many`` / ``delete_many`` (plus the
        scalar storage ops): this filter itself, under ``c`` with the C
        kernels installed (one boundary crossing per batch), otherwise
        with its own reference implementations.  Both are
        bit-identical over the table state.
        """
        from repro.engine import filter_batch

        return filter_batch(self)

    def _sync_rows_from_c(self) -> None:
        """Refresh ``_fps``/``_security`` from the C arrays (no-op when
        the Python lists are authoritative, or were never built — the
        first read then builds them from C).  Row *contents* are
        replaced in place so closures holding the outer lists stay
        valid."""
        state = self._c_state
        if state is None or "_fps" not in self.__dict__:
            return
        fps, sec = state.rows(self.num_buckets, self.entries_per_bucket)
        for row, fresh in zip(self._fps, fps):
            row[:] = fresh
        for row, fresh in zip(self._security, sec):
            row[:] = fresh

    def snapshot(self) -> dict:
        """Engine-independent structural state (the golden-equivalence
        suites compare engines through this)."""
        self._sync_rows_from_c()
        return {
            "total_accesses": self.total_accesses,
            "total_relocations": self.total_relocations,
            "autonomic_deletions": self.autonomic_deletions,
            "valid_count": self.valid_count,
            "lcg": self._lcg,
            "fps": [list(row) for row in self._fps],
            "security": [list(row) for row in self._security],
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
        self._sync_rows_from_c()
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
        fps = array("I", [fp for row in self._fps for fp in row])
        sec = array("B", [s for row in self._security for s in row])
        if sys.byteorder == "big":
            fps.byteswap()
        return header + fps.tobytes() + sec.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "AutoCuckooFilter":
        """Rebuild a filter from :meth:`to_bytes` output.

        The stored seed regenerates the hasher salts and ``_alt_xor``
        table; rows, counters, and the LCG are restored verbatim, so
        the result is state-identical to the serialized filter and
        every subsequent operation (including kick walks) replays
        bit-exactly.  Works across processes and machines of either
        byte order.

        Raises ValueError on a bad frame and on rows no filter can
        hold: a fingerprint of ``2**f`` or more (the reference kick
        walk indexes the ``_alt_xor`` memo with it), a Security value
        above ``secThr``, or a ``valid_count`` other than the number of
        occupied slots.
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
        occupied = entry_count - fps.count(0)
        if valid_count != occupied:
            raise ValueError(
                f"valid_count {valid_count} != {occupied} occupied slots"
            )
        b = entries_per_bucket
        flt._fps = [fps[i:i + b].tolist() for i in range(0, entry_count, b)]
        flt._security = [list(sec[i:i + b]) for i in range(0, entry_count, b)]
        flt.valid_count = valid_count
        flt.autonomic_deletions = autonomic_deletions
        flt.total_accesses = total_accesses
        flt.total_relocations = total_relocations
        flt._lcg = lcg
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
        for index, row in enumerate(self._fps):
            sec_row = self._security[index]
            for slot, fp in enumerate(row):
                if fp:
                    yield index, slot, fp, sec_row[slot]

    def bucket(self, index: int) -> tuple[int, ...]:
        """Snapshot of one fingerprint bucket row (0 = empty slot)."""
        return tuple(self._fps[index])

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
