"""The standalone storage-mode filter surface: from_fpp sizing,
insert/query/delete (scalar and batched), serialization, and the
engine batch seam.

Property-based where the contract is algebraic:

* ``from_fpp`` — power-of-two geometry, analytic fpp under the target,
  capacity covers the item count at the chosen load factor, and the
  measured fpp report stays within tolerance of the target;
* serialization — ``to_bytes``/``from_bytes`` round-trips the complete
  filter state, *including* the kick-walk LCG: the restored filter
  stays in RNG lockstep with the original under any further op stream;
* batching — ``insert_many``/``query_many``/``delete_many`` are
  state-identical to the scalar loops for any key sequence, on every
  available engine (reference loops, C batch kernels);
* the f > 16 regression — ``fingerprint_bits=17`` builds no
  ``_alt_xor`` memo and every surface (access, storage ops, batches,
  serialization) works on the hasher's alternate index; under ``c``
  f = 17 and f = 32 filters bind to the C kernels and stay
  state-identical to the reference through kick walks;
* binding — a filter binds its engine when it is built, so every
  reference twin here is built under ``python`` (``built_under``).
"""

import math
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import available_engines
from repro.engine.c_backend import CFilterState
from repro.filters.auto_cuckoo import _SERIAL_HEADER, AutoCuckooFilter
from repro.filters.metrics import (
    FppReport,
    fpp_report,
    theoretical_false_positive_rate,
)

keys = st.integers(min_value=0, max_value=(1 << 64) - 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
fpps = st.floats(min_value=1e-5, max_value=0.2, allow_nan=False,
                 allow_infinity=False)

SMALL_BUCKETS = 16
SMALL_ENTRIES = 4


def _small(seed, fingerprint_bits=8):
    return AutoCuckooFilter(
        num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
        fingerprint_bits=fingerprint_bits, seed=seed,
    )


def _reframed(flt, fps=None, sec=None, valid_count=None):
    """``flt.to_bytes()`` with the rows or ``valid_count`` replaced,
    framing intact."""
    blob = flt.to_bytes()
    fields = list(_SERIAL_HEADER.unpack_from(blob))
    if valid_count is not None:
        fields[10] = valid_count
    slots = flt.capacity
    body = blob[_SERIAL_HEADER.size:]
    fp_bytes = (struct.pack(f"<{slots}I", *fps) if fps is not None
                else body[:4 * slots])
    sec_bytes = bytes(sec) if sec is not None else body[4 * slots:]
    return _SERIAL_HEADER.pack(*fields) + fp_bytes + sec_bytes


class TestFromFpp:
    @given(item_num=st.integers(1, 200_000), fpp=fpps)
    @settings(max_examples=150, deadline=None)
    def test_geometry_meets_the_analytic_bound(self, item_num, fpp):
        flt = AutoCuckooFilter.from_fpp(item_num, fpp)
        b = flt.entries_per_bucket
        f = flt.hasher.fingerprint_bits
        # Power-of-two bucket count (required by the XOR alternate).
        assert flt.num_buckets & (flt.num_buckets - 1) == 0
        # The snippet-1 regime split.
        assert b == (2 if fpp >= 0.002 else 4)
        # Analytic fpp at the derived fingerprint width is under target.
        assert theoretical_false_positive_rate(b, f) <= fpp
        # ...and f is minimal: one bit fewer would overshoot (except at
        # the f=1 floor).
        if f > 1:
            assert 2 * b / 2.0 ** (f - 1) > fpp
        # Slots cover the item count at the regime's load factor.
        load = 0.84 if b == 2 else 0.95
        assert flt.capacity >= math.ceil(item_num / load)

    @given(item_num=st.integers(1, 50_000), fpp=fpps, seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_sizing_is_seed_independent(self, item_num, fpp, seed):
        a = AutoCuckooFilter.from_fpp(item_num, fpp, seed=seed)
        b = AutoCuckooFilter.from_fpp(item_num, fpp, seed=seed + 1)
        assert (a.num_buckets, a.entries_per_bucket,
                a.hasher.fingerprint_bits) == (
            b.num_buckets, b.entries_per_bucket, b.hasher.fingerprint_bits)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(0, 1e-3)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(100, 0.0)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(100, 1.0)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(100, 1e-12)  # f would exceed 32

    @pytest.mark.parametrize("fpp", [1e-2, 1e-3, 1e-4])
    def test_measured_fpp_meets_target(self, fpp):
        report = fpp_report(20_000, fpp, seed=7, probes=120_000)
        assert isinstance(report, FppReport)
        assert report.analytic_fpp <= fpp
        assert report.meets_target()
        text = report.to_text()
        assert "measured" in text and "analytic" in text

    def test_fpp_1e4_derives_wide_fingerprints(self):
        flt = AutoCuckooFilter.from_fpp(10_000, 1e-4)
        assert flt.hasher.fingerprint_bits == 17
        assert flt._alt_xor is None  # no Python memo above 16 bits


class TestStorageOps:
    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_batched_ops_equal_scalar_loops(self, built_under, seed, batch):
        with built_under("python"):
            scalar = _small(seed)
        batched = _small(seed)
        fresh = sum(1 for key in batch if scalar.insert(key))
        assert batched.insert_many(batch) == fresh
        assert scalar.snapshot() == batched.snapshot()
        hits = sum(1 for key in batch if scalar.query(key))
        assert batched.query_many(batch) == hits
        assert scalar.snapshot() == batched.snapshot()
        removed = sum(1 for key in batch if scalar.delete(key))
        assert batched.delete_many(batch) == removed
        assert scalar.snapshot() == batched.snapshot()

    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=60,
                                      unique=True))
    @settings(max_examples=100, deadline=None)
    def test_no_false_negatives_and_delete_purges(self, seed, batch):
        flt = _small(seed)
        flt.insert_many(batch)
        if flt.autonomic_deletions == 0:
            assert flt.query_many(batch) == len(batch)
        count = flt.valid_count
        removed = flt.delete_many(batch)
        assert flt.valid_count == count - removed
        # Every resident key's fingerprint had at least one match.
        if flt.autonomic_deletions == 0:
            assert removed == count

    def test_delete_clears_security(self):
        flt = _small(4)
        for key in (11, 12):
            for _ in range(3):
                flt.access(key)
            assert flt.security_of(key) == 2
        assert flt.delete(11)
        assert flt.delete_many([12]) == 1
        assert flt.valid_count == 0
        assert not any(s for row in flt.snapshot()["security"] for s in row)

    @given(seed=seeds, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_insert_is_idempotent_on_presence(self, seed, key):
        flt = _small(seed)
        assert flt.insert(key)
        assert not flt.insert(key)
        assert flt.valid_count == 1
        assert flt.query(key)
        assert flt.delete(key)
        assert not flt.delete(key)
        assert flt.valid_count == 0


class TestSerialization:
    @given(seed=seeds,
           ops=st.lists(keys, min_size=1, max_size=150),
           tail=st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=75, deadline=None)
    def test_round_trip_and_rng_lockstep(self, built_under, seed, ops, tail):
        original = _small(seed)
        # A mixed stream: monitor accesses (drive the kick-walk LCG and
        # Security counters) plus storage ops.
        for i, key in enumerate(ops):
            if i % 3 == 0:
                original.insert(key)
            elif i % 3 == 1:
                original.access(key)
            else:
                original.delete(key)
        blob = original.to_bytes()
        # Restored under every engine: ``from_bytes`` writes into the
        # Python tables or the C arrays its filter was bound to.
        restored = []
        for engine in available_engines():
            with built_under(engine):
                restored.append(AutoCuckooFilter.from_bytes(blob))
        for twin in restored:
            assert twin.snapshot() == original.snapshot()
            assert twin.to_bytes() == blob
        # RNG lockstep: identical further op streams keep the twins
        # bit-identical (the serialized LCG state is live, not a copy).
        for key in tail:
            response = original.access(key)
            assert [twin.access(key) for twin in restored] == (
                [response] * len(restored))
        for twin in restored:
            assert twin.snapshot() == original.snapshot()
            assert twin.to_bytes() == original.to_bytes()

    def test_from_bytes_rejects_corrupt_blobs(self):
        flt = _small(3)
        flt.insert_many(range(20))
        blob = flt.to_bytes()
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_bytes(blob[:-1])

    # Well-framed blobs whose rows no filter can hold.  Each is refused
    # at ``from_bytes``; no op runs on the result, because a reference
    # kick walk would index the ``_alt_xor`` memo past its end with an
    # out-of-range fingerprint.

    def test_from_bytes_rejects_out_of_range_fingerprints(self):
        slots = SMALL_BUCKETS * SMALL_ENTRIES
        blob = _reframed(_small(3), fps=[60000] * slots, valid_count=slots)
        with pytest.raises(ValueError, match="fingerprint"):
            AutoCuckooFilter.from_bytes(blob)

    def test_from_bytes_rejects_security_above_threshold(self):
        flt = _small(3)
        flt.insert_many(range(20))
        sec = [0] * (SMALL_BUCKETS * SMALL_ENTRIES)
        sec[0] = flt.security_threshold + 1
        with pytest.raises(ValueError, match="Security"):
            AutoCuckooFilter.from_bytes(_reframed(flt, sec=sec))

    def test_from_bytes_rejects_security_on_an_empty_slot(self):
        flt = _small(3)
        flt.insert_many(range(20))
        empty = next(
            b * SMALL_ENTRIES + slot
            for b in range(SMALL_BUCKETS)
            for slot, fp in enumerate(flt.bucket(b)) if not fp
        )
        sec = [s for row in flt.snapshot()["security"] for s in row]
        sec[empty] = 1
        with pytest.raises(ValueError, match="empty slot"):
            AutoCuckooFilter.from_bytes(_reframed(flt, sec=sec))

    def test_from_bytes_rejects_a_wrong_valid_count(self):
        flt = _small(3)
        flt.insert_many(range(20))
        blob = _reframed(flt, valid_count=flt.valid_count + 1)
        with pytest.raises(ValueError, match="valid_count"):
            AutoCuckooFilter.from_bytes(blob)

    def test_instrumented_filters_refuse_serialization(self):
        flt = AutoCuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            fingerprint_bits=8, seed=1, instrument=True,
        )
        with pytest.raises(ValueError):
            flt.to_bytes()


class TestWideFingerprintRegression:
    """f = 17: no ``_alt_xor`` memo; every surface must take the
    hasher's alternate index and agree with a scalar twin."""

    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_storage_ops_at_f17(self, built_under, seed, batch):
        with built_under("python"):
            scalar = _small(seed, fingerprint_bits=17)
        batched = _small(seed, fingerprint_bits=17)
        assert scalar._alt_xor is None
        fresh = sum(1 for key in batch if scalar.insert(key))
        assert batched.insert_many(batch) == fresh
        hits = sum(1 for key in batch if scalar.query(key))
        assert batched.query_many(batch) == hits
        removed = sum(1 for key in batch if scalar.delete(key))
        assert batched.delete_many(batch) == removed
        assert scalar.snapshot() == batched.snapshot()

    @given(seed=seeds, sequence=st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_access_many_at_f17(self, built_under, seed, sequence):
        with built_under("python"):
            looped = _small(seed, fingerprint_bits=17)
        batched = _small(seed, fingerprint_bits=17)
        threshold = looped.security_threshold
        captures = sum(
            1 for key in sequence if looped.access(key) >= threshold
        )
        assert batched.access_many(sequence) == captures
        assert looped.snapshot() == batched.snapshot()

    def test_serialization_at_f17(self):
        flt = _small(11, fingerprint_bits=17)
        flt.insert_many(range(100))
        restored = AutoCuckooFilter.from_bytes(flt.to_bytes())
        assert restored.snapshot() == flt.snapshot()


#: Filters the batch seam must serve state-identically to a Python
#: twin: the 16x4 f=8 table, the three ``from_fpp`` widths (b=2, f=9;
#: b=4, f=13; b=4, f=17; 4,000 keys load them past 90 % so long kick
#: walks run), a b=3 table, whose kick walk takes the modulo slot pick,
#: and a saturated 256x4 table of the widest fingerprints, f=32.
SEAM_FILTERS = (
    lambda: _small(21),
    lambda: AutoCuckooFilter.from_fpp(1800, 1e-2, seed=21),
    lambda: AutoCuckooFilter.from_fpp(3000, 1e-3, seed=21),
    lambda: AutoCuckooFilter.from_fpp(3000, 1e-4, seed=21),
    lambda: AutoCuckooFilter(
        num_buckets=1024, entries_per_bucket=3, fingerprint_bits=12,
        seed=21),
    lambda: AutoCuckooFilter(
        num_buckets=256, entries_per_bucket=4, fingerprint_bits=32,
        seed=21),
)

SEAM_PAYLOAD = array("Q", (k * 2654435761 % (1 << 40) for k in range(4000)))


def _assert_twins(flt, twin, keys):
    """Every read surface agrees between ``flt`` and its Python twin.

    ``bucket`` and ``security_of`` read every row out of C per call
    under ``c``, so they are sampled: 64 buckets and the given keys.
    """
    assert flt.snapshot() == twin.snapshot()
    assert flt.to_bytes() == twin.to_bytes()
    assert list(flt.entries()) == list(twin.entries())
    step = max(1, twin.num_buckets // 64)
    assert all(flt.bucket(i) == twin.bucket(i)
               for i in range(0, twin.num_buckets, step))
    assert [flt.security_of(k) for k in keys] == [
        twin.security_of(k) for k in keys]


def _require_c():
    if "c" not in available_engines():
        pytest.skip("no C toolchain")


class TestEngineBatchSeam:
    @pytest.mark.parametrize("engine", available_engines())
    def test_batch_views_are_state_identical(self, engine, built_under):
        payload = SEAM_PAYLOAD
        for make in SEAM_FILTERS:
            with built_under("python"):
                reference = make()
            with built_under(engine):
                flt = make()
            batch = flt.engine_batch()
            assert batch is flt
            assert (flt._c_state is not None) == (engine == "c")
            assert reference._c_state is None
            assert batch.insert_many(payload) == reference.insert_many(payload)
            assert reference.total_relocations > 0  # kick walks ran
            assert batch.query_many(payload) == reference.query_many(payload)
            threshold = reference.security_threshold
            captures = sum(
                1 for key in payload if reference.access(key) >= threshold
            )
            assert batch.access_many(payload) == captures
            _assert_twins(flt, reference, payload[:64])
            assert batch.delete_many(payload) == reference.delete_many(payload)
            _assert_twins(flt, reference, payload[:64])

    def test_restored_rows_are_written_into_c(self, built_under):
        """``from_bytes`` under ``c`` writes the rows, counters and LCG
        a Python filter serialized into the new filter's C arrays, and
        the restored filter then tracks its Python twin."""
        _require_c()
        head, tail = SEAM_PAYLOAD[:2500], SEAM_PAYLOAD[2500:]
        for make in SEAM_FILTERS:
            with built_under("python"):
                twin = make()
            twin.insert_many(head)
            with built_under("c"):
                restored = AutoCuckooFilter.from_bytes(twin.to_bytes())
            assert restored._c_state is not None
            assert restored.snapshot() == twin.snapshot()
            threshold = twin.security_threshold
            captures = sum(1 for key in tail if twin.access(key) >= threshold)
            assert restored.access_many(tail) == captures
            _assert_twins(restored, twin, tail[:64])

    @pytest.mark.parametrize("engine", available_engines())
    def test_filter_binds_its_engine_at_build(self, engine, built_under):
        """A filter built under ``c`` holds no Python rows; one built
        under ``python`` holds them from construction, and keeps the
        reference path after ``c`` is selected."""
        with built_under(engine):
            flt = AutoCuckooFilter.from_fpp(32768, 1e-3)
        if engine == "c":
            assert flt._c_state is not None
            assert not hasattr(flt, "_fps")
            assert not hasattr(flt, "_security")
            assert flt._alt_xor is None
        else:
            assert flt._c_state is None
            rows = [[0] * flt.entries_per_bucket] * flt.num_buckets
            assert flt._fps == rows and flt._security == rows
            assert len(flt._alt_xor) == 1 << flt.hasher.fingerprint_bits
        with built_under("c"):
            assert flt.engine_batch() is flt
            assert (flt._c_state is not None) == (engine == "c")
        keys = array("Q", range(1, 4097))
        flt.insert_many(keys)
        assert flt.query_many(keys) == 4096
        assert flt.delete_many(keys) == 4096
        assert flt.valid_count == 0
        assert hasattr(flt, "_fps") == (engine == "python")

    def test_wide_fingerprints_install_into_c(self, built_under):
        """f = 17 and f = 32 take the C kernels like any other width;
        instrumentation is the only per-filter fallback."""
        _require_c()
        for bits in (17, 32):
            with built_under("c"):
                flt = _small(5, fingerprint_bits=bits)
            with built_under("python"):
                twin = _small(5, fingerprint_bits=bits)
            assert flt._c_state is not None
            assert flt.insert_many(range(100)) == twin.insert_many(range(100))
            assert twin.total_relocations > 0
            assert flt.snapshot() == twin.snapshot()

    def test_bucket_and_security_of_read_one_bucket(
        self, built_under, monkeypatch
    ):
        """On a ``from_fpp`` filter built into C, ``bucket`` and
        ``security_of`` equal the Python twin's for every bucket and
        for resident and absent keys, and read only the bucket they
        name: the whole-table read (``CFilterState.rows``) never runs."""
        _require_c()
        resident = array("Q", range(1, 2001))
        absent = array("Q", range(1 << 40, (1 << 40) + 2000))
        with built_under("c"):
            flt = AutoCuckooFilter.from_fpp(2048, 1e-3, seed=3)
        with built_under("python"):
            twin = AutoCuckooFilter.from_fpp(2048, 1e-3, seed=3)
        for f in (flt, twin):
            f.insert_many(resident)
            f.access_many(resident[:600])
            f.access_many(resident[:300])
        assert flt._c_state is not None and twin._c_state is None

        def whole_table(self, b):
            raise AssertionError("read the whole table")

        monkeypatch.setattr(CFilterState, "rows", whole_table)
        for index in range(-1, flt.num_buckets):
            assert flt.bucket(index) == twin.bucket(index)
        with pytest.raises(IndexError):
            flt.bucket(flt.num_buckets)
        seen = [flt.security_of(key) for key in resident + absent]
        assert seen == [twin.security_of(key) for key in resident + absent]
        assert {1, 2} <= set(seen) and None in seen

    def test_c_batch_accepts_plain_lists(self, built_under):
        _require_c()
        with built_under("c"):
            flt = _small(9)
        with built_under("python"):
            twin = _small(9)
        listed = [k * 7 for k in range(500)]
        assert flt.insert_many(listed) == twin.insert_many(listed)
        assert flt.snapshot() == twin.snapshot()
