"""Property-based (Hypothesis) tests for the cuckoo filters.

Three families:

* hashing — the partial-key alternate index is an involution
  (``alt(alt(i, fp), fp) == i``) for any seed, and the Auto-Cuckoo
  filter's Python-only XOR memo is bit-identical to the hasher for
  every f <= 16 and bucket count up to 2**16, and so is its Query
  (``_locate``) for every f in 1..32 (both on filters built under
  ``python``, the engine that keeps the memo); a filter built into C
  stores every key's fingerprint in a bucket the hasher names, at
  every f in 1..32;
* classic :class:`CuckooFilter` — insert/query/delete round-trips:
  no false negatives while resident, delete removes exactly one
  matching record, occupancy bookkeeping stays consistent;
* :class:`AutoCuckooFilter` — ``access_many`` is state-identical to
  looped ``access`` on a reference twin built under ``python``, for
  any key sequence, responses saturate at
  ``secThr``, occupancy is monotone and never exceeds capacity.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import available_engines
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.hashing import PartialKeyHasher
from repro.utils.rng import derive_seed

#: Filter-sized integers: line addresses are 64-bit-ish keys.
keys = st.integers(min_value=0, max_value=(1 << 48) - 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: Small geometries saturate quickly, exercising kicks and deletions.
SMALL_BUCKETS = 16
SMALL_ENTRIES = 4


@functools.cache
def _locate_filter(
    built_under, fingerprint_bits: int, log_buckets: int
) -> AutoCuckooFilter:
    """One reference filter per geometry, built under ``python`` (the
    engine that builds the ``_alt_xor`` memo), so the memo is built
    once rather than once per Hypothesis example."""
    with built_under("python"):
        return AutoCuckooFilter(
            num_buckets=1 << log_buckets, entries_per_bucket=1,
            fingerprint_bits=fingerprint_bits,
            seed=derive_seed(fingerprint_bits, "locate", log_buckets),
        )


class TestAltIndexInvolution:
    @given(seed=seeds, index=st.integers(0, SMALL_BUCKETS - 1),
           fingerprint=st.integers(1, (1 << 12) - 1))
    @settings(max_examples=200, deadline=None)
    def test_alt_index_is_an_involution(self, seed, index, fingerprint):
        hasher = PartialKeyHasher(SMALL_BUCKETS, 12, seed=seed)
        alt = hasher.alt_index(index, fingerprint)
        assert 0 <= alt < SMALL_BUCKETS
        assert hasher.alt_index(alt, fingerprint) == index

    @given(seed=seeds, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_candidate_buckets_are_mutual_alternates(self, seed, key):
        hasher = PartialKeyHasher(64, 10, seed=seed)
        fp, i1, i2 = hasher.candidate_buckets(key)
        assert hasher.alt_index(i1, fp) == i2
        assert hasher.alt_index(i2, fp) == i1
        assert 1 <= fp <= (1 << 10) - 1

    @pytest.mark.parametrize("fingerprint_bits", range(1, 17))
    def test_precomputed_xor_table_matches_hasher(
        self, built_under, fingerprint_bits
    ):
        # Every bucket count 2**0..2**16, each filter on its own seed.
        # The table is a Python-only memo (the C kernels compute the
        # mix), built with the rows by a filter built under ``python``.
        for log_buckets in range(17):
            with built_under("python"):
                fltr = AutoCuckooFilter(
                    num_buckets=1 << log_buckets, entries_per_bucket=1,
                    fingerprint_bits=fingerprint_bits,
                    seed=derive_seed(fingerprint_bits, "alt-xor", log_buckets),
                )
            alt_index = fltr.hasher.alt_index
            assert fltr._alt_xor == [
                alt_index(0, fp) for fp in range(1 << fingerprint_bits)
            ]

    @pytest.mark.parametrize("fingerprint_bits", range(1, 33))
    @given(key=st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=40, deadline=None)
    def test_locate_matches_hasher(self, built_under, fingerprint_bits, key):
        # ``_locate`` reads the ``_alt_xor`` table for f <= 16 and the
        # hasher's alternate index above it; both branches must equal
        # the reference hasher, whatever the bucket count.
        for log_buckets in (0, 4, 10):
            fltr = _locate_filter(built_under, fingerprint_bits, log_buckets)
            assert (fltr._alt_xor is None) == (fingerprint_bits > 16)
            assert fltr._locate(key) == fltr.hasher.candidate_buckets(key)

    @pytest.mark.parametrize("fingerprint_bits", range(1, 33))
    @given(seed=seeds, batch=st.lists(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        min_size=24, max_size=48, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_c_rows_hold_fingerprints_where_the_hasher_says(
        self, built_under, fingerprint_bits, seed, batch
    ):
        # 24-48 keys in 16 x 4 slots: the kick walk mostly relocates
        # (and at f >= 17 carries fingerprints a 16-bit row would
        # truncate), but at <= 75 % load and MNK 500 no record is
        # deleted, so every key's fingerprint sits in one of its two
        # candidate buckets.
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        with built_under("c"):
            fltr = AutoCuckooFilter(
                num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
                fingerprint_bits=fingerprint_bits, max_kicks=500, seed=seed,
            )
        assert fltr._c_state is not None
        fltr.insert_many(batch)
        assert fltr.autonomic_deletions == 0
        candidates = fltr.hasher.candidate_buckets
        for key in batch:
            fp, i1, i2 = candidates(key)
            assert fp in fltr.bucket(i1) or fp in fltr.bucket(i2), key


class TestClassicCuckooRoundTrips:
    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=30,
                                      unique=True))
    @settings(max_examples=100, deadline=None)
    def test_no_false_negatives_while_resident(self, seed, batch):
        fltr = CuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            max_kicks=8, seed=seed,
        )
        resident = [key for key in batch if fltr.insert(key)]
        for key in resident:
            assert fltr.contains(key)

    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=30,
                                      unique=True))
    @settings(max_examples=100, deadline=None)
    def test_insert_delete_query_round_trip(self, seed, batch):
        fltr = CuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            max_kicks=8, seed=seed,
        )
        resident = [key for key in batch if fltr.insert(key)]
        count = fltr.valid_count
        assert count == len(resident)
        for key in resident:
            # A resident key's fingerprint is present, so delete must
            # succeed (it may hit a colliding record — false deletion —
            # but it always removes exactly one matching entry).
            assert fltr.delete(key)
            count -= 1
            assert fltr.valid_count == count
        assert fltr.valid_count == 0

    @given(seed=seeds, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_delete_of_absent_key_is_a_noop(self, seed, key):
        fltr = CuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            seed=seed,
        )
        assert not fltr.delete(key)
        assert fltr.valid_count == 0


class TestAutoCuckooProperties:
    @given(seed=seeds,
           sequence=st.lists(keys, min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_access_many_equals_looped_access(
        self, built_under, seed, sequence
    ):
        with built_under("python"):
            looped = AutoCuckooFilter(
                num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
                fingerprint_bits=8, seed=seed,
            )
        batched = AutoCuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            fingerprint_bits=8, seed=seed,
        )
        threshold = looped.security_threshold
        captures = sum(
            1 for key in sequence if looped.access(key) >= threshold
        )
        assert batched.access_many(sequence) == captures
        assert looped.snapshot() == batched.snapshot()

    @given(seed=seeds,
           sequence=st.lists(keys, min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_occupancy_monotone_and_responses_saturate(self, seed, sequence):
        fltr = AutoCuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            fingerprint_bits=8, seed=seed,
        )
        last_valid = 0
        for key in sequence:
            response = fltr.access(key)
            assert 0 <= response <= fltr.security_threshold
            # Autonomic deletion: insertion never fails and the
            # occupied-slot count never decreases.
            assert fltr.valid_count >= last_valid
            last_valid = fltr.valid_count
        assert fltr.valid_count <= fltr.capacity

    @given(seed=seeds, key=keys, extra=st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_repeated_access_reaches_threshold(self, seed, key, extra):
        fltr = AutoCuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            fingerprint_bits=8, seed=seed,
        )
        assert fltr.access(key) == 0
        responses = [
            fltr.access(key)
            for _ in range(fltr.security_threshold + extra)
        ]
        assert responses[fltr.security_threshold - 1:] == [
            fltr.security_threshold
        ] * (extra + 1)
        assert fltr.security_of(key) == fltr.security_threshold
