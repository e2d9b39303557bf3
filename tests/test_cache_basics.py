"""Unit tests for address mapping, replacement, and the set-assoc array."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.addr import AddressMapper
from repro.cache.replacement import (
    LruPolicy,
    LruRandomPolicy,
    RandomPolicy,
    make_policy,
)
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache


class TestAddressMapper:
    def test_line_address(self):
        mapper = AddressMapper(64)
        assert mapper.line_address(0) == 0
        assert mapper.line_address(63) == 0
        assert mapper.line_address(64) == 1
        assert mapper.line_address(130) == 2

    def test_round_trip(self):
        mapper = AddressMapper(64)
        assert mapper.byte_address(mapper.line_address(4096)) == 4096

    def test_offset(self):
        mapper = AddressMapper(64)
        assert mapper.offset(67) == 3

    def test_set_index(self):
        mapper = AddressMapper(64)
        assert mapper.set_index(0x12345, 256) == 0x45

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            AddressMapper(48)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            AddressMapper().line_address(-1)

    @given(st.integers(min_value=0, max_value=2**48))
    def test_line_strips_offset(self, addr):
        mapper = AddressMapper(64)
        assert mapper.line_address(addr) == addr // 64


class TestCacheGeometry:
    def test_table_ii_l1(self):
        geometry = CacheGeometry(64 * 1024, 4)
        assert geometry.num_lines == 1024
        assert geometry.num_sets == 256

    def test_table_ii_l2(self):
        geometry = CacheGeometry(256 * 1024, 8)
        assert geometry.num_sets == 512

    def test_table_ii_llc_slice(self):
        geometry = CacheGeometry(1024 * 1024, 16)
        assert geometry.num_sets == 1024

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 4)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheGeometry(3 * 64 * 4, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheGeometry(0, 4)


def set_with_stamps(stamps):
    """A set's ``{line_addr: stamp}`` dict, line ``i`` holding
    ``stamps[i]`` (fill order = index order)."""
    return dict(enumerate(stamps))


class TestPolicies:
    def test_lru_picks_smallest_stamp(self):
        cache_set = set_with_stamps([5, 2, 9])
        assert LruPolicy().victim_addr(cache_set) == 1

    def test_lru_touch_refreshes(self):
        cache_set = set_with_stamps([1, 2, 3])
        cache_set[0] = 10  # a hit stores a fresh stamp
        assert LruPolicy().victim_addr(cache_set) == 1

    def test_random_victim_is_member(self):
        policy = RandomPolicy(seed=1)
        cache_set = set_with_stamps([1, 2, 3])
        for _ in range(20):
            assert policy.victim_addr(cache_set) in cache_set

    def test_random_covers_all_lines(self):
        policy = RandomPolicy(seed=1)
        cache_set = set_with_stamps([1, 2, 3, 4])
        chosen = {policy.victim_addr(cache_set) for _ in range(200)}
        assert chosen == {0, 1, 2, 3}

    def test_lru_rand_pool_above_set_size_draws_whole_set(self):
        # A pool larger than the set clamps to the set (the C walk
        # clamps ``pool_size`` to ``ways`` the same way).
        policy = LruRandomPolicy(pool_size=6, seed=1)
        cache_set = set_with_stamps([1, 2, 3, 4])
        chosen = {policy.victim_addr(cache_set) for _ in range(200)}
        assert chosen == {0, 1, 2, 3}

    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError):
            make_policy("belady")

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=16))
    def test_property_victims_are_members(self, stamps):
        cache_set = set_with_stamps(stamps)
        for policy in (LruPolicy(), RandomPolicy(seed=2)):
            assert policy.victim_addr(cache_set) in cache_set


class TestSetAssociativeCache:
    def make(self, **overrides):
        params = dict(geometry=CacheGeometry(4 * 1024, 4), policy="lru",
                      seed=1, name="test")
        params.update(overrides)
        return SetAssociativeCache(**params)

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.lookup(100) is None
        cache.insert(100)
        assert cache.lookup(100) is not None
        assert 100 in cache

    def test_insert_returns_no_victim_when_space(self):
        cache = self.make()
        _, victim = cache.insert(100)
        assert victim is None

    def test_eviction_on_full_set(self):
        cache = self.make()
        sets = cache.num_sets
        # Four lines mapping to set 0 fill it; the fifth evicts LRU.
        for way in range(4):
            cache.insert(way * sets)
        _, victim = cache.insert(4 * sets)
        assert victim is not None
        assert victim.addr == 0
        assert cache.lookup(0) is None

    def test_touch_changes_victim(self):
        cache = self.make()
        sets = cache.num_sets
        for way in range(4):
            cache.insert(way * sets)
        cache.touch(0)  # 0 becomes MRU; victim should be way 1
        _, victim = cache.insert(4 * sets)
        assert victim.addr == sets

    def test_random_hits_keep_fill_order(self):
        # Random hits never restamp, so a set's fill order stays its
        # ascending stamp order and touches cannot move the draw.
        touched = self.make(policy="random")
        untouched = self.make(policy="random")
        sets = touched.num_sets
        for cache in (touched, untouched):
            for way in range(4):
                cache.insert(way * sets)
        before = dict(touched._sets[0])
        for line in (2 * sets, 0, 3 * sets, 0):
            touched.touch(line)
        cache_set = touched._sets[0]
        assert cache_set == before
        assert list(cache_set) == sorted(cache_set, key=cache_set.__getitem__)
        for way in range(4, 12):
            _, victim = touched.insert(way * sets)
            _, expected = untouched.insert(way * sets)
            assert victim.addr == expected.addr

    def test_duplicate_insert_rejected(self):
        cache = self.make()
        cache.insert(7)
        with pytest.raises(ValueError):
            cache.insert(7)

    def test_remove(self):
        cache = self.make()
        cache.insert(5)
        removed = cache.remove(5)
        assert removed is not None and removed.addr == 5
        assert cache.remove(5) is None

    def test_len_and_occupancy(self):
        cache = self.make()
        assert len(cache) == 0
        cache.insert(1)
        cache.insert(2)
        assert len(cache) == 2
        assert cache.occupancy() == pytest.approx(2 / cache.geometry.num_lines)

    def test_probe_counts(self):
        cache = self.make()
        cache.insert(9)
        assert cache.probe(9)
        assert not cache.probe(10)
        assert cache.hits == 1 and cache.misses == 1

    def test_set_isolation(self):
        """Filling one set never evicts lines from another."""
        cache = self.make()
        sets = cache.num_sets
        cache.insert(1)  # set 1
        for way in range(8):
            cache.insert(way * sets)  # hammer set 0
        assert cache.lookup(1) is not None

    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                    max_size=300))
    def test_property_capacity_respected(self, addresses):
        cache = SetAssociativeCache(CacheGeometry(1024, 2), seed=3)
        for addr in addresses:
            if cache.lookup(addr) is None:
                cache.insert(addr)
        for index in range(cache.num_sets):
            assert len(cache.set_lines(index)) <= cache.ways

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=200))
    def test_property_most_recent_insert_resident(self, addresses):
        cache = SetAssociativeCache(CacheGeometry(1024, 2), seed=4)
        for addr in addresses:
            if cache.lookup(addr) is None:
                cache.insert(addr)
            assert cache.lookup(addr) is not None
