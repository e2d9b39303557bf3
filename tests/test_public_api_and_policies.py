"""Top-level API surface and the late-added lru_rand policy."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.cache.replacement import LruRandomPolicy, make_policy


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        fltr = repro.AutoCuckooFilter(num_buckets=16)
        assert fltr.access(1) == 0
        assert isinstance(repro.TABLE_II, repro.SystemConfig)
        assert repro.TABLE_II_FILTER.num_buckets == 1024
        assert len(repro.FIG8_FILTER_SIZES) == 5

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_configs_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            repro.TABLE_II.num_cores = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            repro.TABLE_II_FILTER.num_buckets = 1


def set_with_stamps(stamps):
    """A set's ``{line_addr: stamp}`` dict, line ``i`` holding
    ``stamps[i]``."""
    return dict(enumerate(stamps))


class TestLruRandomPolicy:
    def test_registered(self):
        assert isinstance(make_policy("lru_rand"), LruRandomPolicy)

    def test_clearly_stale_line_always_chosen(self):
        """One line far older than the pool depth's worth of others is
        deterministically evicted — why priming still works."""
        policy = LruRandomPolicy(pool_size=4, seed=1)
        # Victim pool = 4 oldest; stamps 0 and then 3 near-ties + rest new.
        cache_set = set_with_stamps([0, 100, 101, 102, 200, 201, 202, 203])
        chosen = {policy.victim_addr(cache_set) for _ in range(50)}
        assert chosen <= {0, 1, 2, 3}
        assert 0 in chosen

    def test_near_ties_randomised(self):
        """Lines inside the pool are picked unpredictably — why a
        freshly prefetched line is not deterministically re-victimised."""
        policy = LruRandomPolicy(pool_size=4, seed=2)
        cache_set = set_with_stamps([10, 11, 12, 13, 100, 101])
        chosen = {policy.victim_addr(cache_set) for _ in range(200)}
        assert chosen == {0, 1, 2, 3}

    def test_pool_larger_than_set_degenerates_to_random(self):
        policy = LruRandomPolicy(pool_size=16, seed=3)
        cache_set = set_with_stamps([1, 2, 3])
        chosen = {policy.victim_addr(cache_set) for _ in range(100)}
        assert chosen == {0, 1, 2}

    def test_touch_refreshes_stamp(self):
        policy = LruRandomPolicy(pool_size=1, seed=4)
        cache_set = set_with_stamps([1, 2, 3])
        cache_set[0] = 10  # a hit stores a fresh stamp
        assert policy.victim_addr(cache_set) == 1  # pool of 1 → strict LRU

    def test_rejects_bad_pool(self):
        with pytest.raises(ValueError):
            LruRandomPolicy(pool_size=0)

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=20))
    def test_victim_is_member(self, stamps):
        policy = LruRandomPolicy(pool_size=4, seed=5)
        cache_set = set_with_stamps(stamps)
        assert policy.victim_addr(cache_set) in cache_set

    def test_deterministic_per_seed(self):
        set_a = set_with_stamps(list(range(8)))
        set_b = set_with_stamps(list(range(8)))
        picks_a = [LruRandomPolicy(4, seed=7).victim_addr(set_a)
                   for _ in range(1)]
        picks_b = [LruRandomPolicy(4, seed=7).victim_addr(set_b)
                   for _ in range(1)]
        assert picks_a == picks_b
