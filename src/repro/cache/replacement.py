"""Replacement policies.

A policy chooses the victim of one full set from that set's
``{line_addr: stamp}`` dict (iteration order = fill order).  The cache
owns the stamps: every fill and, for policies with ``touch_stamps``,
every hit writes a fresh per-cache monotonic stamp.  Policies are
stateless across sets except for the RNG (``random`` and
``lru_rand``).

``LruPolicy`` is the default everywhere and the only policy of the
private levels (gem5's classic caches default to LRU).  The paper
leaves the LLC policy open, so the LLC also takes the two policies the
ablation (``experiments/defense_ablation.py``) sweeps: ``lru_rand``
and ``random``, the ARM-style policy ARMageddon had to defeat.  Both
are one protocol, a uniform draw from the ``pool_size`` smallest
stamps: ``random`` draws from the whole set (``pool_size`` None), and
since its hits never restamp, ascending stamp order is its fill order.
The C cache walk ports exactly that protocol.
"""

from __future__ import annotations

import random

from repro.utils.rng import derive_rng


class ReplacementPolicy:
    """Interface: pick a victim among the resident lines of a set.

    Besides ``name``, the whole protocol is two flags read by
    :class:`~repro.cache.set_assoc.SetAssociativeCache` (and by the
    C cache walk's install) and one method:

    * ``touch_stamps`` — a hit refreshes the line's stamp (LRU and
      ``lru_rand``); when False, hits leave the stamps alone
      (random).
    * ``victim_is_min_stamp`` — the victim is the smallest stamp, so
      the cache runs the C-level ``min`` without a dispatch per
      eviction (LRU).
    * ``victim_addr(cache_set)`` — the victim's line address, picked
      from a full set's ``{line_addr: stamp}`` dict.
    """

    name = "abstract"
    touch_stamps = False
    victim_is_min_stamp = False

    def victim_addr(self, cache_set: dict) -> int:
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Evict the least-recently-used line (smallest stamp)."""

    name = "lru"
    touch_stamps = True
    victim_is_min_stamp = True

    def victim_addr(self, cache_set: dict) -> int:
        return min(cache_set, key=cache_set.__getitem__)


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random resident line; hits do not restamp.

    ``pool_size`` None tells the C walk to draw over the whole set
    (see the module docstring).
    """

    name = "random"
    pool_size = None

    def __init__(self, seed: int = 0):
        self._rng: random.Random = derive_rng(seed, "random-replacement")

    def victim_addr(self, cache_set: dict) -> int:
        candidates = list(cache_set)
        return candidates[self._rng.randrange(len(candidates))]


class LruRandomPolicy(ReplacementPolicy):
    """LRU with a randomised tail: the victim is drawn uniformly from
    the ``pool_size`` least-recently-used lines.

    This is the bounded nondeterminism real LLC policies exhibit
    (tree-PLRU imprecision, NRU scans, adaptive insertion): a line that
    is *much* staler than the rest is evicted essentially
    deterministically, but near-ties are broken unpredictably.  The
    distinction matters for the Fig. 6 experiment, which
    ``repro-experiment ablation`` measures per policy.
    """

    name = "lru_rand"
    touch_stamps = True

    def __init__(self, pool_size: int = 4, seed: int = 0):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._rng: random.Random = derive_rng(seed, "lru-rand")

    def victim_addr(self, cache_set: dict) -> int:
        # Stamps are unique per cache, so the pool is exactly the
        # ``pool_size`` smallest stamps whatever the dict order.
        pool = sorted(cache_set, key=cache_set.__getitem__)[: self.pool_size]
        return pool[self._rng.randrange(len(pool))]


_POLICIES = {
    "lru": LruPolicy,
    "random": RandomPolicy,
    "lru_rand": LruRandomPolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a policy by name (``lru``/``lru_rand``/``random``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    if cls is LruPolicy:
        return cls()
    return cls(seed=seed)
