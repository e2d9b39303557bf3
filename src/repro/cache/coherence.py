"""MESI coherence states and protocol invariants.

The hierarchy uses a directory embedded in the (inclusive) LLC: every
LLC line carries a ``sharers`` bitmask of cores currently holding the
line in a private cache.  Coherence actions (invalidations on write,
dirty forwarding on read, back-invalidation on inclusion victims) are
driven from that bitmask by :class:`repro.cache.hierarchy.CacheHierarchy`.

This module holds the state encoding, named helpers, and the invariant
checker the property tests run against a reference model.
"""

from __future__ import annotations

#: MESI state encoding for private cache lines.  INVALID is represented
#: by *absence* from the cache; the constant exists for reporting.
INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


def state_name(state: int) -> str:
    """Single-letter MESI name for ``state``."""
    try:
        return _NAMES[state]
    except KeyError:
        raise ValueError(f"unknown MESI state {state}") from None


class CoherenceViolation(AssertionError):
    """Raised by the invariant checker when MESI rules are broken."""


def check_mesi_invariants(holders: dict[int, int]) -> None:
    """Validate MESI rules for one line.

    ``holders`` maps core id → private MESI state for every core that
    currently holds the line.  Raises :class:`CoherenceViolation` when:

    * more than one core holds the line in M or E, or
    * any core holds M/E while another core holds any copy.
    """
    exclusive_like = [c for c, s in holders.items() if s in (MODIFIED, EXCLUSIVE)]
    if len(exclusive_like) > 1:
        raise CoherenceViolation(
            f"multiple M/E holders: {sorted(exclusive_like)}"
        )
    if exclusive_like and len(holders) > 1:
        raise CoherenceViolation(
            f"M/E holder {exclusive_like[0]} coexists with sharers "
            f"{sorted(set(holders) - set(exclusive_like))}"
        )
    for core, state in holders.items():
        if state not in (SHARED, EXCLUSIVE, MODIFIED):
            raise CoherenceViolation(f"core {core} holds invalid state {state}")
