"""Packed cache-line metadata.

Resident lines are **packed integers**, not objects: every per-line
field except the replacement stamp lives in bit-fields of one int (the
*line word*), keyed by full line address in the owning array's flat
``_map`` dict.  The replacement stamp lives in the per-set dicts
(``SetAssociativeCache._sets``), where the victim scan reads it from a
small, CPU-cache-hot table — so the two hottest mutations in the
simulator (an LRU touch, a fill) are dict stores of plain ints and
**allocate no objects**.

Line-word layout (low bit first)::

    bit 0       dirty
    bit 1       pingpong   — the Ping-Pong protection tag PiPoMonitor
                sets when a captured line is retrieved from memory
                ("the cache line will be tagged as Ping-Pong in LLC",
                Section IV)
    bit 2       accessed   — touched since its last fill; prefetch
                fills clear it, demand hits set it (the no-endless-
                prefetch rule fires only for tagged-*and*-accessed)
    bits 3-4    MESI state (I/S/E/M = 0..3; private lines)
    bits 5-20   sharers    — LLC directory presence bitmask, one bit
                per core (hence the 16-core hierarchy limit)
    bits 21+    version    — monotonically increasing write stamp used
                by the test suite to validate coherence; open-ended
                top field, so the tag (the dict key) and every other
                field keep their exact widths at any version

The tag itself is the dict key (full line address, implicit and
exact), so no field in the word bounds the address width.

:class:`CacheLine` is the one object form of a line: a detached
snapshot of a word and its stamp.  The introspection APIs
(``lookup``/``lines``/``set_lines``) and the monitor's eviction hook
receive one; writing to its attributes never reaches a cache.
"""

from __future__ import annotations

from repro.cache.coherence import state_name

#: Flag bits.
DIRTY = 1
PINGPONG = 2
ACCESSED = 4

#: MESI state field.
STATE_SHIFT = 3
STATE_MASK = 0b11 << STATE_SHIFT

#: Directory presence bitmask (one bit per core).
SHARERS_SHIFT = 5
SHARERS_BITS = 16

#: Write-version stamp (open-ended top field).
VERSION_SHIFT = SHARERS_SHIFT + SHARERS_BITS
#: Everything below the version field — ``word & VERSION_BELOW``
#: preserves flags/state/sharers while replacing the version.
VERSION_BELOW = (1 << VERSION_SHIFT) - 1


def pack_line(
    state: int = 0,
    version: int = 0,
    dirty: bool = False,
    pingpong: bool = False,
    accessed: bool = False,
    sharers: int = 0,
) -> int:
    """Assemble a line word from its fields."""
    if not 0 <= state <= 3:
        raise ValueError(f"MESI state out of range: {state}")
    if not 0 <= sharers < (1 << SHARERS_BITS):
        raise ValueError(f"sharers mask out of range: {sharers:#x}")
    if version < 0:
        raise ValueError("version must be non-negative")
    return (
        (DIRTY if dirty else 0)
        | (PINGPONG if pingpong else 0)
        | (ACCESSED if accessed else 0)
        | (state << STATE_SHIFT)
        | (sharers << SHARERS_SHIFT)
        | (version << VERSION_SHIFT)
    )


def unpack_line(word: int) -> dict:
    """Explode a line word into a field dict (tests, debugging)."""
    return {
        "dirty": bool(word & DIRTY),
        "pingpong": bool(word & PINGPONG),
        "accessed": bool(word & ACCESSED),
        "state": (word >> STATE_SHIFT) & 0b11,
        "sharers": (word >> SHARERS_SHIFT) & ((1 << SHARERS_BITS) - 1),
        "version": word >> VERSION_SHIFT,
    }


def decode_sharers(mask: int) -> list[int]:
    """Bit positions set in a sharers mask (ascending core ids).

    Iterates set bits only (isolate-lowest-bit + ``bit_length``) rather
    than shifting through every position — the mask is consulted on
    every LLC eviction and coherence action.
    """
    cores = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class CacheLine:
    """Detached snapshot of one line: its address, the fields of its
    packed word, and its replacement stamp.

    Built from ``(addr, word, stamp)`` wherever a line leaves the
    arrays as an object — introspection results and eviction victims
    handed to monitor hooks.  The snapshot does not follow later
    changes to the cache, and changes to it do not reach the cache.
    """

    __slots__ = (
        "addr",
        "state",
        "dirty",
        "stamp",
        "sharers",
        "pingpong",
        "accessed",
        "version",
    )

    def __init__(self, addr: int, word: int, stamp: int):
        self.addr = addr
        self.state = (word >> STATE_SHIFT) & 0b11
        self.dirty = bool(word & DIRTY)
        self.stamp = stamp
        self.sharers = (word >> SHARERS_SHIFT) & ((1 << SHARERS_BITS) - 1)
        self.pingpong = bool(word & PINGPONG)
        self.accessed = bool(word & ACCESSED)
        self.version = word >> VERSION_SHIFT

    def sharer_list(self) -> list[int]:
        """Decode the sharers bitmask into a sorted list of core ids."""
        return decode_sharers(self.sharers)

    def __repr__(self) -> str:
        flags = []
        if self.dirty:
            flags.append("dirty")
        if self.pingpong:
            flags.append("pingpong")
        if self.accessed:
            flags.append("accessed")
        return (
            f"CacheLine(addr={self.addr:#x}, "
            f"state={state_name(self.state)}, "
            f"sharers={self.sharer_list()}, {' '.join(flags) or 'clean'})"
        )
