"""Partial-key cuckoo hashing (Section II-B of the paper).

A record's two candidate bucket indices satisfy

    h1(x) = hash(x)
    h2(x) = h1(x) XOR hash(fingerprint(x))

so either index can be recovered from the other plus the stored
fingerprint — the property that lets a hardware filter relocate records
it no longer has the original address for.  The XOR trick requires the
bucket count to be a power of two so that the XOR of two valid indices
is again a valid index.

This module models the paper's three hardware hash blocks (``Hash1
Module``, ``Hash2 Module``, ``fPrint Hash``) with independently salted
splitmix64 mixes.
"""

from __future__ import annotations

from repro.utils.bitops import (
    GOLDEN_GAMMA as _GOLDEN_GAMMA,
    MIX_MULT_1 as _MIX_MULT_1,
    MIX_MULT_2 as _MIX_MULT_2,
    U64_MASK as _U64,
    is_power_of_two,
    mask,
    mix64,
)

#: Distinct salts so the index hash and the fingerprint hash are
#: statistically independent functions, as separate hardware hash
#: blocks would be.
_SALT_INDEX = 0x1DEA
_SALT_FPRINT = 0xF00D
_SALT_ALT = 0xA17E


class PartialKeyHasher:
    """Computes fingerprints and candidate bucket indices.

    Parameters
    ----------
    num_buckets:
        ``l`` in the paper — number of bucket rows.  Must be a power of
        two (required by the XOR alternate-index construction).
    fingerprint_bits:
        ``f`` in the paper — fingerprint width.  Fingerprints are
        forced non-zero so 0 can encode an empty slot; the 1-bit valid
        flag of the hardware layout is accounted separately in the
        storage model.
    seed:
        Per-instance salt, so two filters never share hash functions.
    """

    def __init__(self, num_buckets: int, fingerprint_bits: int, seed: int = 0):
        if not is_power_of_two(num_buckets):
            raise ValueError(
                f"num_buckets must be a power of two, got {num_buckets}"
            )
        if not 1 <= fingerprint_bits <= 32:
            raise ValueError(
                f"fingerprint_bits must be in [1, 32], got {fingerprint_bits}"
            )
        self.num_buckets = num_buckets
        self.fingerprint_bits = fingerprint_bits
        self._index_mask = num_buckets - 1
        self._fp_mask = mask(fingerprint_bits)
        self._seed = seed
        # The three hash modules' additive terms: ``mix64(x, salt)``
        # starts from ``x + (salt + 1) * GOLDEN_GAMMA``, so each module
        # salt, XORed with the instance seed, is folded into that
        # increment once for the inlined mixes.  The filter's Query and
        # the C kernels read them from here.
        self._fp_add = ((_SALT_FPRINT ^ seed) + 1) * _GOLDEN_GAMMA & _U64
        self._index_add = ((_SALT_INDEX ^ seed) + 1) * _GOLDEN_GAMMA & _U64
        self._alt_add = ((_SALT_ALT ^ seed) + 1) * _GOLDEN_GAMMA & _U64

    def fingerprint(self, key: int) -> int:
        """Return ``ξ_x`` — the non-zero ``f``-bit fingerprint of key."""
        fp = mix64(key, salt=_SALT_FPRINT ^ self._seed) & self._fp_mask
        # Zero encodes an empty slot; remap it to the all-ones pattern.
        # This biases one codepoint (doubles its probability) which is
        # the standard practical compromise and is negligible for f>=8.
        return fp if fp else self._fp_mask

    def index1(self, key: int) -> int:
        """Return ``µ_x`` — the primary candidate bucket index."""
        return mix64(key, salt=_SALT_INDEX ^ self._seed) & self._index_mask

    def alt_index(self, index: int, fingerprint: int) -> int:
        """Return the other candidate bucket for ``fingerprint``:
        ``index ^ hash(fingerprint)``, the paper's hash block (C twin:
        ``acf_alt_index``).

        Involutive: ``alt_index(alt_index(i, fp), fp) == i``.  With a
        power-of-two bucket count, masking the hash first is masking
        the combined index, so ``alt_index(0, fp)`` is the xor-term.
        Called once per relocation on the reference kick walk at
        f > 16 and once per entry of the ``_alt_xor`` memo, so the mix
        is inlined like :meth:`candidate_buckets`.
        """
        z = (fingerprint + self._alt_add) & _U64
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _U64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _U64
        return (index ^ z ^ (z >> 31)) & self._index_mask

    def candidate_buckets(self, key: int) -> tuple[int, int, int]:
        """Return ``(fingerprint, µ_x, σ_x)`` for key in one call.

        The three splitmix64 mixes are inlined (same arithmetic as
        :func:`repro.utils.bitops.mix64`) — this sits on the
        monitor's per-miss path, where three nested function calls per
        query are measurable.
        """
        fp_mask = self._fp_mask
        # fingerprint(key)
        z = (key + self._fp_add) & _U64
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _U64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _U64
        fp = (z ^ (z >> 31)) & fp_mask
        if not fp:
            fp = fp_mask
        # index1(key)
        z = (key + self._index_add) & _U64
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _U64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _U64
        i1 = (z ^ (z >> 31)) & self._index_mask
        # alt_index(i1, fp)
        z = (fp + self._alt_add) & _U64
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _U64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _U64
        return fp, i1, (i1 ^ z ^ (z >> 31)) & self._index_mask
