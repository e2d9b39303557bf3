"""Seed derivation helpers.

Every stochastic component of the simulator (filter victim selection,
workload generators, attack address choices) owns a private
``random.Random`` derived from the experiment's master seed and a
component label.  Components therefore never share RNG state, so adding
or reordering one component does not perturb the random decisions of
another — a property the regression tests rely on.
"""

from __future__ import annotations

import random

from repro.utils.bitops import mix64

_U64 = (1 << 64) - 1

#: The C twin of :func:`derive_seed`, ``twin(master_seed, labels)``:
#: the seed, or None when it does not take the arguments' types.  Bound
#: by :mod:`repro.engine.c_backend` when its extension loads in this
#: process; None until then, and for good on a host with no toolchain.
_c_twin = None


def derive_seed(master_seed: int, *labels: int | str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and labels.

    Labels may be strings (component names) or ints (indices); the
    derivation is order-sensitive and collision-resistant in practice.
    A string label takes one salted ``mix64`` step per UTF-8 byte, an
    int label one step on its low 64 bits.

    Once the engine extension has loaded in this process, the C twin
    ``rng_derive_seed`` (:mod:`repro.engine.c_backend`) computes the
    value; this body is its bit-exact reference and the path of a host
    without a toolchain.  Neither memoises, and ``derive_seed`` never
    builds, probes or warns: it only uses a twin that is already bound.
    """
    twin = _c_twin
    if twin is not None:
        seed = twin(master_seed, labels)
        if seed is not None:
            return seed
    state = mix64(master_seed & _U64)
    for label in labels:
        if isinstance(label, str):
            for chunk in label.encode("utf-8"):
                state = mix64(state ^ chunk, salt=0x5EED)
        else:
            state = mix64(state ^ (label & _U64), salt=0x1D)
    return state


def derive_rng(master_seed: int, *labels: int | str) -> random.Random:
    """Return a ``random.Random`` seeded via :func:`derive_seed`."""
    return random.Random(derive_seed(master_seed, *labels))
