"""``derive_seed`` and its C twin ``rng_derive_seed``.

The Python body of :func:`repro.utils.rng.derive_seed` is the
reference.  Once the engine extension has loaded in a process, the C
twin computes every seed, so both must give the same 64-bit value for
every argument the body accepts and the same exception for every other.
The pinned values below were computed once by the Python body alone,
so they check both paths independently of each other.
"""

import ast
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import available_engines, c_backend
from repro.utils import rng
from repro.utils.rng import derive_rng, derive_seed

#: ``(master_seed, labels, seed)``: the LSM build's two label shapes
#: (the filter's kick-walk LCG and a level's hasher seed), a mix of
#: edge labels, and a master seed of 2**64 or more with no labels.
PINNED = [
    (0, ("auto-cuckoo-victim",), 0x23DC5AF004F23728),
    (7, ("lsm-level", 2, 3), 0xB5337F4A9B7B6F79),
    (-1, ("é\x00", -5, 1 << 70, True, ""), 0x8E430C8471147215),
    (2**64 + 5, (), 0x63033B0CA389C35A),
]

needs_c = pytest.mark.skipif(
    "c" not in available_engines(),
    reason="C backend unavailable (no cffi/toolchain)",
)


@contextmanager
def python_body():
    """Run ``derive_seed`` on its Python body: the twin unbound."""
    twin = rng._c_twin
    rng._c_twin = None
    try:
        yield
    finally:
        rng._c_twin = twin


def twin_seed(master_seed, labels):
    """The C twin's value (the extension is loaded, so it is bound)."""
    seed = rng._c_twin(master_seed, tuple(labels))
    assert seed is not None
    return seed


def body_seed(master_seed, labels):
    with python_body():
        return derive_seed(master_seed, *labels)


@pytest.mark.parametrize("master_seed, labels, seed", PINNED)
def test_python_body_gives_the_pinned_seed(master_seed, labels, seed):
    assert body_seed(master_seed, labels) == seed


@needs_c
@pytest.mark.parametrize("master_seed, labels, seed", PINNED)
def test_c_twin_gives_the_pinned_seed(master_seed, labels, seed):
    assert rng._c_twin is not None
    assert twin_seed(master_seed, labels) == seed
    assert derive_seed(master_seed, *labels) == seed


_MASTER_SEEDS = st.integers(-(2**70), 2**70) | st.sampled_from(
    [0, -1, 2**64 - 1, 2**64, 2**64 + 1]
)
_STR_LABELS = st.text(max_size=24) | st.sampled_from(
    ["", "é", "a\x00b", "\x00", "\U0001F600 lsm-level"]
)
_INT_LABELS = st.integers(-(2**70), 2**70) | st.sampled_from(
    [True, False, -1, 2**64 - 1, 2**64, 2**64 + 7]
)


@needs_c
@settings(max_examples=300, deadline=None)
@given(_MASTER_SEEDS, st.lists(_STR_LABELS | _INT_LABELS, max_size=4))
@example(0, [])
@example(-1, ["", "é\x00", -5, 2**64, True])
@example(2**64, ["a\x00b" * 40, 2**70])
def test_c_twin_equals_the_python_body(master_seed, labels):
    assert twin_seed(master_seed, labels) == body_seed(master_seed, labels)


class _Index(int):
    pass


class _Name(str):
    pass


@needs_c
@pytest.mark.parametrize(
    "master_seed, labels",
    [(3, (_Index(5),)), (3, (_Name("lsm-level"), 2)), (_Index(9), ("x",))],
)
def test_subclass_arguments_take_the_python_body(master_seed, labels):
    assert rng._c_twin(master_seed, labels) is None
    assert derive_seed(master_seed, *labels) == body_seed(
        master_seed, labels
    )


@pytest.mark.parametrize(
    "master_seed, labels",
    [(1, (1.5,)), (1, ("x", None)), (1, (b"bytes",)), (1.5, ("x",))],
)
def test_other_arguments_raise_the_python_body_type_error(
    master_seed, labels
):
    with pytest.raises(TypeError) as body_error:
        body_seed(master_seed, labels)
    with pytest.raises(TypeError) as error:
        derive_seed(master_seed, *labels)
    assert str(error.value) == str(body_error.value)


def test_derive_seed_never_loads_the_extension(monkeypatch):
    """With the extension not loaded, ``derive_seed`` (and
    ``derive_rng``) run the Python body and never reach the build."""
    def refuse():
        raise AssertionError("derive_seed reached c_backend._load_lib")

    monkeypatch.setattr(rng, "_c_twin", None)
    monkeypatch.setattr(c_backend, "_LIB", None)
    monkeypatch.setattr(c_backend, "_load_lib", refuse)
    for master_seed, labels, seed in PINNED:
        assert derive_seed(master_seed, *labels) == seed
    derive_rng(0, "x").random()
    assert rng._c_twin is None


def test_utils_import_nothing_from_the_engine():
    """The twin is bound from the engine side, so ``repro.utils``
    stays below ``repro.engine``."""
    for path in Path(rng.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(
                name.startswith("repro.engine") for name in names
            ), path.name
