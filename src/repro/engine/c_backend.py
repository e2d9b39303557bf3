"""The C backend: the Auto-Cuckoo filter kernel and the shared cffi
build for the packed-word cache walk.

``REPRO_ENGINE=c`` (the default engine) routes the two halves of the
simulator's hot pair through one cffi-compiled extension:

* the **filter** Query/kick-walk — 32-bit fingerprint rows, Security
  counters and the LCG in flat C arrays, an exact-uint64 port of
  ``AutoCuckooFilter`` for every fingerprint width f = 1..32 (this
  module, installed by :func:`install` when a filter is built);
* the **cache walk** — the L1 probe → miss walk → LLC fill/evict →
  monitor chain with per-cache tag/word/stamp arrays and a C-owned
  ``_memory_versions`` map (source in :mod:`repro.engine._walk_src`,
  installed by :mod:`repro.engine.c_cache`).

Both are held to the same golden-trace conformance suite: every
scenario must replay bit-identically under the C engine and under the
``python`` reference engine.  Like the walk, each filter kernel ports
one Python body; the twin table in :mod:`repro.engine._filter_batch_src`
pairs the kernels of this module and of that one.

Beside the filter kernels sits ``rng_derive_seed``, the twin of
:func:`repro.utils.rng.derive_seed` that seeds every filter's LCG and
every LSM level: :func:`_load_lib` binds it into ``repro.utils.rng``
when the extension loads, so seed derivation needs no engine choice.

The extension is **built lazily at first use** and cached under
``~/.cache/repro-engine`` (override with ``REPRO_ENGINE_CACHE``); the
cache key hashes the full generated source plus the interpreter/cffi/
compiler identity and the compile flags in the environment, so any
edit to the C code (or a toolchain or flag change) lands in a fresh
directory and a stale ``.so`` can never satisfy a newer source.  When
cffi or a C toolchain is missing the build fails quietly and callers
fall back to the generic ``python`` paths — the ``c`` engine degrades,
it never breaks — but the failure is recorded
(:func:`unavailable_reason`, including the captured compiler error
chain) and surfaced through ``EngineFallbackWarning``.  Workers in a
fork/spawn pool reuse the on-disk artefact, so kernels rebuild cleanly
across process boundaries.

State-consistency contract with the Python object: a filter binds
its engine when it is built (``repro.engine.bind_filter``), and
:func:`install` is that binding under ``c``.  The table is born in
zeroed C arrays and stays there: the filter never holds Python rows,
*all* operations go through C (``access``, ``access_many`` and the
storage ops are rebound on the instance), and every table reader
takes fresh lists from the arrays: ``snapshot``, ``to_bytes`` and
``entries`` per-bucket rows from :meth:`CFilterState.rows`, ``bucket``
and ``security_of`` one bucket's slots from :meth:`CFilterState.row`.
``from_bytes`` writes restored rows and counters straight into the
arrays (:meth:`CFilterState.load`).  The scalar counters
(``valid_count``, ``autonomic_deletions``, ``total_relocations``,
``_lcg``) only change on insertions, so they are synced back exactly
when an Access returns 0 (a Response of 0 *is* a fresh insertion);
``total_accesses`` is kept on the Python side.  C computes the
alternate bucket with the hasher's mix (``acf_alt_index``), so the
``_alt_xor`` table is a Python-only memo.
The cache walk's (batch) sync contract is documented in
:mod:`repro.engine.c_cache` and PERFORMANCE.md design rule 16.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import sys
import sysconfig
import tempfile
import traceback
from pathlib import Path

from array import array

from repro.engine import _filter_batch_src, _walk_src
from repro.obs.trace import current_recorder
from repro.utils import rng

_U64 = (1 << 64) - 1

#: The filter state Python and C share, written once and spliced into
#: both the cdef and the source.
_ACF_STATE = """
typedef struct {
    uint32_t *fps;
    uint8_t *security;
    uint64_t lcg;
    uint64_t fp_add;
    uint64_t index_add;
    uint64_t alt_add;
    uint32_t index_mask;
    uint32_t fp_mask;
    uint32_t entries_per_bucket;
    uint32_t slot_mask;
    uint32_t has_slot_mask;
    uint32_t max_kicks;
    uint32_t threshold;
    uint64_t valid_count;
    uint64_t autonomic_deletions;
    uint64_t total_relocations;
} acf_state;
"""

_CDEF = _ACF_STATE + """
int acf_access(acf_state *st, uint64_t key);
uint64_t acf_access_many(acf_state *st, const uint64_t *keys, uint64_t n);
uint64_t rng_derive_seed(uint64_t master_seed, const uint8_t *labels,
                         uint64_t n);
"""

_CSOURCE = """
#include <stdint.h>
#include <stddef.h>
""" + _ACF_STATE + """
/* splitmix64 finisher — identical constants to repro.utils.bitops. */
static inline uint64_t acf_mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The other candidate bucket of fp: the paper's sigma = mu ^ hash(xi). */
static inline uint32_t acf_alt_index(const acf_state *st, uint32_t index,
                                     uint32_t fp)
{
    return (uint32_t)((index ^ acf_mix(fp + st->alt_add)) & st->index_mask);
}

/* fp/i1/i2 derivation shared by the Query and the storage ops. */
static inline void acf_candidates(const acf_state *st, uint64_t key,
                                  uint32_t *fp_out, uint32_t *i1_out,
                                  uint32_t *i2_out)
{
    uint64_t z = acf_mix(key + st->fp_add);
    uint32_t fp = (uint32_t)(z & st->fp_mask);
    if (!fp)
        fp = st->fp_mask;
    uint32_t i1 = (uint32_t)(acf_mix(key + st->index_add) & st->index_mask);
    *fp_out = fp;
    *i1_out = i1;
    *i2_out = acf_alt_index(st, i1, fp);
}

/* The first slot of bucket index holding value, or -1: the C form of
 * `value in row` / `row.index(value)` (value 0 finds a vacancy). */
static inline int acf_find(const acf_state *st, uint32_t index,
                           uint32_t value)
{
    const uint32_t *row = st->fps + (size_t)index * st->entries_per_bucket;
    for (uint32_t s = 0; s < st->entries_per_bucket; s++)
        if (row[s] == value)
            return (int)s;
    return -1;
}

/* _insert_new: vacancy scan then the LCG kick walk with autonomic
 * deletion at MNK (never fails).  Shared by acf_access's miss path
 * and the storage-mode acf_insert (see _filter_batch_src). */
static void acf_insert_new(acf_state *st, uint32_t fp, uint32_t i1,
                           uint32_t i2)
{
    const uint32_t b = st->entries_per_bucket;
    uint32_t vidx = i1;
    int slot = acf_find(st, i1, 0);
    if (slot < 0) {
        vidx = i2;
        slot = acf_find(st, i2, 0);
    }
    if (slot >= 0) {
        st->fps[(size_t)vidx * b + (size_t)slot] = fp;
        st->security[(size_t)vidx * b + (size_t)slot] = 0;
        st->valid_count++;
        return;
    }

    uint64_t state = st->lcg;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    uint32_t kidx = (state >> 63) ? i1 : i2;
    uint32_t carried_fp = fp;
    uint8_t carried_sec = 0;
    uint32_t rel = 0;
    for (;;) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        uint32_t kslot = st->has_slot_mask
            ? (uint32_t)((state >> 33) & st->slot_mask)
            : (uint32_t)((state >> 33) % b);
        uint32_t *krow = st->fps + (size_t)kidx * b;
        uint8_t *ksec = st->security + (size_t)kidx * b;
        uint32_t tf = krow[kslot];
        krow[kslot] = carried_fp;
        carried_fp = tf;
        uint8_t ts = ksec[kslot];
        ksec[kslot] = carried_sec;
        carried_sec = ts;
        if (rel == st->max_kicks) {
            st->autonomic_deletions++;
            st->total_relocations += rel;
            st->lcg = state;
            return;
        }
        rel++;
        kidx = acf_alt_index(st, kidx, carried_fp);
        int empty = acf_find(st, kidx, 0);
        if (empty < 0)
            continue;
        st->fps[(size_t)kidx * b + (size_t)empty] = carried_fp;
        st->security[(size_t)kidx * b + (size_t)empty] = carried_sec;
        st->valid_count++;
        st->total_relocations += rel;
        st->lcg = state;
        return;
    }
}

int acf_access(acf_state *st, uint64_t key)
{
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    uint32_t index = i1;
    int slot = acf_find(st, i1, fp);
    if (slot < 0) {
        index = i2;
        slot = acf_find(st, i2, fp);
    }
    if (slot >= 0) {
        uint8_t *sec = st->security
            + (size_t)index * st->entries_per_bucket + (size_t)slot;
        uint8_t v = *sec;
        if (v < st->threshold) {
            v++;
            *sec = v;
        }
        return (int)v;
    }

    /* Miss: insert a fresh entry. */
    acf_insert_new(st, fp, i1, i2);
    return 0;
}

uint64_t acf_access_many(acf_state *st, const uint64_t *keys, uint64_t n)
{
    uint64_t captures = 0;
    const int threshold = (int)st->threshold;
    for (uint64_t i = 0; i < n; i++)
        if (acf_access(st, keys[i]) >= threshold)
            captures++;
    return captures;
}

/* derive_seed: mix64 of the master seed, then one salted mix64 step
 * per byte of a string label (salt 0x5EED) and one per int label
 * (salt 0x1D).  mix64(v, salt) is acf_mix(v + (salt + 1) * gamma).
 * The n bytes at labels hold the labels as _derive_seed_twin packs
 * them: per label a kind byte (0 int, else string), a little-endian
 * uint64 (the int masked to 64 bits, or the string's UTF-8 length),
 * then the string's bytes.  A label that would overrun the buffer
 * ends it. */
uint64_t rng_derive_seed(uint64_t master_seed, const uint8_t *labels,
                         uint64_t n)
{
    const uint64_t gamma = 0x9E3779B97F4A7C15ULL;
    uint64_t state = acf_mix(master_seed + gamma);
    uint64_t at = 0;
    while (n - at >= 9) {
        const uint8_t *head = labels + at;
        uint64_t word = 0;
        for (int i = 8; i >= 1; i--)
            word = (word << 8) | head[i];
        at += 9;
        if (!head[0]) {
            state = acf_mix((state ^ word) + (0x1DULL + 1) * gamma);
            continue;
        }
        if (word > n - at)
            break;
        for (uint64_t i = 0; i < word; i++)
            state = acf_mix((state ^ labels[at + i])
                            + (0x5EEDULL + 1) * gamma);
        at += word;
    }
    return state;
}
"""

# The batch kernels join the same translation unit right after the
# filter source (they call its static helpers); the cache tag hashes
# the concatenation, so any edit to either lands in a fresh build dir.
_FULL_CDEF = _CDEF + _filter_batch_src.BATCH_CDEF + _walk_src.WALK_CDEF
_FULL_CSOURCE = (
    _CSOURCE + _filter_batch_src.BATCH_SOURCE + _walk_src.WALK_SOURCE
)

_MODULE_NAME = "_repro_engine_c"

#: (ffi, lib) once built/loaded; False after a failed attempt (so a
#: missing toolchain is probed exactly once per process).
_LIB: object = None

#: Diagnosis of the failed build attempt (None while the backend is
#: unprobed or available).  The *whole* exception chain is captured —
#: a compiler failure surfaces as ``VerificationError: ... <-
#: CompileError: ...`` — and feeds the structured fallback warning in
#: :mod:`repro.engine`; degradation stays graceful but is never
#: silent.
_LIB_ERROR: str | None = None


def _format_error_chain(exc: BaseException) -> str:
    """One line per exception in the cause/context chain, newest first
    (so the compiler's actual complaint survives cffi's wrapping)."""
    parts = []
    seen: set[int] = set()
    cur: BaseException | None = exc
    while cur is not None and id(cur) not in seen:
        seen.add(id(cur))
        parts.append("".join(
            traceback.format_exception_only(type(cur), cur)
        ).strip())
        cur = cur.__cause__ or cur.__context__
    return " <- ".join(parts)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_ENGINE_CACHE", "")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-engine"


#: Environment variables the compile honours over sysconfig's values.
_BUILD_ENV = ("CC", "CFLAGS", "CPPFLAGS", "LDFLAGS")


def _build_tag() -> str:
    """The build cache key: a hash of everything that can change the
    built artefact — the full generated source (cdef + C), the module
    name, the interpreter ABI, the cffi version, the compiler identity
    and the :data:`_BUILD_ENV` flags.  A source edit — even within one
    repo version — therefore always lands in a fresh directory, and a
    ``-fsanitize`` build never shares one with a plain build."""
    import cffi

    return hashlib.sha256("\0".join((
        _MODULE_NAME,
        _FULL_CDEF,
        _FULL_CSOURCE,
        sys.version,
        getattr(cffi, "__version__", "?"),
        str(sysconfig.get_config_var("CC") or ""),
        *(f"{name}={os.environ.get(name, '')}" for name in _BUILD_ENV),
    )).encode()).hexdigest()[:20]


#: One label's head in the buffer ``rng_derive_seed`` reads: the kind
#: byte (0 int, 1 string) and the little-endian uint64 word.
_LABEL_HEAD = struct.Struct("<BQ")


def _derive_seed_twin(c_derive, _pack=_LABEL_HEAD.pack, _u64=_U64):
    """The C twin of :func:`repro.utils.rng.derive_seed` over
    ``c_derive`` (``rng_derive_seed``): ``twin(master_seed, labels)``
    packs the labels into one buffer and crosses into C once.

    A ``str`` label packs its UTF-8 bytes (a lone surrogate raises the
    body's ``UnicodeEncodeError``) and an int label its low 64 bits.
    For a master seed whose type is not exactly ``int``, or a label
    whose type is not exactly ``str``, ``int`` or ``bool`` (a subclass
    may override ``encode`` or ``&``), it returns None, and
    ``derive_seed`` runs its Python body, which gives the value or
    raises its own ``TypeError``.
    """

    def twin(master_seed, labels):
        if type(master_seed) is not int:
            return None
        packed = b""
        for label in labels:
            kind = type(label)
            if kind is str:
                data = label.encode("utf-8")
                packed += _pack(1, len(data)) + data
            elif kind is int or kind is bool:
                packed += _pack(0, label & _u64)
            else:
                return None
        return c_derive(master_seed & _u64, packed, len(packed))

    return twin


def _bind(mod):
    """The loaded extension's ``(ffi, lib)`` pair; from here on
    :func:`repro.utils.rng.derive_seed` runs its C twin in this
    process (the one place ``repro.utils`` meets the extension)."""
    rng._c_twin = _derive_seed_twin(mod.lib.rng_derive_seed)
    return mod.ffi, mod.lib


def _load_lib():
    """Build (or load the cached build of) the extension; returns the
    ``(ffi, lib)`` pair or None when cffi/toolchain are unavailable."""
    global _LIB, _LIB_ERROR
    if _LIB is not None:
        return _LIB if _LIB is not False else None
    try:
        import importlib.util

        from cffi import FFI

        cache = _cache_dir() / _build_tag()
        sofile = next(cache.glob(f"{_MODULE_NAME}*.so"), None)
        if sofile is None:
            # Parsing the cdef costs tens of milliseconds per process
            # (pycparser), so only a build pays it: a cached artefact
            # under this tag was compiled from this exact cdef.
            ffibuilder = FFI()
            ffibuilder.cdef(_FULL_CDEF)
            ffibuilder.set_source(_MODULE_NAME, _FULL_CSOURCE)
            # Build in a private tempdir *on the cache filesystem*
            # (an os.replace across filesystems raises EXDEV and would
            # leave the cache forever empty), then publish atomically
            # so concurrent fork/spawn workers never observe a
            # half-built artefact (whoever renames first wins; losers
            # reuse it).
            cache.mkdir(parents=True, exist_ok=True)
            tmp = tempfile.mkdtemp(prefix="build-", dir=cache)
            try:
                built = Path(ffibuilder.compile(tmpdir=tmp))
                target = cache / built.name
                if not target.exists():
                    try:
                        os.replace(built, target)
                    except OSError:
                        try:
                            shutil.copy2(built, target)
                        except OSError:
                            pass
                sofile = target if target.exists() else built
                if sofile == built:
                    # Could not publish: load in place before cleanup.
                    spec = importlib.util.spec_from_file_location(
                        _MODULE_NAME, sofile
                    )
                    mod = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(mod)
                    _LIB = _bind(mod)
                    return _LIB
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        spec = importlib.util.spec_from_file_location(_MODULE_NAME, sofile)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        _LIB = _bind(mod)
    except Exception as exc:
        _LIB = False
        _LIB_ERROR = _format_error_chain(exc)
        return None
    return _LIB


def available() -> bool:
    """True when the C backend can be (or already was) built."""
    return _load_lib() is not None


def unavailable_reason() -> str | None:
    """Why the last build attempt failed (None when available or
    unprobed) — e.g. ``ModuleNotFoundError: No module named 'cffi'``."""
    _load_lib()
    return _LIB_ERROR


class CFilterState:
    """Owner of one filter's C-side arrays (keeps cffi buffers alive)."""

    __slots__ = ("ffi", "st", "_fps_buf", "_sec_buf")

    def __init__(self, ffi, flt):
        self.ffi = ffi
        b = flt.entries_per_bucket
        # A new filter's table is empty and its counters zero, and
        # ``ffi.new`` returns zeroed memory.
        slots = flt.num_buckets * b
        self._fps_buf = ffi.new("uint32_t[]", slots)
        self._sec_buf = ffi.new("uint8_t[]", slots)
        hasher = flt.hasher
        st = ffi.new("acf_state *")
        st.fps = self._fps_buf
        st.security = self._sec_buf
        st.lcg = flt._lcg
        st.fp_add = hasher._fp_add
        st.index_add = hasher._index_add
        st.alt_add = hasher._alt_add
        st.index_mask = hasher._index_mask
        st.fp_mask = hasher._fp_mask
        st.entries_per_bucket = b
        st.slot_mask = flt._slot_mask if flt._slot_mask is not None else 0
        st.has_slot_mask = 1 if flt._slot_mask is not None else 0
        st.max_kicks = flt.max_kicks
        st.threshold = flt.security_threshold
        self.st = st

    def rows(self, b: int):
        """(fps, security) as fresh lists of ``b``-slot bucket rows."""
        flat_fps = list(self._fps_buf)
        flat_sec = list(self._sec_buf)
        return (
            [flat_fps[i:i + b] for i in range(0, len(flat_fps), b)],
            [flat_sec[i:i + b] for i in range(0, len(flat_sec), b)],
        )

    def row(self, index: int, b: int):
        """(fps, security) of bucket ``index`` (``0 <= index < l``) as
        fresh ``b``-slot lists: only that bucket's slots are read."""
        at = index * b
        return (
            list(self._fps_buf[at:at + b]),
            list(self._sec_buf[at:at + b]),
        )

    def load(self, flt, fps: array, sec: bytes) -> None:
        """Write restored rows — ``fps`` a native-order ``array('I')``,
        ``sec`` one byte per slot, both row-major — and ``flt``'s
        insert-side counters into the C state (``from_bytes``)."""
        memmove = self.ffi.memmove
        memmove(self._fps_buf, fps, len(fps) * fps.itemsize)
        memmove(self._sec_buf, sec, len(sec))
        st = self.st
        st.lcg = flt._lcg
        st.valid_count = flt.valid_count
        st.autonomic_deletions = flt.autonomic_deletions
        st.total_relocations = flt.total_relocations


def install(flt) -> bool:
    """Bind a new filter to the C kernels (``repro.engine.bind_filter``).

    Gives the filter zeroed C arrays and rebinds ``access`` /
    ``access_many`` plus the storage-mode surface (``insert`` /
    ``query`` / ``delete``, their ``*_many`` batch forms, and
    ``contains``) on the *instance*; returns False (leaving the filter
    untouched) when the filter is instrumented (its shadow address sets
    have no C form; every width f = 1..32 fits the 32-bit rows) or the
    extension cannot be built.

    Batch calls cross the boundary once per ``array('Q')`` buffer
    (zero-copy via ``ffi.from_buffer``); counters sync back per the
    contract in the module docstring (insert-side counters on fresh
    insertions, ``valid_count`` on deletions, nothing on queries).
    """
    if type(flt).__name__ != "AutoCuckooFilter" or flt.instrumented:
        return False
    pair = _load_lib()
    if pair is None:
        return False
    ffi, lib = pair
    state = CFilterState(ffi, flt)
    st = state.st
    c_access = lib.acf_access
    c_access_many = lib.acf_access_many
    c_insert = lib.acf_insert
    c_query = lib.acf_query
    c_delete = lib.acf_delete
    c_insert_many = lib.acf_insert_many
    c_query_many = lib.acf_query_many
    c_delete_many = lib.acf_delete_many
    u64_new = ffi.new
    from_buffer = ffi.from_buffer

    def _key_buffer(keys):
        """(buffer, n) over a key batch — zero-copy for ``array('Q')``
        (the storage workloads' native container: cffi views the
        existing bytes), one list copy for any other iterable."""
        if isinstance(keys, array) and keys.typecode == "Q":
            return from_buffer("uint64_t[]", keys), len(keys)
        key_list = [k & _U64 for k in keys]
        return u64_new("uint64_t[]", key_list), len(key_list)

    def _sync_insert_counters(_st=st, _flt=flt):
        # Everything a fresh insertion can move; queries move nothing.
        _flt.valid_count = _st.valid_count
        _flt.autonomic_deletions = _st.autonomic_deletions
        _flt.total_relocations = _st.total_relocations
        _flt._lcg = _st.lcg

    def access(key, _c=c_access, _st=st, _flt=flt, _u64=_U64):
        r = _c(_st, key & _u64)
        _flt.total_accesses += 1
        if r == 0:
            # A Response of 0 is exactly a fresh insertion — the only
            # event that moves the insert-side counters.
            _sync_insert_counters()
        return r

    # Counter export (rules 17/18): the trace recorder attached at
    # install time receives aggregate counters folded once per batch —
    # the C call count is unchanged, and an install with no recorder
    # pays one dead ``is None`` branch per *batch*, nothing per key.
    rec = current_recorder()

    def access_many(keys, _c=c_access_many, _st=st, _flt=flt, _rec=rec):
        buf, n = _key_buffer(keys)
        rel0 = _st.total_relocations if _rec is not None else 0
        captures = _c(_st, buf, n)
        _flt.total_accesses += n
        _sync_insert_counters()
        if _rec is not None:
            _rec.count("filter.probes", n)
            if captures:
                _rec.count("filter.captures", captures)
            kicks = _st.total_relocations - rel0
            if kicks:
                _rec.count("filter.kick_steps", kicks)
        return captures

    def insert(key, _c=c_insert, _st=st, _u64=_U64):
        r = _c(_st, key & _u64)
        if r:
            _sync_insert_counters()
        return bool(r)

    def insert_many(keys, _c=c_insert_many, _st=st, _rec=rec):
        buf, n = _key_buffer(keys)
        rel0 = _st.total_relocations if _rec is not None else 0
        fresh = _c(_st, buf, n)
        _sync_insert_counters()
        if _rec is not None:
            _rec.count("filter.inserts", n)
            if fresh:
                _rec.count("filter.fresh_inserts", fresh)
            kicks = _st.total_relocations - rel0
            if kicks:
                _rec.count("filter.kick_steps", kicks)
        return fresh

    def query(key, _c=c_query, _st=st, _u64=_U64):
        return bool(_c(_st, key & _u64))

    def query_many(keys, _c=c_query_many, _st=st):
        buf, n = _key_buffer(keys)
        return _c(_st, buf, n)

    def delete(key, _c=c_delete, _st=st, _flt=flt, _u64=_U64):
        r = _c(_st, key & _u64)
        if r:
            _flt.valid_count = _st.valid_count
        return bool(r)

    def delete_many(keys, _c=c_delete_many, _st=st, _flt=flt):
        buf, n = _key_buffer(keys)
        removed = _c(_st, buf, n)
        _flt.valid_count = _st.valid_count
        return removed

    flt._c_state = state
    flt.access = access
    flt.access_many = access_many
    flt.insert = insert
    flt.insert_many = insert_many
    flt.query = query
    flt.query_many = query_many
    flt.delete = delete
    flt.delete_many = delete_many
    # ``contains`` is exactly the storage query: serve it from C
    # directly (read-only, no sync needed).
    flt.contains = query
    return True
