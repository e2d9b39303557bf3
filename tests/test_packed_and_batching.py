"""Packed-line bit-field round-trips and emission equivalence.

Two contracts of the array-native engine are pinned here:

* the packed line word (see :mod:`repro.cache.line`) round-trips every
  field at its boundaries, with full-width tags (the dict key) never
  colliding with any field, and lines leave the arrays only as
  detached snapshots;
* every synthetic workload class, SPEC wrappers included, emits the
  *identical* record stream through its generator and through the C
  run loop's emitter, and a system of it runs to the identical result
  on the C loop and on the Python loop — and the filter's batched
  entry point leaves identical table state.
"""

import itertools

import pytest

from repro.cache.line import (
    SHARERS_BITS,
    CacheLine,
    decode_sharers,
    pack_line,
    unpack_line,
)
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache
from repro.core.config import TABLE_II
from repro.cpu.core import Core
from repro.cpu.system import run_workloads
from repro.engine import available_engines, c_cache
from repro.experiments.common import scaled_system_config
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.workloads.spec import spec_workload
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)


class TestPackedLineRoundTrip:
    def test_field_boundaries(self):
        max_sharers = (1 << SHARERS_BITS) - 1
        for state, dirty, pingpong, accessed in itertools.product(
            (0, 1, 2, 3), (False, True), (False, True), (False, True)
        ):
            for sharers in (0, 1, 1 << (SHARERS_BITS - 1), max_sharers):
                for version in (0, 1, (1 << 40) - 1, 1 << 52):
                    word = pack_line(
                        state=state, version=version, dirty=dirty,
                        pingpong=pingpong, accessed=accessed, sharers=sharers,
                    )
                    assert unpack_line(word) == {
                        "dirty": dirty, "pingpong": pingpong,
                        "accessed": accessed, "state": state,
                        "sharers": sharers, "version": version,
                    }

    def test_version_is_open_ended(self):
        # The version field has no upper boundary: a huge write stamp
        # must not corrupt any lower field.
        word = pack_line(state=3, version=1 << 200, dirty=True,
                         sharers=(1 << SHARERS_BITS) - 1)
        fields = unpack_line(word)
        assert fields["version"] == 1 << 200
        assert fields["state"] == 3 and fields["dirty"]
        assert fields["sharers"] == (1 << SHARERS_BITS) - 1

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_line(state=4)
        with pytest.raises(ValueError):
            pack_line(sharers=1 << SHARERS_BITS)
        with pytest.raises(ValueError):
            pack_line(version=-1)

    def test_cacheline_object_round_trip(self):
        fields = {"state": 2, "version": 7, "dirty": True, "pingpong": True,
                  "accessed": False, "sharers": 0b1010}
        line = CacheLine(0xDEAD, pack_line(**fields), 9)
        for field, value in fields.items():
            assert getattr(line, field) == value
        assert (line.addr, line.stamp) == (0xDEAD, 9)
        assert line.sharer_list() == [1, 3]

    def test_decode_sharers(self):
        assert decode_sharers(0) == []
        assert decode_sharers(0b1011) == [0, 1, 3]
        assert decode_sharers(1 << 15) == [15]

    def test_max_width_tags_survive_the_array(self):
        # Tags live in the dict key, so a full-width line address must
        # survive fill → lookup → evict untouched at any width.
        cache = SetAssociativeCache(CacheGeometry(1024, 2), name="wide")
        sets = cache.num_sets
        wide = (1 << 58) + 5  # same set as the addresses below
        cache.insert(wide, version=3)
        line = cache.lookup(wide)
        assert isinstance(line, CacheLine)
        assert line.addr == wide and line.version == 3
        victims = []
        for way in range(4):
            _, victim = cache.insert(wide + (way + 1) * sets)
            if victim is not None:
                victims.append(victim.addr)
        assert wide in victims  # LRU evicts the oldest, full width intact

    def test_introspection_returns_snapshots(self, repro_engine):
        # Lines leave the arrays only as detached snapshots: writing to
        # one changes neither the word nor the stamp (nor, under c, the
        # mirror of the C arrays).
        h = TABLE_II.build_hierarchy(seed=0)
        h.engine_access()(0, 1, 0x40, 0)  # line 1, written: on every level
        l1 = h.l1d[0]
        sl = h.llc.slice_for(1)
        taken = [
            l1.lookup(1),
            h.llc.lookup(1),
            *[line for line in sl.lines() if line.addr == 1],
            *[line for line in h.llc.set_lines(1) if line.addr == 1],
        ]
        assert len(taken) == 4
        before = [
            (cache._map[1], cache._sets[1 & cache._set_mask][1])
            for cache in (l1, sl)
        ]
        for line in taken:
            line.state ^= 0b11
            line.dirty = not line.dirty
            line.pingpong = not line.pingpong
            line.sharers ^= 0b1111
            line.version += 1
            line.stamp = 0
        h.engine_sync()
        assert [
            (cache._map[1], cache._sets[1 & cache._set_mask][1])
            for cache in (l1, sl)
        ] == before


def _first_records(workload, n, core_id=1, seed=99):
    gen = workload.generator(core_id, seed)
    records = []
    item = next(gen)
    while len(records) < n:
        records.append(item)
        try:
            item = gen.send(0)
        except StopIteration:
            break
    return records


WORKLOADS = [
    StreamWorkload(256 * 1024, conflict_lines=8, conflict_fraction=0.05),
    RandomWorkload(128 * 1024),
    PointerChaseWorkload(64 * 1024),
    StencilWorkload(128 * 1024),
    HotColdWorkload(256 * 1024, hot_bytes=32 * 1024),
    spec_workload("libquantum"),
    spec_workload("sphinx3"),
]


class TestBatchEmissionEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
    def test_c_emitter_matches_generator(self, workload):
        # The C run loop's emitter (PERFORMANCE.md rule 19), SpecWorkload
        # wrappers included, against the generator.
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        n = 1500
        assert c_cache.emit_records(workload, 1, 99, n) == _first_records(workload, n)

    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
    def test_c_loop_matches_python_loop(self, workload, monkeypatch):
        # Every core runs this stream: bound with its source, the run
        # never steps a Python core; under REPRO_BATCH=0 (no source) it
        # keeps the Python loop.  Both give the same result.
        if "c" not in available_engines():
            pytest.skip("C backend unavailable (no cffi/toolchain)")
        monkeypatch.setenv("REPRO_ENGINE", "c")
        config = scaled_system_config(False)
        workloads = [workload] * config.num_cores

        def run(with_source):
            monkeypatch.setenv("REPRO_BATCH", "1" if with_source else "0")
            return run_workloads(config, workloads, 20_000, seed=4)

        def refuse(self, budget):
            raise AssertionError("the Python loop stepped a core")

        with monkeypatch.context() as patched:
            patched.setattr(Core, "step", refuse)
            native = run(True)
        reference = run(False)
        assert min(reference.core_memory_ops) > 0
        assert native == reference
        assert native.extra == reference.extra


def _lcg_keys(n, mod, seed=0xABCDE):
    state = seed
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append((state >> 20) % mod)
    return out


class TestFilterAccessManyEquivalence:
    def _keys(self, n, mod):
        return _lcg_keys(n, mod)

    @pytest.mark.parametrize("mod", [1 << 11, 1 << 14], ids=["hits", "saturated"])
    def test_state_identical(self, mod):
        keys = self._keys(30_000, mod)
        serial = AutoCuckooFilter(seed=5, instrument=True)
        batched = AutoCuckooFilter(seed=5, instrument=True)
        threshold = serial.security_threshold
        captures = sum(1 for k in keys if serial.access(k) >= threshold)
        assert batched.access_many(keys) == captures
        assert serial._fps == batched._fps
        assert serial._security == batched._security
        assert serial._addresses == batched._addresses
        assert serial._lcg == batched._lcg
        assert serial.valid_count == batched.valid_count
        assert serial.total_accesses == batched.total_accesses
        assert serial.total_relocations == batched.total_relocations
        assert serial.autonomic_deletions == batched.autonomic_deletions

    def test_wide_fingerprint_fallback(self, built_under):
        keys = self._keys(4_000, 1 << 13)
        with built_under("python"):
            serial = AutoCuckooFilter(fingerprint_bits=20, seed=2)
        batched = AutoCuckooFilter(fingerprint_bits=20, seed=2)
        assert serial._alt_xor is None  # table gated off above 16 bits
        threshold = serial.security_threshold
        captures = sum(1 for k in keys if serial.access(k) >= threshold)
        assert batched.access_many(keys) == captures
        assert serial.snapshot() == batched.snapshot()


@pytest.mark.usefixtures("repro_engine")
class TestEngineBatchedFilterEquivalence:
    """The engine seam's per-Access entry point and the batched
    ``access_many`` path must leave identical table state under every
    engine (python, and c when buildable) — the filter-side
    half of the kernel-admissibility contract, replayed per engine via
    the shared ``repro_engine`` fixture."""

    @pytest.mark.parametrize("mod", [1 << 11, 1 << 14], ids=["hits", "saturated"])
    def test_engine_access_matches_generic(self, built_under, mod):
        keys = _lcg_keys(20_000, mod)
        with built_under("python"):
            reference = AutoCuckooFilter(seed=5)
        engined = AutoCuckooFilter(seed=5)
        threshold = reference.security_threshold
        access = engined.engine_batch().access
        expected = [reference.access(k) for k in keys]
        assert [access(k) for k in keys] == expected
        assert reference.snapshot() == engined.snapshot()

        # And the batched entry point on a third twin: same captures,
        # same state (under the c engine this is the C batch kernel).
        batched = AutoCuckooFilter(seed=5)
        captures = sum(1 for r in expected if r >= threshold)
        assert batched.access_many(keys) == captures
        assert reference.snapshot() == batched.snapshot()
