"""The LSM filter-tree workload family (``repro.workloads.lsm``).

Covers the deterministic stream generators (zipf ranks, even/odd key
spaces), the tree mechanics (flushes, compaction rebuilds, filter-purge
deletes), cross-engine state identity, and the ``lsm`` experiment's
scaled path.
"""

from array import array

import pytest

from repro.experiments import fig_lsm
from repro.utils.rng import derive_seed
from repro.workloads.lsm import (
    LSMFilterTree,
    ZipfRanks,
    filter_state_digest,
    probe_key,
    resident_key,
)


class TestKeySpaces:
    def test_resident_and_probe_spaces_are_disjoint(self):
        salt = derive_seed(3, "t")
        residents = {resident_key(i, salt) for i in range(2000)}
        probes = {probe_key(i, salt) for i in range(2000)}
        assert not residents & probes
        assert all(key % 2 == 0 for key in residents)
        assert all(key % 2 == 1 for key in probes)

    def test_keys_fit_uint64(self):
        salt = derive_seed(9, "t")
        arr = array("Q", (resident_key(i, salt) for i in range(100)))
        assert len(arr) == 100


class TestZipfRanks:
    def test_deterministic_and_bounded(self):
        a = ZipfRanks(theta=0.8, seed=42).draw(5000, 1000)
        b = ZipfRanks(theta=0.8, seed=42).draw(5000, 1000)
        assert a == b
        assert all(0 <= rank < 1000 for rank in a)

    def test_stream_advances_across_draws(self):
        gen = ZipfRanks(theta=0.8, seed=42)
        first = gen.draw(100, 1000)
        second = gen.draw(100, 1000)
        assert first != second

    def test_skew_toward_low_ranks(self):
        ranks = ZipfRanks(theta=0.9, seed=7).draw(20_000, 10_000)
        hot = sum(1 for rank in ranks if rank < 100)
        cold = sum(1 for rank in ranks if rank >= 5000)
        # The hottest 1% of the rank space draws several times the
        # whole cold half, and over a quarter of all draws.
        assert hot > 3 * cold
        assert hot > len(ranks) // 4

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            ZipfRanks(theta=0.0)
        with pytest.raises(ValueError):
            ZipfRanks(theta=1.0)
        with pytest.raises(ValueError):
            ZipfRanks().draw(1, 0)


def _loaded_tree(keys=6000, fpp=1e-2, seed=5, **kwargs):
    tree = LSMFilterTree(
        memtable_size=kwargs.pop("memtable_size", 512),
        fanout=4, levels=3, fpp=fpp, seed=seed, **kwargs,
    )
    salt = derive_seed(seed, "tree-keys")
    tree.put_many(array("Q", (resident_key(i, salt) for i in range(keys))))
    tree.flush_pending()
    return tree, salt


class TestLSMFilterTree:
    def test_counters_and_flush_accounting(self):
        tree, _ = _loaded_tree()
        stats = tree.stats()
        assert stats["puts"] == 6000
        assert stats["memtable_pending"] == 0
        assert stats["flushes"] == 12  # 11 full memtables + the tail
        assert stats["compactions"] >= 1
        assert sum(
            level["resident_keys"] for level in stats["levels"]
        ) == 6000

    def test_no_false_negatives_without_deletions(self):
        tree, salt = _loaded_tree()
        assert all(
            level["autonomic_deletions"] == 0
            for level in tree.stats()["levels"]
        )
        batch = array("Q", (resident_key(i, salt) for i in range(6000)))
        # Every resident key is present in at least the level that
        # holds it, so the per-level counts sum to >= the batch size.
        assert sum(tree.get_many(batch)) >= 6000

    def test_delete_purges_filters_not_runs(self):
        tree, salt = _loaded_tree()
        victims = array("Q", (resident_key(i, salt) for i in range(200)))
        before = sum(
            level.filter.valid_count for level in tree.levels
        )
        removed = tree.delete_many(victims)
        assert removed >= 200  # each victim resident somewhere
        assert tree.deletes_removed == removed
        after = sum(level.filter.valid_count for level in tree.levels)
        assert after == before - removed
        # The key runs keep the records (tombstone-free model).
        assert sum(
            len(level.keys) for level in tree.levels
        ) == 6000

    def test_compaction_rebuild_restores_purged_keys(self):
        tree, salt = _loaded_tree()
        victims = array("Q", (resident_key(i, salt) for i in range(100)))
        assert tree.delete_many(victims) >= 100
        compactions = tree.compactions
        # Push enough fresh keys to force every level to compact at
        # least once more; the rebuilds re-insert the purged keys.
        extra_salt = derive_seed(99, "extra")
        tree.put_many(array("Q", (
            resident_key(i, extra_salt) for i in range(20_000)
        )))
        tree.flush_pending()
        assert tree.compactions > compactions
        assert sum(tree.get_many(victims)) >= 100

    def test_false_positive_counts_are_plausible(self):
        tree, _ = _loaded_tree(fpp=1e-2)
        counts = tree.false_positive_counts(20_000)
        assert len(counts) == 3
        # Analytic ceiling with generous slack: 2b/2^f per level.
        assert all(count <= 20_000 * 0.01 * 3 + 10 for count in counts)

    def test_stats_and_digests_deterministic(self):
        a, _ = _loaded_tree(seed=13)
        b, _ = _loaded_tree(seed=13)
        assert a.stats() == b.stats()
        assert a.filter_digests() == b.filter_digests()
        c, _ = _loaded_tree(seed=14)
        assert c.filter_digests() != a.filter_digests()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LSMFilterTree(memtable_size=0)
        with pytest.raises(ValueError):
            LSMFilterTree(fanout=1)
        with pytest.raises(ValueError):
            LSMFilterTree(levels=0)

    def test_digest_matches_snapshot_identity(self):
        tree, _ = _loaded_tree()
        flt = tree.levels[0].filter
        assert filter_state_digest(flt) == filter_state_digest(flt)


class TestCrossEngine:
    def test_tree_state_identical_across_engines(self, built_under):
        from repro.engine import available_engines

        results = {}
        for engine in available_engines():
            # Each level's filter binds the engine selected when the
            # level is built, compaction rebuilds included.
            with built_under(engine):
                tree, salt = _loaded_tree(keys=4000, seed=17)
                batch = array("Q", (
                    resident_key(i, salt) for i in range(500)
                ))
                removed = tree.delete_many(batch)
            assert all(
                (level.filter._c_state is not None) == (engine == "c")
                for level in tree.levels
            )
            results[engine] = (tree.stats(), tree.filter_digests(), removed)
        assert len(set(map(repr, results.values()))) == 1


class TestLsmExperiment:
    def test_scaled_run_smoke(self, tmp_path, monkeypatch):
        result = fig_lsm.run(seed=2, keys=12_000, stamp=False)
        assert result.experiment_id == "lsm"
        cells = result.data["cells"]
        assert [cell["fpp"] for cell in cells] == list(fig_lsm.FPP_SWEEP)
        for cell in cells:
            assert cell["stats"]["puts"] == 12_000
            assert len(cell["digests"]) == 4
            # fpp worst case stays within a loose multiple of target
            # (tiny probe counts at this scale → wide tolerance).
            assert max(cell["measured_fpp"]) <= cell["fpp"] * 10 + 1e-3
        text = result.to_text()
        assert "fpp sweep" in text
        # stamp=False must not mention the trajectory.
        assert "trajectory" not in text

    def test_wide_fp_cell_derives_f17(self):
        result = fig_lsm.run(seed=2, keys=6_000, stamp=False)
        widest = result.data["cells"][-1]
        assert widest["fpp"] == 1e-4
        assert widest["fingerprint_bits"] == 17
