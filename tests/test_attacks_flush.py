"""End-to-end behaviour of the flush-based attack scenarios.

Pins the qualitative claims fig9 reports: Flush+Reload and Flush+Flush
extract the key undefended; every stateful defence collapses the loud
Flush+Reload to chance; the stealthy Flush+Flush only degrades; the
covert channel's measured capacity drops under PiPoMonitor's prefetch
response.
"""

import pytest

from repro.attacks.analysis import adaptive_warmup, key_recovery
from repro.attacks.covert_channel import (
    CovertReceiver,
    CovertSender,
    run_covert_channel,
)
from repro.attacks.flush_reload import (
    FlushFlushAttacker,
    FlushReloadAttacker,
    run_flush_attack,
)
from repro.experiments import fig9_flush_attacks

ITERATIONS = 40


def _recovery(outcome):
    return key_recovery(
        outcome.square_observed, outcome.key_bits,
        warmup=adaptive_warmup(outcome.iterations),
    )


class TestFlushReload:
    def test_baseline_extracts_the_key(self):
        outcome = run_flush_attack(
            "flush_reload", "none", iterations=ITERATIONS, seed=1
        )
        recovery = _recovery(outcome)
        assert recovery.leaks
        assert recovery.steady_accuracy > 0.9
        assert outcome.extra["flushes"] > 2 * ITERATIONS

    @pytest.mark.parametrize("defence", ["pipo", "bitp", "table"])
    def test_stateful_defences_collapse_it(self, defence):
        outcome = run_flush_attack(
            "flush_reload", defence, iterations=ITERATIONS, seed=1
        )
        recovery = _recovery(outcome)
        assert not recovery.leaks
        # The defence works by making the attacker observe activity
        # regardless of the victim.
        steady = outcome.square_observed[adaptive_warmup(ITERATIONS):]
        assert sum(steady) > 0.8 * len(steady)

    def test_pipo_acts_through_capture_and_prefetch(self):
        outcome = run_flush_attack(
            "flush_reload", "pipo", iterations=ITERATIONS, seed=1
        )
        assert outcome.monitor_stats.captures > 0
        assert outcome.monitor_stats.prefetches_issued > 0


class TestFlushFlush:
    def test_baseline_extracts_the_key(self):
        outcome = run_flush_attack(
            "flush_flush", "none", iterations=ITERATIONS, seed=1
        )
        recovery = _recovery(outcome)
        assert recovery.leaks
        assert recovery.steady_accuracy > 0.9

    def test_pipo_degrades_but_residual_structure_survives(self):
        baseline = _recovery(run_flush_attack(
            "flush_flush", "none", iterations=ITERATIONS, seed=1
        ))
        defended = _recovery(run_flush_attack(
            "flush_flush", "pipo", iterations=ITERATIONS, seed=1
        ))
        assert defended.steady_accuracy < baseline.steady_accuracy - 0.1

    def test_flush_flush_is_stealthy(self):
        """The attacker core issues no demand fetches at all — its
        probes are flushes, which never enter the filter as Accesses;
        the loud Flush+Reload attacker demand-fetches every window."""
        loud = run_flush_attack(
            "flush_reload", "pipo", iterations=ITERATIONS, seed=1
        )
        stealthy = run_flush_attack(
            "flush_flush", "pipo", iterations=ITERATIONS, seed=1
        )
        attacker_core = 0
        assert stealthy.simulation.stats.per_core_accesses[attacker_core] == 0
        assert loud.simulation.stats.per_core_accesses[attacker_core] > 0


class TestCovertChannel:
    def test_undefended_channel_is_clean(self):
        outcome = run_covert_channel("none", n_bits=48, seed=2)
        assert outcome.error_rate < 0.05
        assert outcome.effective_bandwidth > 0.9 * outcome.raw_bandwidth

    def test_pipo_collapses_capacity(self):
        clean = run_covert_channel("none", n_bits=48, seed=2)
        defended = run_covert_channel("pipo", n_bits=48, seed=2)
        assert defended.error_rate > 0.2
        assert defended.effective_bandwidth < clean.effective_bandwidth / 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            CovertSender([], window=100)
        with pytest.raises(ValueError):
            CovertSender([2], window=100)
        with pytest.raises(ValueError):
            CovertReceiver(0)

    def test_unattainable_window_is_rejected(self):
        # A window smaller than one probe's cost cannot carry a bit.
        with pytest.raises(ValueError):
            run_covert_channel("none", n_bits=4, window=200)


class TestWorkloadContracts:
    def test_attackers_require_targets(self):
        for cls in (FlushReloadAttacker, FlushFlushAttacker):
            attacker = cls(4)
            with pytest.raises(RuntimeError):
                next(attacker.generator(0, 0))

    def test_unknown_kind_and_defence_raise(self):
        with pytest.raises(ValueError):
            run_flush_attack("flush_evict", "none", iterations=2)
        with pytest.raises(ValueError):
            run_flush_attack("flush_reload", "nope", iterations=2)


class TestFig9Experiment:
    def test_runs_serial_and_parallel_identically(self):
        kwargs = dict(seed=4, iterations=24, covert_bits=24)
        serial = fig9_flush_attacks.run(jobs=1, **kwargs)
        parallel = fig9_flush_attacks.run(jobs=2, **kwargs)
        assert serial.data["detection"] == parallel.data["detection"]
        assert serial.data["covert"] == parallel.data["covert"]
        assert serial.tables == parallel.tables

    def test_cli_registration(self):
        from repro.experiments.cli import EXPERIMENTS

        assert EXPERIMENTS["fig9"] is fig9_flush_attacks
        import inspect

        assert "jobs" in inspect.signature(fig9_flush_attacks.run).parameters

    def test_reports_detection_for_all_cells(self):
        result = fig9_flush_attacks.run(seed=4, iterations=24, covert_bits=24)
        detection = result.data["detection"]
        for attack in ("flush_reload", "flush_flush"):
            for defence in ("none", "pipo", "bitp"):
                assert (attack, defence) in detection
        assert set(result.data["covert"]) == {"none", "pipo"}
