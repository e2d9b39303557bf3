"""Ablation — which unspecified hardware choices Fig. 6(b) depends on.

The paper fixes the Auto-Cuckoo filter precisely but leaves two system
parameters open: the LLC replacement policy and the pEvict→prefetch
delay.  This ablation runs the Fig. 6 attack across both axes and
quantifies this finding:

* under **strict LRU** the attacker's probe deterministically
  re-victimises the prefetched (not-yet-touched) line; the
  no-endless-prefetch rule then suppresses re-prefetch and zero-bit
  runs leak — the defense *underperforms the baseline's obfuscation*;
* with bounded replacement nondeterminism (``lru_rand``, modelling
  tree-PLRU/NRU-class imprecision) and a delay that clears the probe
  walk, the paper's behaviour emerges: the attacker observes accesses
  every iteration and key recovery collapses to chance.

Output: steady-state key-recovery accuracy per (policy, delay) cell,
plus the baseline (no-monitor) accuracy per policy for reference.
"""

from __future__ import annotations

from dataclasses import replace

from repro.attacks.analysis import adaptive_warmup, key_recovery
from repro.attacks.primeprobe import run_prime_probe_attack
from repro.core.config import TABLE_II
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import run_cells

POLICIES = ("lru", "lru_rand", "random")
DELAYS = (40, 1500)


def _run_cell(cell):
    """One full attack run; ``delay is None`` is the undefended
    baseline for that LLC policy.  Module-level for the parallel
    runner; the attack derives all randomness from ``seed``."""
    policy, delay, iterations, seed = cell
    config = replace(TABLE_II, llc_policy=policy)
    warmup = adaptive_warmup(iterations)
    if delay is None:
        outcome = run_prime_probe_attack(
            monitor_enabled=False, iterations=iterations, seed=seed,
            config=config,
        )
        recovery = key_recovery(
            outcome.square_observed, outcome.key_bits, warmup=warmup
        )
        return policy, delay, recovery, None
    outcome = run_prime_probe_attack(
        monitor_enabled=True, iterations=iterations, seed=seed,
        config=replace(config, prefetch_delay=delay),
    )
    recovery = key_recovery(
        outcome.square_observed, outcome.key_bits, warmup=warmup
    )
    observed = sum(outcome.square_observed) / iterations
    return policy, delay, recovery, observed


def run(
    seed: int = 0,
    full: bool | None = None,
    iterations: int = 100,
    jobs: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        "ablate-defense",
        "Fig. 6 outcome vs LLC replacement policy and prefetch delay",
    )
    cells = [
        (policy, delay, iterations, seed)
        for policy in POLICIES
        for delay in (None, *DELAYS)
    ]
    outcomes = run_cells(cells, _run_cell, jobs=jobs, label="ablation")
    recoveries = {
        (policy, delay): (recovery, observed)
        for policy, delay, recovery, observed in outcomes
    }

    baseline_rows = []
    defended_rows = []
    data: dict = {"baseline": {}, "defended": {}}
    for policy in POLICIES:
        base_recovery, _ = recoveries[(policy, None)]
        baseline_rows.append([
            policy,
            round(base_recovery.steady_accuracy, 3),
            base_recovery.leaks,
        ])
        data["baseline"][policy] = base_recovery
        row = [policy]
        for delay in DELAYS:
            recovery, observed = recoveries[(policy, delay)]
            row.extend([
                round(recovery.steady_accuracy, 3),
                round(observed, 2),
            ])
            data["defended"][(policy, delay)] = recovery
        defended_rows.append(row)

    result.add_table(
        "baseline attack (no monitor) per policy",
        ["LLC policy", "steady accuracy", "leaks"],
        baseline_rows,
    )
    headers = ["LLC policy"]
    for delay in DELAYS:
        headers.extend([f"acc (delay={delay})", f"observed (delay={delay})"])
    result.add_table(
        "defended (PiPoMonitor) steady accuracy / square-set observation rate",
        headers,
        defended_rows,
    )
    result.add_note(
        "the committed default (lru_rand, delay=1500) is the cell that "
        "reproduces the paper: baseline leaks, defense collapses "
        "recovery to the majority baseline while the attacker observes "
        "activity nearly every iteration"
    )
    result.data.update(data)
    return result


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
