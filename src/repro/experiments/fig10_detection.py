"""Fig. 10 (extension) — the online detection & response subsystem.

The paper ends its detection story at "PiPoMonitor can further inform
the OS so that the suspicious process can be handled".  This
experiment measures that step end to end:

* **ROC surface** — for every attack scenario (Prime+Probe,
  Flush+Reload, Flush+Flush, the covert channel, and the *adaptive*
  Flush+Reload variant that backs off under throttling), the
  detection rate and median detection latency of the windowed
  pEvict-rate detector, against its false-positive rate on the
  Table III benign mixes — swept over the filter's pEvict threshold
  (``secThr``) and the detector's window/threshold.  One simulation
  per (scenario, secThr, seed) records the alarm stream; every
  detector operating point replays that stream offline (detectors are
  pure functions of the stream, so offline == online verdicts).
* **Detector comparison** — rate vs per-region EWMA vs cross-core
  correlation at a fixed operating point.  The correlation detector
  is blind to Flush+Flush by construction (the attacker never holds
  the line) — the reason a deployment layers detectors.
* **Response comparison** — the covert channel run *online* under
  each response policy (log / flush_suspect / throttle_core /
  isolate) with PiPoMonitor in detect-only mode, so the policy's own
  effect on the measured channel capacity is isolated from the
  hardware prefetch response; plus the adaptive attacker under
  ``throttle_core``, whose probe-rate collapse is the response's
  measurable win even when key recovery was already broken.

Every simulation is an independent cell fanned out through
:mod:`repro.experiments.parallel` (``--jobs``), bit-identical across
engines (``--engine``).
"""

from __future__ import annotations

from dataclasses import replace
from statistics import median

from repro.attacks.covert_channel import run_covert_channel
from repro.attacks.flush_reload import run_flush_attack
from repro.attacks.primeprobe import run_prime_probe_attack
from repro.core.config import TABLE_II
from repro.cpu.system import run_workloads
from repro.detection import DetectionSpec, build_detector, replay
from repro.experiments.common import (
    ExperimentResult,
    scaled_mix_workloads,
    scaled_system_config,
)
from repro.experiments.parallel import run_cells

#: Attack scenario families on the ROC surface.
ATTACKS = (
    "prime_probe", "flush_reload", "flush_flush", "adaptive", "covert"
)
ATTACK_LABELS = {
    "prime_probe": "Prime+Probe",
    "flush_reload": "Flush+Reload",
    "flush_flush": "Flush+Flush",
    "adaptive": "Adaptive F+R",
    "covert": "covert channel",
}

#: Swept pEvict (capture) thresholds — the filter's secThr.
SECTHRS = (2, 3)
#: Swept rate-detector operating points (threshold 2 is the
#: deliberately aggressive edge where benign false verdicts appear).
WINDOWS = (5000, 12000, 24000)
RATE_THRESHOLDS = (2, 3, 5, 8)

#: Benign side of the ROC: Table III mixes under the same monitor.
BENIGN_MIXES = ("mix1", "mix2")

#: Detector comparison entries (name, params) at the fixed point.
DETECTOR_PANEL = (
    ("rate", {"window": 12000, "threshold": 3}),
    ("ewma", {}),
    ("xcore", {}),
)
#: secThr the detector panel reads its streams at (must stay in the
#: SECTHRS sweep — asserted in ``run`` so editing one flags the other).
PANEL_SECTHR = 3

#: Response comparison policies (the online leg).
RESPONSE_POLICIES = ("log", "flush_suspect", "throttle_core", "isolate")
#: Operating point the online response runs detect with.
RESPONSE_DETECTOR = ("rate", {"window": 12000, "threshold": 3})


def _attack_config(secthr: int):
    return replace(
        TABLE_II,
        filter=replace(TABLE_II.filter, security_threshold=secthr),
    )


def _log_only_spec() -> DetectionSpec:
    """Record the alarm stream; run no online detectors."""
    return DetectionSpec(detectors=(), response="log", log_alarms=True)


def _run_alarm_cell(cell):
    """One simulation recording its alarm stream (module-level for the
    process fan-out)."""
    what, secthr, iterations, covert_bits, benign_insns, seed = cell
    spec = _log_only_spec()
    config = _attack_config(secthr)
    if what == "prime_probe":
        outcome = run_prime_probe_attack(
            True, iterations=iterations, seed=seed, config=config,
            detection=spec,
        )
        simulation = outcome.simulation
    elif what in ("flush_reload", "flush_flush"):
        outcome = run_flush_attack(
            what, "pipo", iterations=iterations, seed=seed, config=config,
            detection=spec,
        )
        simulation = outcome.simulation
    elif what == "adaptive":
        outcome = run_flush_attack(
            "adaptive_flush_reload", "pipo", iterations=iterations,
            seed=seed, config=config, detection=spec,
        )
        simulation = outcome.simulation
    elif what == "covert":
        outcome = run_covert_channel(
            "pipo", n_bits=covert_bits, window=3000, seed=seed,
            config=config, detection=spec,
        )
        simulation = outcome.simulation
    elif what.startswith("benign:"):
        mix = what.split(":", 1)[1]
        simulation = run_workloads(
            scaled_system_config(False, security_threshold=secthr),
            scaled_mix_workloads(mix, False), benign_insns, seed=seed,
            defence="pipo", detection=spec,
        )
    else:
        raise ValueError(f"unknown cell kind {what!r}")
    detection = simulation.extra["detection"]
    return {
        "what": what,
        "secthr": secthr,
        "seed": seed,
        "alarms": detection["alarm_log"],
        "cycles": simulation.max_time,
        "instructions": simulation.total_instructions,
    }


def _run_response_cell(cell):
    """One online response-policy simulation (module-level)."""
    what, policy, iterations, covert_bits, seed = cell
    spec = DetectionSpec(
        detectors=(RESPONSE_DETECTOR,), response=policy, log_alarms=False
    )
    if what == "covert":
        # Detect-only PiPoMonitor: the policy is the *only* response,
        # so the capacity delta below is the policy's own effect.
        outcome = run_covert_channel(
            "pipo_detect", n_bits=covert_bits, window=3000, seed=seed,
            detection=spec,
        )
        detection = outcome.simulation.extra["detection"]
        return {
            "what": what,
            "policy": policy,
            "error_rate": outcome.error_rate,
            "effective_bandwidth": outcome.effective_bandwidth,
            "raw_bandwidth": outcome.raw_bandwidth,
            "verdicts": detection["verdicts"],
            "response_summary": detection["response_summary"],
        }
    outcome = run_flush_attack(
        "adaptive_flush_reload", "pipo", iterations=iterations, seed=seed,
        detection=spec,
    )
    detection = outcome.simulation.extra["detection"]
    observed = sum(outcome.square_observed) / max(1, iterations)
    return {
        "what": what,
        "policy": policy,
        "probe_rate": outcome.extra["probe_rate"],
        "backoff_events": outcome.extra["backoff_events"],
        "square_observed_fraction": observed,
        "verdicts": detection["verdicts"],
        "response_summary": detection["response_summary"],
    }


def _replay_point(alarms, window: int, threshold: int):
    """Offline-replay one stream through a fresh rate detector."""
    detector = build_detector("rate", {"window": window, "threshold": threshold})
    return replay(alarms, [detector])


def run(
    seed: int = 0,
    full: bool | None = None,
    iterations: int = 32,
    covert_bits: int = 48,
    benign_instructions: int = 60_000,
    seeds: int = 3,
    jobs: int | None = None,
) -> ExperimentResult:
    """Run the detection ROC surface plus the response comparison."""
    if full:
        iterations = max(iterations, 64)
        covert_bits = max(covert_bits, 96)
        benign_instructions = max(benign_instructions, 120_000)
    cell_seeds = [seed + i for i in range(seeds)]
    # Cell-tuple discipline: the seed is the final element, so failure
    # reports can name it (repro.experiments.parallel._cell_seed).
    alarm_cells = [
        (what, secthr, iterations, covert_bits, benign_instructions, s)
        for secthr in SECTHRS
        for what in ATTACKS
        for s in cell_seeds
    ] + [
        (f"benign:{mix}", secthr, iterations, covert_bits,
         benign_instructions, s)
        for secthr in SECTHRS
        for mix in BENIGN_MIXES
        for s in cell_seeds
    ]
    response_cells = [
        ("covert", policy, iterations, covert_bits, seed)
        for policy in RESPONSE_POLICIES
    ] + [
        ("adaptive", policy, iterations, covert_bits, seed)
        for policy in ("log", "throttle_core")
    ]

    streams = run_cells(
        alarm_cells, _run_alarm_cell, jobs=jobs, label="fig10_alarms"
    )
    responses = run_cells(
        response_cells, _run_response_cell, jobs=jobs,
        label="fig10_responses",
    )

    result = ExperimentResult(
        "fig10", "Online detection & response: ROC surface and OS policies"
    )

    # ---- ROC sweep (offline replay of the recorded streams) ----
    attack_streams: dict[tuple, list[dict]] = {}
    benign_streams: dict[int, list[dict]] = {}
    for record in streams:
        if record["what"].startswith("benign:"):
            benign_streams.setdefault(record["secthr"], []).append(record)
        else:
            attack_streams.setdefault(
                (record["what"], record["secthr"]), []
            ).append(record)

    roc_rows = []
    roc_data = []
    best_point = None
    for secthr in SECTHRS:
        for window in WINDOWS:
            for threshold in RATE_THRESHOLDS:
                rates = {}
                latencies = []
                for what in ATTACKS:
                    detected = 0
                    runs = attack_streams[(what, secthr)]
                    for record in runs:
                        verdicts = _replay_point(
                            record["alarms"], window, threshold
                        )
                        if verdicts:
                            detected += 1
                            latencies.append(verdicts[0].latency)
                    rates[what] = detected / len(runs)
                benign_verdicts = 0
                benign_cycles = 0
                benign_insns = 0
                for record in benign_streams[secthr]:
                    benign_verdicts += len(
                        _replay_point(record["alarms"], window, threshold)
                    )
                    benign_cycles += record["cycles"]
                    benign_insns += record["instructions"]
                fp_per_mcycle = benign_verdicts * 1_000_000 / benign_cycles
                fp_per_minsn = benign_verdicts * 1_000_000 / benign_insns
                point = {
                    "secthr": secthr,
                    "window": window,
                    "threshold": threshold,
                    "rates": rates,
                    "min_rate": min(rates.values()),
                    "median_latency": (
                        int(median(latencies)) if latencies else None
                    ),
                    "fp_per_mcycle": fp_per_mcycle,
                    "fp_per_minsn": fp_per_minsn,
                }
                roc_data.append(point)
                if point["min_rate"] >= 0.9 and (
                    best_point is None
                    or fp_per_mcycle < best_point["fp_per_mcycle"]
                ):
                    best_point = point
                roc_rows.append([
                    secthr, window, threshold,
                    *(round(rates[w], 2) for w in ATTACKS),
                    point["median_latency"]
                    if point["median_latency"] is not None else "-",
                    round(fp_per_mcycle, 2),
                ])
    result.add_table(
        f"ROC sweep — rate detector over {seeds} seeds/scenario "
        f"(detection rate per scenario; FP on {'+'.join(BENIGN_MIXES)})",
        ["secThr", "window", "thresh",
         *(ATTACK_LABELS[w] for w in ATTACKS),
         "med latency", "FP/Mcycle"],
        roc_rows,
    )

    # ---- Detector comparison at the fixed operating point ----
    assert PANEL_SECTHR in SECTHRS, "panel secThr must be in the sweep"
    panel_rows = []
    panel_data = {}
    for name, params in DETECTOR_PANEL:
        row = [name]
        per = {}
        for what in ATTACKS:
            detected = 0
            runs = attack_streams[(what, PANEL_SECTHR)]
            for record in runs:
                detector = build_detector(name, dict(params))
                if replay(record["alarms"], [detector]):
                    detected += 1
            per[what] = detected / len(runs)
            row.append(round(per[what], 2))
        panel_data[name] = per
        panel_rows.append(row)
    result.add_table(
        f"detector comparison at secThr={PANEL_SECTHR} (detection rate)",
        ["detector", *(ATTACK_LABELS[w] for w in ATTACKS)],
        panel_rows,
    )

    # ---- Response comparison (online) ----
    covert_rows = []
    covert_data = {}
    adaptive_data = {}
    for record in responses:
        if record["what"] == "covert":
            covert_data[record["policy"]] = record
            covert_rows.append([
                record["policy"],
                round(record["error_rate"], 3),
                round(record["effective_bandwidth"], 2),
                record["verdicts"],
            ])
        else:
            adaptive_data[record["policy"]] = record
    result.add_table(
        f"covert channel ({covert_bits} bits, detect-only monitor) "
        "under each response policy",
        ["response", "bit error rate", "effective bits/Mcycle", "verdicts"],
        covert_rows,
    )
    result.add_table(
        "adaptive Flush+Reload vs throttle_core",
        ["response", "probe rate", "backoffs", "square observed", "verdicts"],
        [
            [
                policy,
                round(record["probe_rate"], 2),
                record["backoff_events"],
                round(record["square_observed_fraction"], 2),
                record["verdicts"],
            ]
            for policy, record in sorted(adaptive_data.items())
        ],
    )

    log_bw = covert_data["log"]["effective_bandwidth"]
    for policy in ("flush_suspect", "isolate", "throttle_core"):
        bw = covert_data[policy]["effective_bandwidth"]
        result.add_note(
            f"{policy} cuts covert capacity {log_bw:.1f} -> {bw:.1f} "
            f"bits/Mcycle ({'%.0fx' % (log_bw / bw) if bw else 'to zero'})"
        )
    if best_point is not None:
        result.add_note(
            "best operating point: secThr={secthr}, window={window}, "
            "threshold={threshold} detects every scenario "
            "(min rate {rate:.2f}) at {fp:.2f} false verdicts/Mcycle, "
            "median latency {lat} cycles".format(
                secthr=best_point["secthr"],
                window=best_point["window"],
                threshold=best_point["threshold"],
                rate=best_point["min_rate"],
                fp=best_point["fp_per_mcycle"],
                lat=best_point["median_latency"],
            )
        )
    else:
        result.add_note(
            "no swept operating point detected every scenario at "
            "rate >= 0.9 — widen the sweep"
        )
    if "throttle_core" in adaptive_data and "log" in adaptive_data:
        result.add_note(
            "throttle_core drives the adaptive attacker's probe rate "
            f"{adaptive_data['log']['probe_rate']:.2f} -> "
            f"{adaptive_data['throttle_core']['probe_rate']:.2f} "
            f"({adaptive_data['throttle_core']['backoff_events']} backoffs)"
        )

    result.data["roc"] = roc_data
    result.data["best_point"] = best_point
    result.data["detector_panel"] = panel_data
    result.data["responses"] = {"covert": covert_data, "adaptive": adaptive_data}
    result.data["seeds"] = seeds
    return result


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
