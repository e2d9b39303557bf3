"""Fleet-level detection statistics — sufficient statistics only.

A campaign sweep (``repro-experiment campaign``) runs up to millions of
tenant simulations; materializing per-run detection records would make
memory grow with the fleet.  :class:`FleetDetectionStats` keeps the
whole detection/FP story in **fixed-size sufficient statistics**:

* **attack strata** — keyed by ``(attack kind, secThr, detector)``:
  tenant count, detected count, and a fixed-size
  :class:`~repro.utils.stats.QuantileSketch` of first-detection
  latencies (cycles);
* **benign strata** — keyed by ``(secThr, detector)``: tenant count,
  false verdicts, and total simulated cycles/instructions, from which
  false-positive rates per Mcycle/Minsn follow.

Every fold is a pure function of the observed record, so folding the
same records in the same order reproduces :meth:`state` bit-exactly —
the invariant the campaign's resume-equivalence digest checks.
"""

from __future__ import annotations

from repro.utils.stats import QuantileSketch

#: Latency sketch geometry: detection latencies land between ~1e2 and
#: ~1e8 cycles at every scale the repo runs; 256 log bins keep the
#: relative error ~=2.7 % at a few KB per stratum.
LATENCY_SKETCH = dict(lo=10.0, hi=1e10, bins=256)

#: Quantiles reported per stratum.
QUANTILES = (0.5, 0.9, 0.99)


def detector_desc(name: str, params) -> str:
    """Canonical one-token description of a detector operating point,
    e.g. ``rate(threshold=3,window=12000)`` — the stratum key half."""
    items = sorted(dict(params).items())
    inner = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}({inner})"


class FleetDetectionStats:
    """Online accumulator for fleet-level detection/FP curves."""

    def __init__(self) -> None:
        #: "kind|secthr|detector" -> {n, detected, latency sketch}
        self._attack: dict[str, dict] = {}
        #: "secthr|detector" -> {n, verdicts, cycles, instructions}
        self._benign: dict[str, dict] = {}

    # ---- folds -------------------------------------------------------

    def observe_attack(
        self,
        kind: str,
        secthr: int,
        detector: str,
        detected: bool,
        latency: int | None,
    ) -> None:
        """Fold one attacking tenant's outcome into its stratum."""
        key = f"{kind}|{secthr}|{detector}"
        stratum = self._attack.get(key)
        if stratum is None:
            stratum = {
                "n": 0,
                "detected": 0,
                "latency": QuantileSketch(**LATENCY_SKETCH),
            }
            self._attack[key] = stratum
        stratum["n"] += 1
        if detected:
            stratum["detected"] += 1
            if latency is not None:
                stratum["latency"].add(float(latency))

    def observe_benign(
        self,
        secthr: int,
        detector: str,
        verdicts: int,
        cycles: int,
        instructions: int,
    ) -> None:
        """Fold one benign tenant's outcome into its stratum."""
        key = f"{secthr}|{detector}"
        stratum = self._benign.get(key)
        if stratum is None:
            stratum = {"n": 0, "verdicts": 0, "cycles": 0, "instructions": 0}
            self._benign[key] = stratum
        stratum["n"] += 1
        stratum["verdicts"] += verdicts
        stratum["cycles"] += cycles
        stratum["instructions"] += instructions

    # ---- reports -----------------------------------------------------

    def detection_rows(self) -> list[list]:
        """Per-(kind, secThr, detector) detection rate and latency
        quantiles — one table row per attack stratum, sorted by key."""
        rows = []
        for key in sorted(self._attack):
            kind, secthr, detector = key.split("|", 2)
            stratum = self._attack[key]
            quantiles = [
                stratum["latency"].quantile(q) for q in QUANTILES
            ]
            rows.append([
                kind, int(secthr), detector, stratum["n"],
                round(stratum["detected"] / stratum["n"], 3),
                *(int(v) if v is not None else "-" for v in quantiles),
            ])
        return rows

    def fp_rows(self) -> list[list]:
        """Per-(secThr, detector) benign false-positive rates."""
        rows = []
        for key in sorted(self._benign):
            secthr, detector = key.split("|", 1)
            stratum = self._benign[key]
            cycles = max(1, stratum["cycles"])
            insns = max(1, stratum["instructions"])
            rows.append([
                int(secthr), detector, stratum["n"], stratum["verdicts"],
                round(stratum["verdicts"] * 1_000_000 / cycles, 3),
                round(stratum["verdicts"] * 1_000_000 / insns, 3),
            ])
        return rows

    def roc_rows(self) -> list[list]:
        """Per-(secThr, detector) operating points: worst-scenario
        detection rate paired with the benign FP rate — the fleet ROC.

        Only operating points with both attack and benign evidence
        appear (a detector a campaign never paired with benign tenants
        has no FP estimate).
        """
        by_point: dict[tuple[int, str], dict[str, tuple[int, int]]] = {}
        for key, stratum in self._attack.items():
            kind, secthr, detector = key.split("|", 2)
            point = by_point.setdefault((int(secthr), detector), {})
            point[kind] = (stratum["detected"], stratum["n"])
        rows = []
        for (secthr, detector) in sorted(by_point):
            benign = self._benign.get(f"{secthr}|{detector}")
            if benign is None:
                continue
            kinds = by_point[(secthr, detector)]
            rates = {k: d / n for k, (d, n) in kinds.items()}
            cycles = max(1, benign["cycles"])
            rows.append([
                secthr, detector,
                round(min(rates.values()), 3),
                min(rates, key=rates.get),
                round(benign["verdicts"] * 1_000_000 / cycles, 3),
                benign["n"] + sum(n for _, n in kinds.values()),
            ])
        return rows

    # ---- canonical state ---------------------------------------------

    def state(self) -> dict:
        """Canonical (JSON-safe, bit-reproducible) serialization —
        fold order over commutative integer counters does not change
        it, and the digest of the campaign aggregate hashes it."""
        return {
            "attack": {
                key: {
                    "n": stratum["n"],
                    "detected": stratum["detected"],
                    "latency": stratum["latency"].state(),
                }
                for key, stratum in sorted(self._attack.items())
            },
            "benign": {
                key: dict(sorted(stratum.items()))
                for key, stratum in sorted(self._benign.items())
            },
        }
