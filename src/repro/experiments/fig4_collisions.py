"""Fig. 4 — fingerprint-collision entry ratio vs fingerprint width f.

Paper observations to reproduce (b = 8, after 6 M insertions):

* the ratio of entries holding ≥2 merged addresses tracks the analytic
  bound ε ≈ 2b/2**f, halving per added fingerprint bit-pair;
* at f = 12 the ratio is ≈ 0.014 with ε ≈ 0.004;
* entries merged from more than 2 addresses approach zero at f = 12.
"""

from __future__ import annotations

from repro.core.config import TABLE_II_FILTER
from repro.experiments.common import ExperimentResult, is_full_scale
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.filters.metrics import (
    CollisionCensus,
    collision_census,
    theoretical_false_positive_rate,
)
from repro.utils.rng import derive_rng

F_SWEEP = (8, 10, 12, 14, 16)
FULL_INSERTIONS = 6_000_000
SCALED_INSERTIONS = 600_000


def census(f: int, insertions: int, seed: int = 0) -> CollisionCensus:
    """One Fig. 4 column: the collision census of an instrumented
    Table II filter with ``f``-bit fingerprints after ``insertions``
    random addresses (the stream ``derive_rng(seed, "fig4-stream",
    f)``)."""
    fltr = AutoCuckooFilter(
        num_buckets=TABLE_II_FILTER.num_buckets,
        entries_per_bucket=TABLE_II_FILTER.entries_per_bucket,
        fingerprint_bits=f,
        max_kicks=TABLE_II_FILTER.max_kicks,
        seed=seed,
        instrument=True,
    )
    randrange = derive_rng(seed, "fig4-stream", f).randrange
    # Millions of inserts per f-variant: stream the whole loop through
    # the filter's batched entry point (same keys in the same order as
    # per-access calls — identical table state).
    fltr.access_many(randrange(1 << 30) for _ in range(insertions))
    return collision_census(fltr)


def run(
    seed: int = 0,
    full: bool | None = None,
    insertions: int | None = None,
) -> ExperimentResult:
    """Drive each f-variant with the same random address stream."""
    if insertions is None:
        insertions = FULL_INSERTIONS if is_full_scale(full) else SCALED_INSERTIONS
    rows = []
    for f in F_SWEEP:
        column = census(f, insertions, seed)
        rows.append([
            f,
            round(column.collision_ratio, 5),
            round(column.ratio_with_at_least(3), 5),
            round(theoretical_false_positive_rate(
                TABLE_II_FILTER.entries_per_bucket, f), 5),
        ])

    result = ExperimentResult(
        "fig4", "Fingerprint-collision entry ratio vs f (b=8)"
    )
    result.add_table(
        f"after {insertions:,} insertions",
        ["f (bits)", "entries with >=2 addrs", "entries with >=3 addrs",
         "analytic eps = 2b/2^f"],
        rows,
    )
    at_12 = next(row for row in rows if row[0] == 12)
    result.add_note(
        f"f=12: collision-entry ratio {at_12[1]:.4f} "
        "(paper: 0.014), eps 0.0039 (paper: 0.004)"
    )
    result.data["rows"] = rows
    return result


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
