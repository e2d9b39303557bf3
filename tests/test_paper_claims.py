"""The paper's conclusions as numeric gates.

The conformance goldens prove that behaviour is stable, not that it is
right: a regenerated golden can carry a changed conclusion.  Each gate
here checks one claim of the paper against a bound derived from the
claim itself, names the figure or section it checks, and fails with
the measured value.
"""

import math

import pytest

from repro.core.config import TABLE_II_FILTER
from repro.experiments import fig4_collisions
from repro.filters.metrics import theoretical_false_positive_rate

#: Insertions per Fig. 4 case: past saturation of the 8,192-slot Table
#: II filter (its occupancy reaches 100 % by ~12.5 k, Fig. 3), so the
#: census classifies a full table, yet ~0.5 s per case.
FIG4_INSERTIONS = 50_000


@pytest.mark.parametrize("f", [8, 10])
def test_fig4_collision_ratio_tracks_epsilon(f):
    """Fig. 4 (Section V-B): the share of entries merged from two or
    more addresses tracks the analytic ε = 1 - (1 - 2^-f)^(2b).

    A full table holds l·b entries, so the measured ratio is a
    binomial share with σ = √(ε(1-ε)/(l·b)); the gate allows 4σ.
    Over seeds 0-2 the ratio read 0.062-0.068 at f = 8 (ε = 0.0607,
    4σ = 0.011) and 0.0144-0.0164 at f = 10 (ε = 0.0155, 4σ =
    0.0055).
    """
    census = fig4_collisions.census(f, FIG4_INSERTIONS, seed=0)
    slots = TABLE_II_FILTER.num_buckets * TABLE_II_FILTER.entries_per_bucket
    assert census.valid_entries == slots
    eps = theoretical_false_positive_rate(
        TABLE_II_FILTER.entries_per_bucket, f
    )
    sigma = math.sqrt(eps * (1 - eps) / slots)
    ratio = census.collision_ratio
    assert abs(ratio - eps) <= 4 * sigma, (
        f"Fig. 4: at f={f} the collision-entry ratio after "
        f"{FIG4_INSERTIONS:,} insertions is {ratio:.4f}, outside "
        f"eps={eps:.4f} ± 4σ={4 * sigma:.4f}"
    )
