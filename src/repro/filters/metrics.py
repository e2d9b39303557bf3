"""Measurement helpers for the filter experiments (Figs. 3 and 4).

``occupancy_curve``   — occupancy versus insertion count, the quantity
                        plotted in Fig. 3 for several MNK values.
``collision_census``  — classifies valid entries of an *instrumented*
                        Auto-Cuckoo filter by how many distinct
                        addresses merged into them, the quantity in
                        Fig. 4.
``measure_false_positive_rate`` — empirical ε from random non-member
                        queries, to compare against the analytic bound
                        ε ≈ 2b / 2**f (Section V-B).
``fpp_report``        — measured-vs-target report for the storage-mode
                        ``AutoCuckooFilter.from_fpp`` sizing: loads a
                        derived filter to its design point and probes a
                        disjoint key space, so every positive is a
                        false positive by construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.utils.bitops import mix64
from repro.utils.rng import derive_rng, derive_seed

#: Address space the paper samples from ("randomly pick addresses from
#: memory address space"): 64 GiB of physical memory in 64-byte lines.
DEFAULT_ADDRESS_SPACE_LINES = 1 << 30


def theoretical_false_positive_rate(entries_per_bucket: int, fingerprint_bits: int) -> float:
    """The paper's analytic bound: ε = 1 - (1 - 2**-f)**(2b) ≈ 2b/2**f."""
    miss = (1.0 - 2.0 ** -fingerprint_bits) ** (2 * entries_per_bucket)
    return 1.0 - miss


def occupancy_curve(
    fltr: AutoCuckooFilter,
    insertions: int,
    checkpoint_every: int,
    seed: int = 1,
    address_space: int = DEFAULT_ADDRESS_SPACE_LINES,
) -> list[tuple[int, float]]:
    """Insert random addresses; return ``(insertions, occupancy)`` points.

    Reproduces the Fig. 3 methodology: "We randomly pick addresses from
    memory address space and insert them into the filter using
    different MNK."
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    rng = derive_rng(seed, "occupancy-addresses")
    randrange = rng.randrange
    points = [(0, fltr.occupancy())]
    done = 0
    # Batch between checkpoints: occupancy is only *read* at
    # checkpoints, so driving each span through ``access_many`` (same
    # RNG stream, same order) produces the identical curve, with one
    # C call per span under ``c``.
    while done < insertions:
        span = min(checkpoint_every - done % checkpoint_every,
                   insertions - done)
        fltr.access_many(randrange(address_space) for _ in range(span))
        done += span
        points.append((done, fltr.occupancy()))
    return points


@dataclass
class CollisionCensus:
    """Result of a Fig. 4 style census.

    ``by_address_count`` maps the number of distinct addresses merged
    into an entry (1 = no collision, 2, 3, ...) to the number of such
    entries.  ``collision_ratio`` is the fraction of valid entries with
    at least two distinct addresses.
    """

    valid_entries: int
    by_address_count: dict[int, int] = field(default_factory=dict)

    @property
    def collision_ratio(self) -> float:
        if self.valid_entries == 0:
            return 0.0
        collided = sum(
            count for n, count in self.by_address_count.items() if n >= 2
        )
        return collided / self.valid_entries

    def ratio_with_at_least(self, n_addresses: int) -> float:
        """Fraction of valid entries merged from >= n distinct addresses."""
        if self.valid_entries == 0:
            return 0.0
        matched = sum(
            count
            for n, count in self.by_address_count.items()
            if n >= n_addresses
        )
        return matched / self.valid_entries


def collision_census(fltr: AutoCuckooFilter) -> CollisionCensus:
    """Classify an instrumented filter's entries by collision degree."""
    counts: dict[int, int] = {}
    valid = 0
    for address_set in fltr.entry_address_sets():
        valid += 1
        n = max(1, len(address_set))
        counts[n] = counts.get(n, 0) + 1
    return CollisionCensus(valid_entries=valid, by_address_count=dict(sorted(counts.items())))


def measure_false_positive_rate(
    fltr: AutoCuckooFilter | object,
    inserted: set[int],
    probes: int,
    seed: int = 2,
    address_space: int = DEFAULT_ADDRESS_SPACE_LINES,
) -> float:
    """Empirical ε: fraction of never-inserted probes reported present.

    Works for any filter exposing ``contains``.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = derive_rng(seed, "fp-probes")
    hits = 0
    tested = 0
    while tested < probes:
        key = rng.randrange(address_space)
        if key in inserted:
            continue
        tested += 1
        if fltr.contains(key):  # type: ignore[attr-defined]
            hits += 1
    return hits / probes


_HALF_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class FppReport:
    """Measured-vs-target false-positive report for a sized filter."""

    item_num: int
    target_fpp: float
    analytic_fpp: float
    measured_fpp: float
    probes: int
    false_positives: int
    num_buckets: int
    entries_per_bucket: int
    fingerprint_bits: int
    occupancy: float
    fresh_inserts: int
    autonomic_deletions: int

    def meets_target(self, slack: float = 3.0) -> bool:
        """Measured rate within statistical slack of target.

        The analytic rate is guaranteed <= target by construction; the
        measurement is a binomial sample around it, so the acceptance
        band is ``slack * target`` plus a small-count allowance (at
        tight targets a finite probe budget may see a handful of hits
        even when the true rate is well under target).
        """
        return self.false_positives <= self.probes * self.target_fpp * slack + 8

    def to_text(self) -> str:
        return (
            f"from_fpp(item_num={self.item_num}, fpp={self.target_fpp:g}) -> "
            f"l={self.num_buckets} b={self.entries_per_bucket} "
            f"f={self.fingerprint_bits} | load {self.occupancy:.3f} | "
            f"analytic {self.analytic_fpp:.3g} | measured "
            f"{self.measured_fpp:.3g} ({self.false_positives}/{self.probes}) | "
            f"autonomic deletions {self.autonomic_deletions}"
        )


def fpp_report(
    item_num: int,
    fpp: float,
    seed: int = 0,
    probes: int = 100_000,
) -> FppReport:
    """Size a filter with :meth:`AutoCuckooFilter.from_fpp`, load it to
    its design point, and measure the realized false-positive rate.

    Resident keys live in the even half of the uint64 key space and
    probe keys in the odd half (both scattered through ``mix64``), so a
    probe can never be a resident key and every filter positive on the
    probe stream is a false positive by construction — no ground-truth
    membership set is needed at any scale.  Runs through the engine
    batch seam, so the measurement reflects whichever engine
    ``REPRO_ENGINE`` selects (the result is engine-independent; the
    equivalence suites pin that).
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    flt = AutoCuckooFilter.from_fpp(
        item_num, fpp, seed=derive_seed(seed, "fpp-report-filter")
    )
    batch = flt.engine_batch()
    resident_salt = derive_seed(seed, "fpp-report-resident")
    probe_salt = derive_seed(seed, "fpp-report-probes")
    resident = array("Q", (
        (mix64(i, salt=resident_salt) & _HALF_MASK) << 1
        for i in range(item_num)
    ))
    fresh = batch.insert_many(resident)
    probe_keys = array("Q", (
        ((mix64(i, salt=probe_salt) & _HALF_MASK) << 1) | 1
        for i in range(probes)
    ))
    false_positives = batch.query_many(probe_keys)
    return FppReport(
        item_num=item_num,
        target_fpp=fpp,
        analytic_fpp=theoretical_false_positive_rate(
            flt.entries_per_bucket, flt.hasher.fingerprint_bits
        ),
        measured_fpp=false_positives / probes,
        probes=probes,
        false_positives=false_positives,
        num_buckets=flt.num_buckets,
        entries_per_bucket=flt.entries_per_bucket,
        fingerprint_bits=flt.hasher.fingerprint_bits,
        occupancy=flt.occupancy(),
        fresh_inserts=fresh,
        autonomic_deletions=flt.autonomic_deletions,
    )
