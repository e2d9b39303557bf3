"""Synthetic access-pattern generators.

Five archetypes cover the SPEC benchmarks' memory behaviour:

``StreamWorkload``        — repeated sequential sweeps (libquantum,
                            milc, hmmer, calculix): maximal spatial
                            locality, reuse distance = working set.
``PointerChaseWorkload``  — a random permutation cycle (mcf, astar):
                            no spatial locality, dependent loads.
``RandomWorkload``        — uniform random lines (gcc, sjeng).
``StencilWorkload``       — 2-D neighbourhood sweeps (h264ref motion
                            search): strided locality.
``HotColdWorkload``       — a small hot region plus a large cold one
                            (sphinx3, bzip2, gobmk, gromacs): high hit
                            rates with a long miss tail.

Every generator emits an occasional instruction fetch into the core's
private code region so L1I participates, and dithers compute gaps so
memory operations average the profile's ``mem_fraction``.

Each archetype contributes only a *line picker*
(:meth:`_SyntheticWorkload._line_picker`); the shared emission loop
exists in two forms with identical record streams: the generator
(:meth:`_SyntheticWorkload.generator`, one suspension per record), and
the compiled run loop's C port, which
:meth:`_SyntheticWorkload.emitter_state` hands the loop's constants,
the seed of its ``random.Random`` (seeded again in C) and the
picker's parameters (PERFORMANCE.md rule 19).  The equivalence tests
pin the streams record-for-record.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.cache.hierarchy import OP_IFETCH, OP_READ, OP_WRITE
from repro.utils.rng import derive_rng, derive_seed
from repro.workloads.base import (
    Workload,
    WorkloadGenerator,
    core_code_base,
    core_data_base,
)

LINE = 64

#: Fraction of memory operations that are instruction fetches, and the
#: size of the synthetic code footprint they walk.
DEFAULT_IFETCH_FRACTION = 0.05
DEFAULT_CODE_BYTES = 32 * 1024


def _validate_common(working_set_bytes: int, mem_fraction: float,
                     write_fraction: float) -> None:
    if working_set_bytes < LINE:
        raise ValueError("working set must hold at least one line")
    if not 0.0 < mem_fraction <= 1.0:
        raise ValueError("mem_fraction must be in (0, 1]")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")


class _SyntheticWorkload(Workload):
    """Common state for the synthetic archetypes.

    Besides the main access pattern, every workload can emit a
    **conflict component**: a small group of lines strided exactly one
    LLC-set apart, visited round-robin with probability
    ``conflict_fraction``.  Enough congruent lines overflow their LLC
    set, so these lines conflict-miss among themselves at a short
    period — the benign Ping-Pong traffic (hot strided arrays,
    same-set globals) that drives the paper's false-positive counts
    (Fig. 8b).  Benchmarks modelled as cache-resident set
    ``conflict_fraction = 0``.
    """

    def __init__(
        self,
        working_set_bytes: int,
        mem_fraction: float = 0.3,
        write_fraction: float = 0.2,
        ifetch_fraction: float = DEFAULT_IFETCH_FRACTION,
        code_bytes: int = DEFAULT_CODE_BYTES,
        conflict_lines: int = 0,
        conflict_fraction: float = 0.0,
        conflict_stride_bytes: int = 64 * 1024,
        accesses_per_line: int = 1,
        name: str | None = None,
    ):
        _validate_common(working_set_bytes, mem_fraction, write_fraction)
        if not 0.0 <= ifetch_fraction < 1.0:
            raise ValueError("ifetch_fraction must be in [0, 1)")
        if conflict_lines < 0 or not 0.0 <= conflict_fraction < 1.0:
            raise ValueError("invalid conflict component")
        if conflict_stride_bytes % LINE:
            raise ValueError("conflict stride must be line-aligned")
        if accesses_per_line < 1:
            raise ValueError("accesses_per_line must be >= 1")
        self.working_set_bytes = working_set_bytes
        self.num_lines = working_set_bytes // LINE
        self.mem_fraction = mem_fraction
        self.write_fraction = write_fraction
        self.ifetch_fraction = ifetch_fraction
        self.code_lines = max(1, code_bytes // LINE)
        self.conflict_lines = conflict_lines
        self.conflict_fraction = conflict_fraction if conflict_lines else 0.0
        self.conflict_stride = conflict_stride_bytes // LINE
        # Sub-line spatial locality: real code touches each cache line
        # several times (word-granular strides, multi-field structs);
        # the repeats hit L1 and set the benchmark's realistic MPKI.
        self.accesses_per_line = accesses_per_line
        if name is not None:
            self.name = name

    # ------------------------------------------------------------------
    # Pattern plug point
    # ------------------------------------------------------------------

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        """Build the pattern-specific ``next_data_line(rng)`` closure
        (stateful; one per stream)."""
        raise NotImplementedError

    def _picker_state(self, core_id: int, seed: int) -> dict:
        """The same picker as :meth:`_line_picker`, as the C port's
        ``cw_core`` fields (``kind`` plus its parameters).  Cheap: the
        pointer chase hands over the seed of the ``random.Random`` its
        chain is shuffled with (``chain_seed``), and ``c_cache`` seeds
        it and builds the chain in C."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The emission forms (identical record streams)
    # ------------------------------------------------------------------

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        """Shared emission loop; the pattern's ``next_data_line(rng)``
        supplies each new data line offset.

        The picker is built in the body, on the first ``next``: a core
        whose stream runs in the compiled loop never advances its
        generator, and a pointer-chase picker shuffles its whole
        working set in Python (the compiled loop builds the same chain
        in C)."""
        next_data_line = self._line_picker(core_id, seed)
        rng = derive_rng(seed, self.name, core_id)
        data_base = core_data_base(core_id)
        code_base = core_code_base(core_id)
        # Conflict lines live just above the main working set, strided
        # one LLC set apart so they are mutually congruent.
        conflict_base = self.num_lines + self.conflict_stride
        conflict_index = 0
        code_line = 0
        ifetch_limit = self.ifetch_fraction
        conflict_limit = ifetch_limit + self.conflict_fraction
        current_line = None
        line_visits_left = 0
        # One record per retired memory operation: everything invariant
        # is hoisted out of the loop, including the compute-gap
        # dithering arithmetic (inlined from ``compute_gap`` — same
        # expression, same single ``rng.random()`` draw, so generated
        # streams are unchanged).
        rng_random = rng.random
        gap_target = 1.0 / self.mem_fraction - 1.0
        gap_base = int(gap_target)
        gap_frac = gap_target - gap_base
        write_fraction = self.write_fraction
        code_lines = self.code_lines
        conflict_lines = self.conflict_lines
        conflict_stride = self.conflict_stride
        visits_per_line = self.accesses_per_line - 1
        while True:
            gap = gap_base + 1 if rng_random() < gap_frac else gap_base
            roll = rng_random()
            if roll >= conflict_limit:
                if line_visits_left > 0 and current_line is not None:
                    line_visits_left -= 1
                    line = current_line
                else:
                    line = next_data_line(rng)
                    current_line = line
                    line_visits_left = visits_per_line
                op = OP_WRITE if rng_random() < write_fraction else OP_READ
                addr = data_base + line * LINE
            elif roll < ifetch_limit:
                # Walk the code region mostly sequentially.
                code_line += 1
                if code_line == code_lines:
                    code_line = 0
                op = OP_IFETCH
                addr = code_base + code_line * LINE
            else:
                conflict_index += 1
                if conflict_index == conflict_lines:
                    conflict_index = 0
                line = conflict_base + conflict_index * conflict_stride
                op = OP_WRITE if rng_random() < write_fraction else OP_READ
                addr = data_base + line * LINE
            yield gap, op, addr

    def emitter_state(self, core_id: int, seed: int) -> dict | None:
        """The :meth:`generator` stream for ``(core_id, seed)`` as the
        compiled run loop's ``cw_core`` fields: the loop constants
        derived exactly as above, the 64-bit seed of the stream's
        ``random.Random`` (``seed``; ``c_cache`` seeds the C state
        from it as ``random.Random(seed)`` would) and the picker's
        parameters (:meth:`_picker_state`; for the pointer chase, the
        chain's seed ``chain_seed``, not the chain).

        None when the C port does not reproduce the stream: a subclass
        (it may change the stream), a working set of 2**32 lines or
        more (``randrange`` would draw more than one 32-bit word), or a
        compute gap of 2**32 instructions or more (the loop keeps gaps
        and times in ``int64_t``; below 2**32, overflowing one takes
        2**31 records).
        """
        gap_target = 1.0 / self.mem_fraction - 1.0
        gap_base = int(gap_target)
        if (type(self) not in NATIVE_ARCHETYPES or self.num_lines >> 32
                or gap_base >> 32):
            return None
        return {
            "seed": derive_seed(seed, self.name, core_id),
            "gap_base": gap_base,
            "gap_frac": gap_target - gap_base,
            "write_fraction": self.write_fraction,
            "ifetch_limit": self.ifetch_fraction,
            "conflict_limit": self.ifetch_fraction + self.conflict_fraction,
            "data_base": core_data_base(core_id),
            "code_base": core_code_base(core_id),
            "num_lines": self.num_lines,
            "num_shift": 32 - self.num_lines.bit_length(),
            "code_lines": self.code_lines,
            "conflict_lines": self.conflict_lines,
            "conflict_base": self.num_lines + self.conflict_stride,
            "conflict_stride": self.conflict_stride,
            "visits_per_line": self.accesses_per_line - 1,
            **self._picker_state(core_id, seed),
        }


class StreamWorkload(_SyntheticWorkload):
    """Repeated sequential sweeps over the working set."""

    name = "stream"

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        position = -1
        num_lines = self.num_lines

        def next_line(rng):
            nonlocal position
            position = (position + 1) % num_lines
            return position

        return next_line

    def _picker_state(self, core_id: int, seed: int) -> dict:
        return {"kind": 0, "position": -1}


class RandomWorkload(_SyntheticWorkload):
    """Uniform random lines over the working set."""

    name = "random"

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        num_lines = self.num_lines

        def next_line(rng):
            return rng.randrange(num_lines)

        return next_line

    def _picker_state(self, core_id: int, seed: int) -> dict:
        return {"kind": 1}


class PointerChaseWorkload(_SyntheticWorkload):
    """Follows a random permutation cycle: each access determines the
    next, defeating spatial locality entirely."""

    name = "pointer"

    @staticmethod
    def _chain_seed(core_id: int, seed: int) -> int:
        """The seed of the ``random.Random`` the chain is shuffled
        with."""
        return derive_seed(seed, "pointer-permutation", core_id)

    def _chain(self, core_id: int, seed: int) -> list[int]:
        """``chain[line]`` is the line visited after ``line``."""
        rng = random.Random(self._chain_seed(core_id, seed))
        # A single Hamiltonian cycle over the working set (not a plain
        # shuffled permutation, whose cycle through the start line has
        # wildly seed-dependent length — a short cycle would turn the
        # benchmark cache-resident).
        order = list(range(self.num_lines))
        rng.shuffle(order)
        chain = [0] * self.num_lines
        for here, there in zip(order, order[1:]):
            chain[here] = there
        chain[order[-1]] = order[0]
        return chain

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        chain = self._chain(core_id, seed)
        position = 0

        def next_line(_rng):
            nonlocal position
            position = chain[position]
            return position

        return next_line

    def _picker_state(self, core_id: int, seed: int) -> dict:
        return {
            "kind": 2,
            "chain_seed": self._chain_seed(core_id, seed),
            "position": 0,
        }


class StencilWorkload(_SyntheticWorkload):
    """Five-point stencil sweeps over a square 2-D grid."""

    name = "stencil"

    @property
    def side(self) -> int:
        """Side of the square grid the stencil sweeps."""
        return max(2, int(self.num_lines ** 0.5))

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        side = self.side
        offsets = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
        state = {"i": 0, "j": 0, "k": 0}

        def next_line(_rng):
            di, dj = offsets[state["k"]]
            state["k"] += 1
            if state["k"] == len(offsets):
                state["k"] = 0
                state["j"] += 1
                if state["j"] >= side:
                    state["j"] = 0
                    state["i"] = (state["i"] + 1) % side
            row = (state["i"] + di) % side
            col = (state["j"] + dj) % side
            return row * side + col

        return next_line

    def _picker_state(self, core_id: int, seed: int) -> dict:
        return {"kind": 3, "side": self.side}


class HotColdWorkload(_SyntheticWorkload):
    """Mostly-hot accesses to a small region with a cold tail."""

    name = "hotcold"

    def __init__(
        self,
        working_set_bytes: int,
        hot_bytes: int | None = None,
        hot_probability: float = 0.9,
        **kwargs,
    ):
        super().__init__(working_set_bytes, **kwargs)
        if hot_bytes is None:
            hot_bytes = max(LINE, working_set_bytes // 8)
        if not LINE <= hot_bytes <= working_set_bytes:
            raise ValueError("hot region must fit inside the working set")
        if not 0.0 < hot_probability < 1.0:
            raise ValueError("hot_probability must be in (0, 1)")
        self.hot_lines = hot_bytes // LINE
        self.hot_probability = hot_probability

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        hot_lines = self.hot_lines
        num_lines = self.num_lines
        hot_probability = self.hot_probability

        def next_line(rng):
            if rng.random() < hot_probability:
                return rng.randrange(hot_lines)
            return rng.randrange(num_lines)

        return next_line

    def _picker_state(self, core_id: int, seed: int) -> dict:
        return {
            "kind": 4,
            "hot_lines": self.hot_lines,
            "hot_shift": 32 - self.hot_lines.bit_length(),
            "hot_probability": self.hot_probability,
        }


#: The archetypes :meth:`_SyntheticWorkload.emitter_state` ports to C,
#: as exact classes: a subclass may override the stream.
NATIVE_ARCHETYPES = (
    StreamWorkload,
    RandomWorkload,
    PointerChaseWorkload,
    StencilWorkload,
    HotColdWorkload,
)
