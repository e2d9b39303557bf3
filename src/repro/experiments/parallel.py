"""Supervised, checkpointed, seed-deterministic experiment fan-out.

The performance experiments (Fig. 8–10, secThr sensitivity, baseline
and defense ablations) are grids of *independent* full-system
simulations: every (mix, config) cell builds its own hierarchy,
derives every RNG from the experiment seed, and shares no mutable
state with any other cell.  That makes them embarrassingly parallel —
this module fans the cells out across worker processes, and (since the
grids now run for hours at ``REPRO_FULL`` scale) refuses to lose them
to a single crashed worker, wedged syscall, or Ctrl-C:

* **Supervision** — each worker is a dedicated process fed one cell at
  a time over its own pipe.  The supervisor detects a dead worker
  immediately (its pipe hits EOF), detects a hung worker by the
  per-cell deadline (``REPRO_CELL_TIMEOUT`` seconds; unset = no
  deadline), terminates and respawns it, and replays the lost cell.
* **Retries** — a failed cell is replayed up to ``REPRO_RETRIES``
  times (default 2).  This is safe *because cells are pure up to
  their seed*: a replay is a bit-identical recomputation, so retrying
  can never change a result, only recover it.  Exhausted retries
  produce a structured :class:`CellFailure` naming the cell, not a
  bare pool traceback; ``REPRO_ON_FAILURE=raise`` (default) raises a
  :class:`GridExecutionError` after the rest of the grid (of a
  stream: of the chunk) completes, ``partial`` returns the grid with
  ``CellFailure`` objects in the failed slots so a fleet report can
  degrade gracefully.
* **Integrity** — results cross the process boundary as explicitly
  pickled payloads with a CRC-32 checksum; a corrupted payload (bad
  pipe, injected fault) is rejected and the cell replayed.
* **Checkpointing** — with ``REPRO_CHECKPOINT_DIR`` set (or an
  explicit ``directory``), completed results stream to a digest-keyed
  JSONL shard as they arrive; ``REPRO_RESUME=1`` (``resume=True``, the
  CLI's ``--resume``) replays only the missing cells after a kill.
  See :mod:`.checkpoint`.
* **Fault injection** — ``REPRO_FAULTS=crash:p,hang:p,corrupt:p``
  makes workers die, stall, or return corrupted payloads on a seeded,
  deterministic schedule, so every recovery path above is *provable*
  (``tests/test_fault_tolerance.py``), not hoped for.  See
  :mod:`.faults`.

One execution path
------------------
:func:`run_stream` is the only executor: it resolves the knobs, pulls
cells lazily in bounded chunks, gives each chunk its own digest-keyed
checkpoint shard, runs the chunk serially (``jobs <= 1``) or on the
stream's one worker pool, applies the failure policy, and hands the
values to an online ``consume`` callback in cell order.  Peak memory
is bounded by the chunk size, never by the stream length, which the
fleet-scale campaign sweeps (:mod:`.campaign`) rely on.
:func:`run_cells` runs a grid as one chunk and collects the values
into a list, so for grids:

* serial ``on_failure="raise"`` finishes the grid before it raises,
  like the supervised path (the worker traceback stays in the error
  message; the exception is not chained as ``__cause__``);
* the shard is named ``<label>-000000-<digest16>``, like the first
  chunk of a stream;
* a one-cell grid at ``jobs > 1`` runs on one supervised worker.

Determinism contract
--------------------
``run_cells(cells, fn)`` returns ``[fn(cell) for cell in cells]`` —
same values, same order — no matter how many jobs are used, how many
workers died, or how many cells were resumed from a checkpoint.  This
holds because cell functions are required to be pure up to their seed:
every stochastic component inside a cell must derive from arguments of
the cell (the repo-wide ``derive_seed`` discipline), never from global
state.  The golden-equivalence and fault-tolerance tests pin this:
serial, parallel, faulted-and-recovered, and killed-and-resumed runs
must all produce bit-identical experiment results.

``REPRO_JOBS`` selects the worker count (default ``1`` — serial, no
processes spawned; ``0`` means one worker per CPU — resolved the same
way whether it arrives via the environment, ``--jobs 0``, or an
explicit ``jobs=0`` argument).  Cell functions must be module-level
(picklable) and take a single argument.  The serial path keeps the
checkpoint/retry/failure semantics but spawns nothing and ignores
``REPRO_FAULTS`` and the cell deadline — it is the fault-free
reference that recovered runs are compared against.

Cell-tuple discipline
---------------------
Grid cells are plain tuples whose **last element is the experiment
seed** (dataclass/dict cells carry an explicit ``seed`` field
instead).  :class:`CellFailure` relies on this to surface the seed of
a failed cell without help from the cell function.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
import traceback
import zlib
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, TypeVar

from repro.experiments.checkpoint import (
    GridCheckpoint,
    checkpoint_dir,
    resume_enabled,
)
from repro.experiments.faults import FaultPlan
from repro.obs import trace as _trace
from repro.obs.progress import current_progress
from repro.obs.trace import span as _span

Cell = TypeVar("Cell")

_ENV_VAR = "REPRO_JOBS"
_ENV_TIMEOUT = "REPRO_CELL_TIMEOUT"
_ENV_RETRIES = "REPRO_RETRIES"
_ENV_POLICY = "REPRO_ON_FAILURE"

DEFAULT_RETRIES = 2
FAILURE_POLICIES = ("raise", "partial")


def resolve_jobs(jobs: int | None) -> int:
    """Resolve the worker count from ``jobs``, or from ``REPRO_JOBS``
    when ``jobs`` is ``None``.

    ``REPRO_JOBS`` unset/empty → 1 (serial).  ``0`` from either source
    means one worker per CPU (the CLI's ``--jobs 0``) — without this
    mapping an explicit 0 would fall through ``jobs <= 1`` and silently
    serialise the run.  Invalid values raise so typos do not silently
    serialise a sweep either.
    """
    source = "jobs"
    if jobs is None:
        raw = os.environ.get(_ENV_VAR, "").strip()
        if not raw:
            return 1
        source = _ENV_VAR
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{_ENV_VAR} must be an integer >= 0, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"{source} must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def cell_timeout() -> float | None:
    """Per-cell deadline in seconds (``REPRO_CELL_TIMEOUT``).

    Unset/empty/``0`` → no deadline.  The deadline bounds one
    *attempt* on one worker, measured from task hand-off.
    """
    raw = os.environ.get(_ENV_TIMEOUT, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_TIMEOUT} must be a number of seconds, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{_ENV_TIMEOUT} must be >= 0, got {value}")
    return value or None


def cell_retries() -> int:
    """Replays allowed per cell after its first attempt
    (``REPRO_RETRIES``, default 2)."""
    raw = os.environ.get(_ENV_RETRIES, "").strip()
    if not raw:
        return DEFAULT_RETRIES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_RETRIES} must be an integer >= 0, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{_ENV_RETRIES} must be >= 0, got {value}")
    return value


def failure_policy() -> str:
    """What exhausted retries do (``REPRO_ON_FAILURE``):
    ``raise`` (default) or ``partial``."""
    raw = os.environ.get(_ENV_POLICY, "").strip() or "raise"
    if raw not in FAILURE_POLICIES:
        raise ValueError(
            f"{_ENV_POLICY} must be one of {FAILURE_POLICIES}, got {raw!r}"
        )
    return raw


@dataclass
class CellFailure:
    """One cell that exhausted its retries — everything a report needs
    to name, reproduce, and triage the loss without the worker's
    stdout: the grid position, the full cell repr (which embeds the
    seed under the repo's cell-tuple discipline), the attempt count,
    the failure kind, and the last error with its worker traceback."""

    index: int
    cell: str
    attempts: int
    kind: str          # "exception" | "crash" | "hang" | "corrupt"
    error: str
    engine: str
    traceback: str = ""
    #: ``cell.seed`` / ``cell["seed"]`` when the cell exposes one;
    #: for plain tuple cells, the final element (the repo-wide
    #: cell-tuple discipline — see the module docstring).
    seed: Any = None

    def summary(self) -> str:
        seed = "" if self.seed is None else f", seed {self.seed}"
        return (
            f"cell {self.index} {self.cell} [{self.kind} after "
            f"{self.attempts} attempt(s), engine {self.engine}{seed}]: "
            f"{self.error}"
        )


def failure_kinds(failures: Sequence["CellFailure"]) -> dict[str, int]:
    """Count failures by kind (``exception``/``crash``/``hang``/
    ``corrupt``), sorted by kind name."""
    kinds: dict[str, int] = {}
    for failure in failures:
        kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
    return dict(sorted(kinds.items()))


def summarize_failures(failures: Sequence["CellFailure"]) -> list[str]:
    """The end-of-run triage block every failure report shares: counts
    by kind plus the first captured worker traceback.  Used by
    :class:`GridExecutionError` and by the ``partial``-policy summaries
    (campaign notes, grid reports), so a fleet report and a raised
    grid read identically."""
    if not failures:
        return []
    kinds = failure_kinds(failures)
    lines = [
        "failures by kind: "
        + ", ".join(f"{kind}={count}" for kind, count in kinds.items())
    ]
    tb = next((f.traceback for f in failures if f.traceback), "")
    if tb:
        lines.append("first worker traceback:")
        lines.append(tb.rstrip())
    return lines


class GridExecutionError(RuntimeError):
    """A grid finished with cells that exhausted their retries."""

    def __init__(self, failures: list[CellFailure], total_cells: int):
        self.failures = failures
        self.total_cells = total_cells
        lines = [
            f"{len(failures)} of {total_cells} cells failed after retries:"
        ]
        lines.extend(f"  - {f.summary()}" for f in failures)
        lines.extend(summarize_failures(failures))
        super().__init__("\n".join(lines))


def _cell_seed(cell) -> Any:
    seed = getattr(cell, "seed", None)
    if seed is None and isinstance(cell, dict):
        seed = cell.get("seed")
    if seed is None and isinstance(cell, tuple) and cell:
        # Cell-tuple discipline: the seed is the final element.  Guard
        # on a non-bool int so cells that end with a flag or a payload
        # report no seed rather than a wrong one.
        last = cell[-1]
        if isinstance(last, int) and not isinstance(last, bool):
            seed = last
    return seed


def _auto_label(fn: Callable) -> str:
    name = f"{getattr(fn, '__module__', 'grid')}.{getattr(fn, '__qualname__', 'cell')}"
    return "".join(c if c.isalnum() else "_" for c in name).strip("_")


def run_cells(
    cells: Iterable[Cell],
    fn: Callable[[Cell], Any],
    jobs: int | None = None,
    *,
    label: str | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    on_failure: str | None = None,
    directory: str | os.PathLike | None = None,
    resume: bool | None = None,
) -> list[Any]:
    """Apply ``fn`` to every cell; return results in cell order.

    The grid runs as one chunk of :func:`run_stream`, which takes the
    same knobs and resolves each one the same way for grids and
    streams.  Under ``on_failure="partial"`` the slot of a cell that
    exhausted its retries holds its :class:`CellFailure`.  ``label``
    names the grid in its trace span, checkpoint shard and failure
    reports (default: derived from ``fn``).
    """
    cell_list = list(cells)
    label = label or _auto_label(fn)
    # Resolved here only so the grid span can record the worker count.
    jobs = resolve_jobs(jobs)
    out: list[Any] = [None] * len(cell_list)
    with _span("grid", "grid", label=label, cells=len(cell_list), jobs=jobs):
        stats = run_stream(
            cell_list, fn, out.__setitem__,
            jobs=jobs, label=label, timeout=timeout, retries=retries,
            on_failure=on_failure, chunk_size=max(1, len(cell_list)),
            directory=directory, resume=resume,
        )
    for failure in stats.failures:
        out[failure.index] = failure
    return out


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------

def _run_serial(cell_list, fn, retries, checkpoint):
    from repro.engine import effective_engine

    progress = current_progress()
    done: dict[int, Any] = dict(checkpoint.loaded) if checkpoint else {}
    out: list[Any] = []
    for index, cell in enumerate(cell_list):
        if index in done:
            out.append(done[index])
            if progress is not None:
                progress.advance(loaded=True)
            continue
        attempts = 0
        while True:
            attempts += 1
            try:
                # Serial spans run in-process on the attached recorder
                # (no sidecar needed); attempt numbering matches the
                # worker path's 0-based convention.
                with _span("cell", "cell", index=index, attempt=attempts - 1):
                    value = fn(cell)
            except Exception as exc:
                if attempts <= retries:
                    if progress is not None:
                        progress.note_retry()
                    continue
                if progress is not None:
                    progress.note_failure()
                out.append(CellFailure(
                    index=index,
                    cell=repr(cell),
                    attempts=attempts,
                    kind="exception",
                    error=f"{type(exc).__name__}: {exc}",
                    engine=effective_engine(),
                    traceback=traceback.format_exc(),
                    seed=_cell_seed(cell),
                ))
                break
            else:
                if checkpoint is not None:
                    checkpoint.record(index, attempts, value)
                out.append(value)
                if progress is not None:
                    progress.advance()
                break
    return out


# ----------------------------------------------------------------------
# Supervised parallel path
# ----------------------------------------------------------------------

#: Exit code workers use for a clean shutdown, so the supervisor can
#: tell an orderly exit from a crash while draining.
_OK_EXIT = 0


def _observed_call(fn, cell, index: int, attempt: int):
    """Run one cell under a fresh per-cell recorder and return
    ``(value, error, sidecar)`` where ``sidecar`` is the CRC-checked
    ``(crc32, blob)`` of ``{"spans", "metrics"}`` the reply carries
    next to the payload.

    The recorder is created per cell, never inherited: a fork worker
    shares the parent's module globals at spawn time, and reusing the
    parent's (or a previous cell's) recorder would double-count.  The
    cell's C kernels install under it, so their counters land in the
    sidecar too.  Spans are collected even when the cell raises — a
    retried attempt still ships its attempt-tagged span for triage.
    """
    recorder = _trace.TraceRecorder()
    value = error = None
    with _trace.recording(recorder):
        with recorder.span("cell", "cell", index=index, attempt=attempt):
            try:
                value = fn(cell)
            except BaseException as exc:
                error = exc
    sidecar = {"spans": recorder.events, "metrics": recorder.metrics()}
    blob = pickle.dumps(sidecar, protocol=pickle.HIGHEST_PROTOCOL)
    return value, error, (zlib.crc32(blob), blob)


def _worker_main(
    conn, supervisor_end, fn, pinned: dict, observe: bool
) -> None:
    """Worker loop: receive ``(index, attempt, cell)``, run, reply.

    Replies are ``("ok", index, attempt, crc32, payload, obs)`` with
    the result explicitly pickled (the CRC is the end-to-end integrity
    check) or ``("err", index, attempt, info, obs)`` for a
    cell-function exception — the wrapper that lets the failing cell's
    identity survive the process boundary.  ``obs`` is ``None`` unless
    ``observe`` (the supervisor had a recorder attached when it built
    the pool), in which case it is the ``(crc32, blob)`` sidecar of
    the cell's spans and counters (:func:`_observed_call`) with its
    own integrity check — the supervisor drops a corrupt sidecar (and
    counts the drop) without failing the cell.  Injected faults
    (``REPRO_FAULTS``) fire here, between task receipt and reply.
    """
    # A fork child inherits the supervisor's end of its own pipe.  Close
    # it, or a supervisor killed by SIGKILL never reads as EOF here and
    # the worker sleeps in recv() forever.
    supervisor_end.close()
    os.environ.update(pinned)
    plan = FaultPlan.from_env()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        index, attempt, cell = task
        obs = None
        try:
            if plan is not None:
                plan.inject_execution_faults(index, attempt)
            if observe:
                value, error, obs = _observed_call(fn, cell, index, attempt)
                if error is not None:
                    raise error
            else:
                value = fn(cell)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            crc = zlib.crc32(payload)
            if plan is not None:
                payload = plan.maybe_corrupt(index, attempt, payload)
            reply = ("ok", index, attempt, crc, payload, obs)
        except BaseException as exc:
            reply = ("err", index, attempt, {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }, obs)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()
    os._exit(_OK_EXIT)


def _absorb_sidecar(obs) -> None:
    """Fold a worker's obs sidecar into the attached recorder.

    CRC-checked like the result payload, but with the opposite failure
    semantics: a corrupt sidecar is *dropped* (and counted on the
    recorder) rather than failing the cell — observability must never
    cost a result.
    """
    recorder = _trace.current_recorder()
    if obs is None or recorder is None:
        return
    try:
        crc, blob = obs
        if zlib.crc32(blob) != crc:
            raise ValueError("obs sidecar failed its CRC-32 check")
        sidecar = pickle.loads(blob)
        spans = sidecar.get("spans")
        metrics = sidecar.get("metrics")
    except Exception:
        recorder.dropped += 1
        return
    if spans:
        recorder.extend(spans)
    if metrics:
        recorder.merge_metrics(metrics)


class _Worker:
    """One supervised worker process and its task pipe."""

    __slots__ = ("proc", "conn", "current", "started")

    def __init__(self, ctx, fn, pinned, observe):
        parent, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child, parent, fn, pinned, observe),
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.conn = parent
        self.current: tuple[int, int] | None = None  # (index, attempt)
        self.started = 0.0

    def assign(self, index: int, attempt: int, cell) -> bool:
        try:
            self.conn.send((index, attempt, cell))
        except (BrokenPipeError, OSError):
            return False
        self.current = (index, attempt)
        self.started = time.monotonic()
        return True

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=1.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=1.0)
        self.kill()


def _pinned_env() -> dict:
    # Behaviour-selecting REPRO_* variables are pinned explicitly in
    # every worker: children inherit the environment anyway under
    # fork, but the explicit copy also covers spawn/forkserver and
    # late in-process set_engine() calls.  Workers hold no kernel
    # state — engine kernels are installed per hierarchy inside each
    # cell, so they rebuild cleanly from these variables alone.
    return {
        key: value
        for key, value in os.environ.items()
        if key.startswith("REPRO_")
    }


class _WorkerPool:
    """The supervised workers of one :func:`run_stream` call.

    Every chunk of the stream reuses them, so worker spawn cost is
    paid once per sweep, not once per chunk.  The pool only replaces
    workers (``respawn``) — scheduling stays in ``_run_supervised``.
    Workers prefer the ``fork`` start method (cheap, inherits the
    loaded modules) and fall back to the platform default where fork
    is unavailable.  Whether a trace recorder is attached is read once,
    here, and handed to every worker spawned or respawned: with one
    attached, each cell runs under its own recorder and ships a
    sidecar back (a fork worker's inherited copy of the supervisor's
    recorder would swallow its spans and counters).
    """

    def __init__(self, fn: Callable, size: int):
        # Fail fast on an unparseable fault spec in the supervisor, not
        # silently inside every worker.
        FaultPlan.from_env()
        self.ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self.fn = fn
        self.pinned = _pinned_env()
        self.observe = _trace.current_recorder() is not None
        self.workers = [self._spawn() for _ in range(size)]

    def _spawn(self) -> "_Worker":
        return _Worker(self.ctx, self.fn, self.pinned, self.observe)

    def respawn(self, slot: int) -> "_Worker":
        self.workers[slot].kill()
        self.workers[slot] = self._spawn()
        return self.workers[slot]

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.shutdown()


def _run_supervised(cell_list, timeout, retries, checkpoint, pool):
    from repro.engine import effective_engine

    engine = effective_engine()
    total = len(cell_list)
    # Values and the CellFailures of exhausted cells, by index.
    results: dict[int, Any] = dict(checkpoint.loaded) if checkpoint else {}
    attempts: dict[int, int] = {}
    pending: deque[int] = deque(
        i for i in range(total) if i not in results
    )
    progress = current_progress()
    if progress is not None and results:
        progress.advance(len(results), loaded=True)
    workers = pool.workers

    def fail_attempt(index: int, kind: str, error: str, tb: str = "") -> None:
        if attempts[index] <= retries:
            pending.append(index)
            if progress is not None:
                progress.note_retry()
            return
        if progress is not None:
            progress.note_failure()
        results[index] = CellFailure(
            index=index,
            cell=repr(cell_list[index]),
            attempts=attempts[index],
            kind=kind,
            error=error,
            engine=engine,
            traceback=tb,
            seed=_cell_seed(cell_list[index]),
        )

    def complete(index: int, value) -> None:
        results[index] = value
        if checkpoint is not None:
            checkpoint.record(index, attempts[index], value)
        if progress is not None:
            progress.advance()

    while len(results) < total:
        # Hand pending cells to idle workers (attempt numbers are
        # 0-based and feed the deterministic fault plan).
        for slot, worker in enumerate(workers):
            if worker.current is not None or not pending:
                continue
            index = pending.popleft()
            attempt = attempts.get(index, 0)
            attempts[index] = attempt + 1
            if not worker.assign(index, attempt, cell_list[index]):
                # Worker died before it could take the task.
                fail_attempt(
                    index, "crash",
                    "worker died before task delivery "
                    f"(exitcode {worker.proc.exitcode})",
                )
                pool.respawn(slot)

        busy = [w for w in workers if w.current is not None]
        if progress is not None:
            # The ≤0.5 s poll tick below doubles as the heartbeat
            # cadence: the progress line keeps moving (ETA, busy
            # workers) even while a long cell runs.
            progress.heartbeat(len(busy), len(workers))
        if not busy:
            continue

        # Sleep until a reply, a death (pipe EOF wakes the wait),
        # or the nearest per-cell deadline.
        if timeout is not None:
            now = time.monotonic()
            tick = max(
                0.01,
                min(timeout - (now - w.started) for w in busy),
            )
            tick = min(tick, 0.5)
        else:
            tick = 0.5
        ready = connection.wait([w.conn for w in busy], timeout=tick)

        for conn in ready:
            worker = next(w for w in busy if w.conn is conn)
            index, attempt = worker.current
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-cell: crash detected the
                # moment its pipe closed, no deadline needed.
                pool.respawn(workers.index(worker))
                fail_attempt(
                    index, "crash",
                    f"worker crashed (exitcode {worker.proc.exitcode})",
                )
                continue
            worker.current = None
            if reply[0] == "ok":
                _, r_index, r_attempt, crc, payload, obs = reply
                _absorb_sidecar(obs)
                if zlib.crc32(payload) != crc:
                    fail_attempt(
                        r_index, "corrupt",
                        "result payload failed its CRC-32 check",
                    )
                    continue
                try:
                    value = pickle.loads(payload)
                except Exception as exc:
                    fail_attempt(
                        r_index, "corrupt",
                        f"result payload failed to unpickle: {exc}",
                    )
                    continue
                complete(r_index, value)
            else:
                _, r_index, r_attempt, info, obs = reply
                _absorb_sidecar(obs)
                fail_attempt(
                    r_index, "exception", info["error"],
                    info["traceback"],
                )

        # Deadline scan: a worker past the per-cell timeout is
        # hung — kill it, respawn, replay the cell.
        if timeout is not None:
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if worker.current is None:
                    continue
                if now - worker.started <= timeout:
                    continue
                index, attempt = worker.current
                pool.respawn(slot)
                fail_attempt(
                    index, "hang",
                    f"cell exceeded {_ENV_TIMEOUT}={timeout}s "
                    "and its worker was terminated",
                )
    return [results[i] for i in range(total)]


# ----------------------------------------------------------------------
# The execution path — bounded chunks of a lazily generated cell stream
# ----------------------------------------------------------------------

#: Cells per streamed chunk: one checkpoint shard, one digest, one
#: bounded batch of in-flight results.
DEFAULT_CHUNK_SIZE = 512


@dataclass
class StreamStats:
    """What one streaming sweep did, without its per-cell results."""

    #: Cells pulled from the stream.
    total: int = 0
    #: Cells actually computed this run.
    computed: int = 0
    #: Cells replayed from checkpoint shards instead of computed.
    loaded: int = 0
    #: Chunks the stream was split into.
    chunks: int = 0
    #: Cells that exhausted their retries (``on_failure="partial"``).
    failures: list[CellFailure] = field(default_factory=list)


def run_stream(
    cells: Iterable[Cell],
    fn: Callable[[Cell], Any],
    consume: Callable[[int, Any], None],
    *,
    jobs: int | None = None,
    label: str | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    on_failure: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    directory: str | os.PathLike | None = None,
    resume: bool | None = None,
) -> StreamStats:
    """Apply ``fn`` to a lazily generated cell stream, handing each
    completed value to ``consume(index, value)`` in cell order.

    The one execution path (a :func:`run_cells` grid is a single
    chunk): cells are pulled from ``cells`` in chunks of
    ``chunk_size``, each chunk runs serially (``jobs <= 1``) or on the
    stream's one supervised worker pool (spawned on the first chunk
    with ``min(jobs, len(chunk))`` workers), and completed values are
    consumed and dropped — peak memory is bounded by the chunk size.
    ``consume`` must fold online (sufficient statistics, sketches);
    collecting values into a list reintroduces exactly the
    per-run-record blowup this entry point exists to avoid.

    ``jobs=None`` reads ``REPRO_JOBS``.  One job runs in-process — no
    pool, no pickling — which keeps unit tests and debugging sessions
    free of multiprocessing machinery.  ``timeout`` / ``retries`` /
    ``on_failure`` / ``directory`` / ``resume`` override
    ``REPRO_CELL_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_ON_FAILURE``
    / ``REPRO_CHECKPOINT_DIR`` / ``REPRO_RESUME``.

    Checkpointing is per chunk: with a checkpoint directory configured
    (``directory`` argument or ``REPRO_CHECKPOINT_DIR``), chunk ``k``
    of a stream labelled ``L`` streams to the digest-keyed shard
    ``L-<k>-<digest>``, so digest work stays bounded per chunk and a
    killed sweep resumes (``resume`` / ``REPRO_RESUME``) by replaying
    only the cells whose chunks never completed.  Resumed values flow
    through ``consume`` in the same order as computed ones — an
    interrupted-and-resumed sweep folds to *bit-identical* aggregate
    state.  Injected faults (``REPRO_FAULTS``) key on chunk-local
    indices, so every chunk faces the same deterministic fault
    schedule.

    ``on_failure="raise"`` raises :class:`GridExecutionError` after
    the failing chunk completes (later cells are never pulled);
    ``"partial"`` records failures in :class:`StreamStats` and keeps
    streaming — failed cells are *not* consumed.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    jobs = resolve_jobs(jobs)
    if timeout is None:
        timeout = cell_timeout()
    if retries is None:
        retries = cell_retries()
    if on_failure is None:
        on_failure = failure_policy()
    elif on_failure not in FAILURE_POLICIES:
        raise ValueError(
            f"on_failure must be one of {FAILURE_POLICIES}, got {on_failure!r}"
        )
    label = label or _auto_label(fn)
    if directory is None:
        directory = checkpoint_dir()
    if resume is None:
        resume = resume_enabled()

    stats = StreamStats()
    pool: _WorkerPool | None = None
    iterator = iter(cells)
    offset = 0
    progress = current_progress()
    # A runner that knows the stream length (the campaign) pre-sets
    # the total; otherwise the line grows it chunk by chunk.
    grow_total = progress is not None and progress.total is None
    try:
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            if grow_total:
                progress.add_total(len(chunk))
            checkpoint = None
            if directory is not None:
                checkpoint = GridCheckpoint(
                    directory, f"{label}-{stats.chunks:06d}", chunk, fn,
                    resume=resume,
                )
            try:
                with _span(
                    "chunk", "chunk",
                    label=label, chunk=stats.chunks, cells=len(chunk),
                ):
                    if jobs <= 1:
                        out = _run_serial(chunk, fn, retries, checkpoint)
                    else:
                        if pool is None:
                            pool = _WorkerPool(fn, min(jobs, len(chunk)))
                        out = _run_supervised(
                            chunk, timeout, retries, checkpoint, pool
                        )
                if checkpoint is not None:
                    stats.loaded += checkpoint.loaded_count
                    stats.computed += checkpoint.computed_count
                else:
                    stats.computed += sum(
                        not isinstance(v, CellFailure) for v in out
                    )
            finally:
                if checkpoint is not None:
                    checkpoint.close()
            stats.total += len(chunk)
            stats.chunks += 1
            for local, value in enumerate(out):
                if isinstance(value, CellFailure):
                    value.index = offset + local
                    stats.failures.append(value)
                else:
                    consume(offset + local, value)
            offset += len(chunk)
            if stats.failures and on_failure == "raise":
                raise GridExecutionError(stats.failures, stats.total)
    finally:
        if pool is not None:
            pool.shutdown()
    return stats
