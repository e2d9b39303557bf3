"""Digest-keyed grid checkpoints: stream results, resume after a kill.

A grid experiment is a list of pure cells; losing a multi-hour fan-out
to one Ctrl-C or OOM kill means recomputing cells whose results were
already known.  This module gives each chunk of
:func:`repro.experiments.parallel.run_stream` a durable side-channel.
The stream opens chunk ``k`` of a run labelled ``L`` under the label
``L-<k:06d>``, so a grid (one chunk) lives in the files
``L-000000-<digest16>.*``:

* a **manifest** (``<label>-<digest16>.manifest.json``, written via
  tmp+rename so it is never observed half-written) records what the
  grid *is*: experiment label, cell-function identity, effective
  engine, cell count, and the grid digest;
* a **shard** (``<label>-<digest16>.jsonl``) accumulates one JSON line
  per completed cell — appended as results arrive, each line a single
  ``write`` of ``{"i": index, "a": attempts, "p": base64(pickle)}``.
  A process killed mid-append leaves at most one truncated final
  line, which the loader skips and a resume cuts off before appending;
  every completed line is replayable.

The **grid digest** is SHA-256 over the label, the cell function's
module-qualified name, the effective engine, and the ``repr`` of every
cell.  Cells embed their seeds/scales/iteration budgets (the repo-wide
cell-tuple discipline), so any change to what would be computed —
different seed, different scale, different engine, reordered cells —
changes the digest and lands in a fresh shard: a resume can only ever
reuse results the current grid would recompute bit-identically.  The
engine is part of the key deliberately: results *are* engine-
independent, but a conformance run verifying engine X must not be
green-lit by engine Y's cached cells.

Resume semantics: construction with ``resume=False`` truncates any
existing shard (a fresh run never trusts stale bytes); ``resume=True``
loads every decodable line first, and the stream then computes only
the missing indices.  ``loaded_count`` / ``computed_count`` make the
split observable to the stream's statistics.

Creation ordering
-----------------
The manifest is written (atomically) *before* the shard is created or
truncated, so every crash window leaves a recoverable layout: a
manifest without a shard is a grid that never completed a cell, and a
shard without a manifest (a pre-hardening layout, or a deleted
manifest) is detected on open and **reconciled** — the stem embeds the
grid digest, so a digest-matching shard provably belongs to this exact
grid and its manifest is derived data (an :class:`OrphanShardWarning`
is emitted).  A manifest whose contents *contradict* the current grid
at the same stem (corruption, or a digest-prefix collision) raises
:class:`CheckpointMismatchError` instead of silently mixing results.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.obs.progress import current_progress
from repro.obs.trace import span as _span

_FORMAT_VERSION = 1


class CheckpointMismatchError(RuntimeError):
    """An on-disk manifest contradicts the grid that opened it."""


class OrphanShardWarning(UserWarning):
    """A digest-matching shard was found without its manifest and the
    manifest was re-derived (resume proceeds normally)."""


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via tmp+rename (same directory, so
    the ``os.replace`` is atomic on every POSIX filesystem)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: Path, payload) -> None:
    """Atomically write ``payload`` as indented, key-sorted JSON."""
    atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )


def grid_digest(
    label: str, fn: Callable, engine: str, cells: Sequence
) -> str:
    """SHA-256 identity of one grid computation (see module docs)."""
    hasher = hashlib.sha256()
    fn_name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    hasher.update(f"v{_FORMAT_VERSION}\0{label}\0{fn_name}\0{engine}\0".encode())
    for cell in cells:
        hasher.update(repr(cell).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


class GridCheckpoint:
    """One grid's durable result shard (see module docstring)."""

    def __init__(
        self,
        directory: str | os.PathLike,
        label: str,
        cells: Sequence,
        fn: Callable,
        engine: str | None = None,
        resume: bool = False,
    ):
        if engine is None:
            from repro.engine import effective_engine

            engine = effective_engine()
        self.label = label
        self.engine = engine
        self.num_cells = len(cells)
        self.digest = grid_digest(label, fn, engine, cells)
        directory = Path(directory)
        stem = f"{label}-{self.digest[:16]}"
        self.path = directory / f"{stem}.jsonl"
        self.manifest_path = directory / f"{stem}.manifest.json"
        self.loaded: dict[int, Any] = {}
        self.computed_count = 0
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": "repro-grid-checkpoint",
            "version": _FORMAT_VERSION,
            "label": label,
            "fn": f"{getattr(fn, '__module__', '?')}."
                  f"{getattr(fn, '__qualname__', repr(fn))}",
            "engine": engine,
            "cells": self.num_cells,
            "digest": self.digest,
        }
        existing = self._read_manifest()
        if existing is not None and existing != manifest:
            raise CheckpointMismatchError(
                f"checkpoint manifest {self.manifest_path} does not "
                f"describe this grid (on disk: {existing!r}; expected: "
                f"{manifest!r}).  The shard cannot be trusted — delete "
                f"{self.path} and its manifest, or point "
                "REPRO_CHECKPOINT_DIR elsewhere."
            )
        if existing is None and self.path.exists():
            # Orphan shard: a crash (or an older layout) left the
            # shard without its manifest.  The stem embeds the digest
            # we just recomputed, so the shard belongs to this exact
            # grid — re-derive the manifest and carry on.
            warnings.warn(
                f"checkpoint shard {self.path} had no manifest; "
                "re-derived it from the digest-matching grid",
                OrphanShardWarning,
                stacklevel=2,
            )
            progress = current_progress()
            if progress is not None:
                progress.note_orphans()
        # Manifest first: every crash window between here and the
        # first record() leaves a layout open() can classify.
        atomic_write_json(self.manifest_path, manifest)
        if resume and self.path.exists():
            with _span("checkpoint.load", "checkpoint", shard=self.path.name):
                self.loaded = self._load()
        else:
            # A fresh run never trusts stale bytes: truncate, so an
            # aborted earlier grid cannot leak half its results into
            # this one's accounting.
            self.path.write_text("")
        self._fh = self.path.open("a")

    def _read_manifest(self) -> dict | None:
        """The on-disk manifest, or None when absent/undecodable (an
        undecodable manifest is recoverable — it is derived data)."""
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    @property
    def loaded_count(self) -> int:
        return len(self.loaded)

    def _load(self) -> dict[int, Any]:
        """Replay every decodable shard line; cut off a truncated tail.

        Only a trailing partial line can exist (appends are sequential
        single writes).  It is truncated away here, so the next record
        starts a line of its own instead of extending the fragment.
        The loader tolerates any undecodable line, so a corrupted shard
        degrades to recomputation, never to a crash or a wrong result.
        """
        data = self.path.read_bytes()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            with self.path.open("r+b") as fh:
                fh.truncate(complete)
        results: dict[int, Any] = {}
        for line in data[:complete].splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                index = record["i"]
                value = pickle.loads(base64.b64decode(record["p"]))
            except Exception:
                continue
            if isinstance(index, int) and 0 <= index < self.num_cells:
                results[index] = value
        return results

    def record(self, index: int, attempts: int, value) -> None:
        """Stream one completed cell to the shard (one write + flush,
        so a kill between cells never loses a completed result)."""
        line = json.dumps({
            "i": index,
            "a": attempts,
            "p": base64.b64encode(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
        }, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.computed_count += 1

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


def checkpoint_dir() -> Path | None:
    """The configured checkpoint directory (``REPRO_CHECKPOINT_DIR``)."""
    raw = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
    return Path(raw) if raw else None


def resume_enabled() -> bool:
    """``REPRO_RESUME`` truthiness (set by ``--resume``)."""
    return os.environ.get("REPRO_RESUME", "") not in ("", "0")
