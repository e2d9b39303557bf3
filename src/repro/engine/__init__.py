"""Engine selection: the generic reference paths or the compiled C ones.

The simulator has one semantic model and two executions of it:

=================  ====================================================
``python``         the generic ``CacheHierarchy.access`` and
                   ``AutoCuckooFilter`` methods — the reference
                   implementation the compiled engine must match
                   bit-for-bit
``c`` (default)    the cache walk (L1 → L2 → LLC fill/evict →
                   monitor) and the Auto-Cuckoo Query/kick-walk
                   compiled to C via cffi
                   (:mod:`repro.engine.c_backend`,
                   :mod:`repro.engine.c_cache`); degrades to
                   ``python`` when no toolchain/cffi is available
=================  ====================================================

Selection is by the ``REPRO_ENGINE`` environment variable (so fork and
spawn workers inherit the choice automatically) or the CLI's
``--engine`` flag, resolved **lazily at bind time**: a core binds its
access entry point when it is constructed, after the monitor is
attached, and a filter binds its table and entry points when it is
built (:func:`bind_filter`).  The ``c`` engine is admissible only
because the golden-trace conformance harness (``tests/conformance/``)
replays the full attack × defence scenario matrix bit-identically under
both engines.  Every hierarchy takes the C walk, and every filter width
binds to the C kernels; only an instrumented filter (its shadow address
sets have no C form) stays on its generic methods, rather than
approximating.
"""

from __future__ import annotations

import os
import warnings

ENGINES: tuple[str, ...] = ("python", "c")
DEFAULT_ENGINE = "c"

_ENV_VAR = "REPRO_ENGINE"


def engine_name() -> str:
    """Resolve the selected engine from ``REPRO_ENGINE``.

    Unset/empty selects the default (``c``); invalid values raise so
    typos never silently change what is being measured.
    """
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_ENGINE
    if raw not in ENGINES:
        raise ValueError(
            f"{_ENV_VAR} must be one of {ENGINES}, got {raw!r}"
        )
    return raw


def set_engine(name: str) -> None:
    """Select an engine process-wide (and for future worker processes).

    Writes ``REPRO_ENGINE`` so multiprocessing workers — fork or spawn
    — rebuild the same kernels; the CLI's ``--engine`` flag routes
    through here.
    """
    if name not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
    os.environ[_ENV_VAR] = name


class EngineFallbackWarning(UserWarning):
    """The requested engine degraded to a slower one (``c`` with no
    cffi/toolchain).  Emitted once per (requested, actual) pair per
    process — loud enough that a fleet report cannot silently mix
    engines, quiet enough not to spam a grid of workers."""


#: (requested, actual) pairs already warned about in this process.
_FALLBACK_WARNED: set[tuple[str, str]] = set()


def note_fallback(requested: str, actual: str, reason: str | None) -> None:
    """Emit the structured once-per-process degradation warning."""
    key = (requested, actual)
    if key in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(key)
    warnings.warn(
        f"REPRO_ENGINE={requested!r} degraded to {actual!r}"
        f" ({reason or 'backend unavailable'}); results are "
        "bit-identical but slower — provenance stamps record the "
        "effective engine",
        EngineFallbackWarning,
        # Point past note_fallback and _c_unavailable at the caller of
        # the engine-seam function that detected the degradation.
        stacklevel=4,
    )


def _c_unavailable() -> bool:
    """True (after the once-per-process warning) when ``c`` cannot
    build on this host and every C-routed path degrades to ``python``."""
    from repro.engine import c_backend

    if c_backend.available():
        return False
    note_fallback("c", "python", c_backend.unavailable_reason())
    return True


def effective_engine() -> str:
    """The engine that will actually run, after global degradation.

    ``engine_name()`` reports the *request*; this resolves the one
    documented global fallback — ``c`` without a buildable cffi
    extension degrades to ``python``, with a structured
    :class:`EngineFallbackWarning` the first time it happens in a
    process.  Provenance stamps (benchmark records, artefact headers,
    ``result.extra["engine"]``) must use this, never the request, so a
    toolchain-less host cannot label python-engine numbers as C
    numbers.  (The per-filter fallback — instrumented filters — is
    config-local and not reflected here.)
    """
    name = engine_name()
    if name == "c" and _c_unavailable():
        return "python"
    return name


def engine_provenance() -> dict:
    """The stamp grid cells and fleet reports carry in
    ``result.extra["engine"]``: what was asked for, what actually ran,
    and whether a fallback happened (plus why, when known).

    Conformance digests scrub this key (it is provenance, not
    semantics — results are bit-identical across engines by
    construction), so stamping cannot drift the goldens.
    """
    requested = engine_name()
    effective = effective_engine()
    stamp = {
        "requested": requested,
        "effective": effective,
        "fallback": requested != effective,
    }
    if requested != effective:
        from repro.engine import c_backend

        reason = c_backend.unavailable_reason()
        if reason:
            stamp["reason"] = reason
    return stamp


def available_engines() -> tuple[str, ...]:
    """The engines this host can actually run.

    ``python`` is always available; ``c`` is included only when the
    cffi extension builds.  Used by the engine-parametrized test
    suites and the CI matrix.
    """
    from repro.engine import c_backend

    return ENGINES if c_backend.available() else ("python",)


def hierarchy_access(h):
    """The per-event access entry point for ``h`` under the selected
    engine: the generic bound method for ``python``, the installed C
    cache-walk kernel for ``c``.

    Every configuration takes the C walk; only a host without a
    toolchain gets the generic method back under ``c``.
    """
    from repro.obs.trace import current_recorder

    cs = h._c_state
    if cs is not None:
        # The C cache walk owns the storage (one-way install): its
        # kernel is the only consistent entry point whatever engine is
        # now selected.  The monitor, alarm bus and trace recorder were
        # baked in at install time and cannot be swapped under a live
        # C state.
        if (
            id(h.monitor),
            id(getattr(h.monitor, "alarms", None)),
            id(current_recorder()),
        ) != cs.monitor_key:
            raise RuntimeError(
                "monitor/alarm-bus/trace recorder changed after the C "
                "cache walk was installed; attach monitors, buses and "
                "the trace recorder before any core binds its access "
                "kernel, and use the hierarchy inside the recording() "
                "block it was installed in"
            )
        return cs.kernel
    if engine_name() == "c":
        from repro.engine import c_cache

        if c_cache.install(h):
            return h._c_state.kernel
        # Install fails only when the toolchain/cffi is missing: a
        # host-level degradation with the once-per-process warning.
        _c_unavailable()
    return h.access


def bind_filter(flt) -> bool:
    """Bind a new filter to the selected engine; True when its table
    now lives in C.

    ``AutoCuckooFilter.__init__`` calls it once, as a core binds
    :func:`hierarchy_access` when it is constructed.  Under ``c``
    :func:`c_backend.install` gives a non-instrumented filter zeroed C
    arrays and rebinds every entry point to the C kernels (one boundary
    crossing per ``array('Q')`` batch); otherwise the filter builds its
    Python tables and keeps the reference methods, which are
    bit-identical over the table state.  The binding is for life: a
    filter built into C keeps its arrays whatever engine is selected
    later, and one built under ``python`` stays on the reference path
    after a later ``set_engine("c")``.
    """
    if engine_name() != "c":
        return False
    from repro.engine import c_backend

    if c_backend.install(flt):
        return True
    # Toolchain/cffi missing warns once; per-filter ineligibility
    # (instrumented) is config-local and quiet.
    _c_unavailable()
    return False
