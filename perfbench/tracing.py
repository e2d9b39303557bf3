"""Outside-in layer trace for the benchmark's traced runs.

:class:`Tracer` wraps the public calls into each simulator layer for
the duration of ``installed()`` and restores them afterwards; nothing
under ``src/`` changes.  Coarse calls (a system run, a kernel install,
a sync, a campaign fold, a filter build or batch call) become spans on
a :class:`repro.obs.trace.TraceRecorder`, which also collects the
program's own ``assemble``/``simulate`` spans.  Calls made once per
memory operation or record (the access kernel, workload emission, the
event queue) are too many to keep as spans: their time and count add
up in accumulators and ride on the enclosing ``cpu.simulate`` span as
arguments.

Parents are assigned by containment on the one timeline, as Perfetto
does; a span's self time is its duration minus its children's and
minus the per-op time it carries.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.multicore import MulticoreSystem
from repro.experiments.campaign import CampaignAggregate
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.obs.trace import TraceRecorder, recording
from repro.utils.events import EventQueue
from repro.workloads.base import Workload

#: Slack for comparing wall-clock starts with perf-counter durations (µs).
TOLERANCE_US = 50.0

#: Per-op accumulators carried on each ``cpu.simulate`` span.
FINE = ("access", "emit", "events")

#: Per-layer metrics, in the order BENCHMARK.json lists them.
TIME_METRICS = (
    "workloads.emit_s", "engine.access_s", "cpu.sched_self_s",
    "cpu.assemble_s", "cpu.simulate_s", "utils.events_s",
    "engine.install_s", "engine.sync_s", "experiments.fold_s",
    "experiments.stream_s", "filters.build_s", "filters.install_s",
    "filters.batch_s",
)
COUNT_METRICS = (
    "workloads.records", "engine.access_calls", "utils.events_fired",
    "engine.installs", "filters.builds", "filters.batch_keys",
    "cache.l1_hits", "cache.l1_misses", "cache.llc_misses",
    "cache.llc_evictions", "core.captures", "core.pevicts",
    "core.prefetches_issued", "detection.alarms", "detection.verdicts",
    "filters.kicks", "filters.autonomic_deletions",
)


class _TimedIterator:
    """Forwards ``next``/``send`` to a record generator or chunk
    iterator, adding the time spent inside to an accumulator."""

    __slots__ = ("_it", "_acc", "_chunks")

    def __init__(self, it, acc, chunks):
        self._it = it
        self._acc = acc
        self._chunks = chunks

    def __iter__(self):
        return self

    def _count(self, value):
        self._acc[1] += len(value) if self._chunks else 1
        return value

    def __next__(self):
        started = time.perf_counter()
        try:
            return self._count(next(self._it))
        finally:
            self._acc[0] += time.perf_counter() - started

    def send(self, value):
        started = time.perf_counter()
        try:
            return self._count(self._it.send(value))
        finally:
            self._acc[0] += time.perf_counter() - started

    def close(self):
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


class _TimedBatch:
    """The engine batch view of one filter, with each batch call as a
    ``filters.batch`` span."""

    def __init__(self, tracer, flt, batch):
        self._tracer = tracer
        self._flt = flt
        self._batch = batch

    def _call(self, op, keys):
        flt = self._flt
        kicks, autonomic = flt.total_relocations, flt.autonomic_deletions
        with self._tracer.span("filters.batch", op=op, keys=len(keys)):
            out = getattr(self._batch, op)(keys)
        counts = self._tracer.counts
        counts["filters.batch_keys"] += len(keys)
        counts["filters.kicks"] += flt.total_relocations - kicks
        counts["filters.autonomic_deletions"] += flt.autonomic_deletions - autonomic
        return out

    def insert_many(self, keys):
        return self._call("insert_many", keys)

    def query_many(self, keys):
        return self._call("query_many", keys)

    def delete_many(self, keys):
        return self._call("delete_many", keys)


def _workload_classes():
    seen, todo = [], [Workload]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Spans plus per-op accumulators for one workload's traced units."""

    def __init__(self, workload: str):
        self.workload = workload
        self.recorder = TraceRecorder()
        self.fine = {name: [0.0, 0] for name in FINE}
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._emitting = False

    # -- spans --------------------------------------------------------

    @contextmanager
    def span(self, name: str, **args):
        """Record the block as a complete event; the yielded dict's
        contents become the span's arguments."""
        args["workload"] = self.workload
        ts = time.time() * 1e6
        started = time.perf_counter()
        try:
            yield args
        finally:
            dur = (time.perf_counter() - started) * 1e6
            self.recorder.add(name, "perfbench", ts, dur, args=args)

    # -- wrappers -----------------------------------------------------

    def _patches(self):
        tracer = self
        fine = self.fine
        counts = self.counts
        perf = time.perf_counter

        run = MulticoreSystem.run

        def traced_run(system, *args, **kwargs):
            before = {name: fine[name][0] for name in FINE}
            with tracer.span("cpu.simulate") as span_args:
                result = run(system, *args, **kwargs)
                for name in FINE:
                    span_args[f"{name}_us"] = (fine[name][0] - before[name]) * 1e6
            stats = result.stats
            counts["cache.l1_hits"] += stats.l1_hits
            counts["cache.l1_misses"] += stats.l1_misses
            counts["cache.llc_misses"] += stats.llc_misses
            counts["cache.llc_evictions"] += stats.llc_evictions
            monitor_stats = result.monitor_stats
            for field, key in (("captures", "core.captures"),
                               ("pevicts", "core.pevicts"),
                               ("prefetches_issued", "core.prefetches_issued")):
                counts[key] += getattr(monitor_stats, field, 0)
            detection = result.extra.get("detection")
            if detection is not None:
                counts["detection.alarms"] += detection["alarms_published"]
                counts["detection.verdicts"] += detection["verdicts"]
            flt = getattr(system.hierarchy.monitor, "filter", None)
            if isinstance(flt, AutoCuckooFilter):
                counts["filters.kicks"] += flt.total_relocations
                counts["filters.autonomic_deletions"] += flt.autonomic_deletions
            return result

        engine_access = CacheHierarchy.engine_access
        access = fine["access"]

        def traced_engine_access(hierarchy):
            if hierarchy._c_state is None:
                with tracer.span("engine.install"):
                    kernel = engine_access(hierarchy)
                if hierarchy._c_state is not None:
                    counts["engine.installs"] += 1
            else:
                kernel = engine_access(hierarchy)

            def timed(core, op, addr, now=0, _kernel=kernel, _acc=access):
                started = perf()
                latency = _kernel(core, op, addr, now)
                _acc[0] += perf() - started
                _acc[1] += 1
                return latency

            return timed

        engine_sync = CacheHierarchy.engine_sync

        def traced_engine_sync(hierarchy):
            with tracer.span("engine.sync"):
                engine_sync(hierarchy)

        run_until = EventQueue.run_until
        events = fine["events"]

        def traced_run_until(queue, now):
            started = perf()
            fired = run_until(queue, now)
            events[0] += perf() - started
            events[1] += fired
            return fired

        update = CampaignAggregate.update

        def traced_update(aggregate, index, record):
            with tracer.span("experiments.fold"):
                update(aggregate, index, record)

        from_fpp = AutoCuckooFilter.__dict__["from_fpp"].__func__

        def traced_from_fpp(cls, *args, **kwargs):
            with tracer.span("filters.build"):
                return from_fpp(cls, *args, **kwargs)

        engine_batch = AutoCuckooFilter.engine_batch

        def traced_engine_batch(flt):
            with tracer.span("filters.install"):
                batch = engine_batch(flt)
            return _TimedBatch(tracer, flt, batch)

        patches = [
            (MulticoreSystem, "run", traced_run),
            (CacheHierarchy, "engine_access", traced_engine_access),
            (CacheHierarchy, "engine_sync", traced_engine_sync),
            (EventQueue, "run_until", traced_run_until),
            (CampaignAggregate, "update", traced_update),
            (AutoCuckooFilter, "from_fpp", classmethod(traced_from_fpp)),
            (AutoCuckooFilter, "engine_batch", traced_engine_batch),
        ]
        emit = fine["emit"]
        for cls in _workload_classes():
            for name, chunks in (("generator", False), ("record_chunks", True)):
                if name in cls.__dict__:
                    patches.append((cls, name, self._timed_factory(
                        cls.__dict__[name], emit, chunks)))
        return patches

    def _timed_factory(self, factory, acc, chunks):
        """Wrap a workload's stream factory so only the outermost call
        (a SpecWorkload delegates to its inner model) is timed."""
        tracer = self

        def wrapped(workload, *args, **kwargs):
            if tracer._emitting:
                return factory(workload, *args, **kwargs)
            tracer._emitting = True
            try:
                stream = factory(workload, *args, **kwargs)
            finally:
                tracer._emitting = False
            return _TimedIterator(stream, acc, chunks)

        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every layer entry point and collect the program's own
        spans; restore everything on exit."""
        patches = self._patches()
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        with recording(self.recorder):
            try:
                for owner, name, new in patches:
                    setattr(owner, name, new)
                yield self
            finally:
                for owner, name, old in saved:
                    setattr(owner, name, old)

    # -- analysis -----------------------------------------------------

    def spans(self) -> list[dict]:
        """Complete events in start order, each with ``parent`` (index
        into this list, or None) and ``self_us`` filled in."""
        events = sorted(
            (dict(e) for e in self.recorder.events if e.get("ph") == "X"),
            key=lambda e: (e["ts"], -e["dur"]),
        )
        stack: list[int] = []
        for i, event in enumerate(events):
            end = event["ts"] + event["dur"]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] + TOLERANCE_US < end:
                stack.pop()
            event["parent"] = stack[-1] if stack else None
            args = event["args"] = dict(event.get("args") or {})
            if stack:
                # The program's own spans carry no workload or item id.
                for key in ("workload", "item"):
                    args.setdefault(key, events[stack[-1]]["args"].get(key))
            event["self_us"] = event["dur"] - sum(args.get(f"{n}_us", 0.0) for n in FINE)
            if stack:
                events[stack[-1]]["self_us"] -= event["dur"]
            stack.append(i)
        return events

    def nesting_problems(self) -> list[str]:
        """Layer times that do not fit inside their enclosing span."""
        problems = []
        for i, event in enumerate(self.spans()):
            if event["self_us"] < -TOLERANCE_US:
                problems.append(
                    f"span {i} {event['name']}: children and per-op time exceed "
                    f"its duration by {-event['self_us']:.1f} us"
                )
            parent = event["parent"]
            if event["name"] == "cpu.simulate" and parent is None:
                problems.append(f"span {i} cpu.simulate has no enclosing unit span")
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts over everything traced so far."""
        spans = self.spans()

        def total(name, key="dur"):
            return sum(e[key] for e in spans if e["name"] == name) / 1e6

        tenants = total("experiments.tenant")
        fold = total("experiments.fold")
        campaigns = total("experiments.campaign")
        harness = total("bench.harness")
        metrics = {
            "workloads.emit_s": self.fine["emit"][0],
            "engine.access_s": self.fine["access"][0],
            "cpu.sched_self_s": total("cpu.simulate", "self_us"),
            "cpu.assemble_s": total("assemble"),
            "cpu.simulate_s": total("cpu.simulate"),
            "utils.events_s": self.fine["events"][0],
            "engine.install_s": total("engine.install"),
            "engine.sync_s": total("engine.sync"),
            "experiments.fold_s": fold,
            "experiments.stream_s": (campaigns - tenants - fold - harness
                                     if campaigns else 0.0),
            "filters.build_s": total("filters.build"),
            "filters.install_s": total("filters.install"),
            "filters.batch_s": total("filters.batch"),
        }
        counts = dict(self.counts)
        counts["workloads.records"] = self.fine["emit"][1]
        counts["engine.access_calls"] = self.fine["access"][1]
        counts["utils.events_fired"] = self.fine["events"][1]
        counts["filters.builds"] = sum(1 for e in spans if e["name"] == "filters.build")
        metrics.update(counts)
        return metrics

    def chrome_events(self, first: int = 0) -> list[dict]:
        """The spans as Chrome-trace complete events, with the parent
        (an event index, counted from ``first``) and the self time in
        their arguments."""
        events = []
        for event in self.spans():
            args = dict(event["args"])
            parent = event["parent"]
            args["parent"] = None if parent is None else parent + first
            args["self_us"] = round(event["self_us"], 3)
            events.append({k: event[k] for k in ("name", "cat", "ph", "ts", "dur", "pid", "tid")}
                          | {"args": args})
        return events


def merge_layer_metrics(runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time metric across repetitions; counts must
    repeat exactly (returned problems name any that did not)."""
    merged = {}
    problems = []
    for name in TIME_METRICS:
        merged[name] = statistics.median(run[name] for run in runs)
    for name in COUNT_METRICS:
        values = {run[name] for run in runs}
        if len(values) > 1:
            problems.append(f"{name} did not repeat: {sorted(values)}")
        merged[name] = runs[0][name]
    return merged, problems
