"""In-memory span tracer that wraps the public entry points of each layer.

The tracer patches methods and module functions from the outside (no file
under ``src/`` knows about it), records one span per wrapped call and
derives per-layer counts and host self time from them.

* A span's *busy* time is host time spent inside the call.  For a
  generator method it is the sum over all of its resumes, so time the
  generator spends suspended in the event loop is not charged to it.
* A span's *self* time is its busy time minus the busy time of the
  wrapped calls nested inside it.  Every resume of a process generator
  runs inside ``Engine.run``/``run_process``, so the engine's self time is
  the residual: event dispatch plus every workload generator frame that
  is not itself wrapped.
* Count-only targets (the engine's event constructors, ``DHPWriter``
  construction) bump a counter and record no span, so they do not split
  their caller's self time.

Wrappers pass arguments, return values, ``send``/``throw``/``close`` and
exceptions through unchanged; instrumentation must never perturb the
simulation (the benchmark checks that the traced run reproduces the
untraced telemetry digest).
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "Tracer"]

#: Kinds of target.
SPAN = "span"
COUNT = "count"
#: :meth:`Tracer.write_spans` writes at most this many spans.
SPAN_WRITE_LIMIT = 100_000


@dataclass(frozen=True)
class Target:
    """One patch point: ``module.owner.attr`` (``owner`` may be ``""`` for
    a module-level function) recorded under ``key``.

    ``key`` is ``"<layer>.<call>"``; the layer prefix groups self time.
    ``sim_time`` records the simulated duration of a generator call (first
    resume to completion; the instance's ``engine`` supplies the clock).
    ``samples`` keeps every call's busy time for percentiles.  ``hook`` is
    called as ``hook(tracer, args, result)`` after a successful call."""

    module: str
    owner: str
    attr: str
    key: str
    kind: str = SPAN
    sim_time: bool = False
    samples: bool = False
    hook: Optional[Callable[["Tracer", tuple, Any], None]] = None


def _count_segments(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.values["dhp.segments"] += len(result)


def _count_records(tracer: "Tracer", args: tuple, result: Any) -> None:
    records = args[1]
    if hasattr(records, "__len__"):
        tracer.values["metadata.records_in"] += len(records)


def _count_materialized(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.values["datamodel.materialize_bytes"] += len(result)


def _read_breakdown(tracer: "Tracer", args: tuple, result: Any) -> None:
    _results, breakdown = result
    values = tracer.values
    values["read_service.local_bytes"] += breakdown.local_bytes
    values["read_service.remote_bytes"] += breakdown.remote_bytes
    values["read_service.bb_bytes"] += breakdown.bb_bytes
    values["read_service.pfs_bytes"] += breakdown.pfs_bytes


_ENGINE = "repro.sim.engine"
_CORE = "repro.core."

#: The layer table: every public entry point the benchmark wraps.
TARGETS: Tuple[Target, ...] = (
    # engine: the two run loops are spans; event construction is counted.
    Target(_ENGINE, "Engine", "run", "engine.run"),
    Target(_ENGINE, "Engine", "run_process", "engine.run_process"),
    *(Target(_ENGINE, "Engine", name, f"engine.{name}", kind=COUNT)
      for name in ("timeout", "event", "process", "all_of", "any_of",
                   "call_later")),
    # fair-share bandwidth resources
    Target("repro.sim.resources", "BandwidthResource", "transfer",
           "resources.transfer"),
    Target("repro.sim.resources", "BandwidthResource", "recompute",
           "resources.recompute"),
    # simulated MPI
    Target("repro.simmpi.comm", "Communicator", "__init__",
           "simmpi.Communicator"),
    Target("repro.simmpi.mpiio", "File", "open", "simmpi.open"),
    Target("repro.simmpi.mpiio", "File", "close", "simmpi.close"),
    # server sessions and per-rank writers
    Target(_CORE + "server", "UniviStorServers", "session", "server.session"),
    Target(_CORE + "server", "FileSession", "writer_for", "server.writer_for"),
    Target(_CORE + "dhp", "DHPWriter", "__init__", "server.DHPWriter",
           kind=COUNT),
    # DHP placement and the virtual address space
    Target(_CORE + "dhp", "LogFile", "__init__", "dhp.LogFile"),
    Target(_CORE + "dhp", "DHPWriter", "write", "dhp.write",
           hook=_count_segments),
    Target(_CORE + "dhp", "LogFile", "free_segment", "dhp.free_segment"),
    Target(_CORE + "server", "FileSession", "cached_bytes_per_tier",
           "dhp.cached_bytes_per_tier"),
    Target(_CORE + "va", "VirtualAddressSpace", "__init__",
           "va.VirtualAddressSpace"),
    Target(_CORE + "va", "VirtualAddressSpace", "resolve", "va.resolve"),
    # metadata service
    Target(_CORE + "metadata", "MetadataService", "insert_many",
           "metadata.insert_many", hook=_count_records),
    Target(_CORE + "metadata", "MetadataService", "lookup", "metadata.lookup"),
    Target(_CORE + "metadata", "MetadataService", "write_target_servers",
           "metadata.write_target_servers"),
    Target(_CORE + "metadata", "MetadataService", "read_servers_for",
           "metadata.read_servers_for"),
    # client-side location cache
    Target(_CORE + "location_cache", "LocationCache", "lookup",
           "location_cache.lookup"),
    Target(_CORE + "location_cache", "LocationCache", "insert_records",
           "location_cache.insert_records"),
    # data-plane versioning; ``stamp_with_epochs`` is patched where the
    # client looks it up (it imports the name into its own namespace).
    Target(_CORE + "client", "", "stamp_with_epochs", "versioning.stamp"),
    Target(_CORE + "versioning", "VersionMap", "copy_from",
           "versioning.copy_from"),
    Target(_CORE + "versioning", "VersionMap", "stale_spans",
           "versioning.stale_spans"),
    # the client collective path (the ADIO layer)
    Target(_CORE + "client", "UniviStorDriver", "open", "client.open"),
    Target(_CORE + "client", "UniviStorDriver", "write_at_all",
           "client.write_at_all", sim_time=True, samples=True),
    Target(_CORE + "client", "UniviStorDriver", "read_at_all",
           "client.read_at_all", sim_time=True, samples=True),
    Target(_CORE + "client", "UniviStorDriver", "close", "client.close"),
    Target(_CORE + "client", "UniviStorDriver", "sync", "client.sync"),
    # read service
    Target(_CORE + "read_service", "ReadService", "read_collective",
           "read_service.read_collective", hook=_read_breakdown),
    Target(_CORE + "read_service", "ReadService", "resolve",
           "read_service.resolve"),
    Target(_CORE + "read_service", "ReadService", "resolve_degraded",
           "read_service.resolve_degraded"),
    # flush
    Target(_CORE + "flush", "FlushService", "start_flush", "flush.start"),
    Target(_CORE + "flush", "FlushService", "wait", "flush.wait",
           sim_time=True),
    # resilience, recovery and scrub
    Target(_CORE + "resilience", "ResilienceService", "start_replication",
           "resilience.start_replication"),
    Target(_CORE + "resilience", "ResilienceService", "resolve_replica",
           "resilience.resolve_replica"),
    Target(_CORE + "recovery", "RecoveryService", "handle_server_dead",
           "recovery.handle_server_dead"),
    Target(_CORE + "recovery", "RecoveryService", "handle_node_dead",
           "recovery.handle_node_dead"),
    Target(_CORE + "recovery", "ScrubService", "start_scrub", "scrub.start"),
    # adaptive hotspot mitigation (entry points on the metadata service)
    *(Target(_CORE + "metadata", "MetadataService", name, f"hotspot.{name}")
      for name in ("take_heat", "split_range", "merge_range", "add_server")),
    # workflow locks
    Target(_CORE + "workflow", "WorkflowManager", "acquire_write",
           "workflow.acquire_write", sim_time=True),
    Target(_CORE + "workflow", "WorkflowManager", "acquire_read",
           "workflow.acquire_read", sim_time=True),
    # payloads and extent maps
    Target("repro.storage.datamodel", "PatternPayload", "materialize",
           "datamodel.materialize", hook=_count_materialized),
    Target("repro.storage.datamodel", "ExtentMap", "write",
           "datamodel.extent_write"),
    Target("repro.storage.datamodel", "ExtentMap", "read",
           "datamodel.extent_read"),
)


class Tracer:
    """Records spans for wrapped calls while installed and enabled.

    A frame on :attr:`stack` is ``[span_id, nested_busy_seconds]``; the
    bottom frame is the root (span id 0) that absorbs top-level time.
    A span is stored as ``(id, parent_id, key, start, end, busy, self)``
    with host times relative to the tracer's creation.
    """

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.stack: List[list] = [[0, 0.0]]
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.sim_time: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Quantities the hooks accumulate (bytes, records, segments).
        self.values: Dict[str, float] = defaultdict(float)
        #: When False the wrappers call straight through, recording
        #: nothing (the benchmark's own bookkeeping runs this way).
        self.enabled = True
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------
    def install(self, targets: Tuple[Target, ...] = TARGETS) -> "Tracer":
        """Patch every target; :meth:`uninstall` restores the originals."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            raw = (owner.__dict__[target.attr] if target.owner
                   else getattr(module, target.attr))
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.wrap(fn, target)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.append((owner, target.attr, raw))
            setattr(owner, target.attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        if target.kind == COUNT:
            return self._wrap_count(fn, target.key)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, target)
        return self._wrap_call(fn, target)

    def _wrap_count(self, fn: Callable, key: str) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            if self.enabled:
                calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap_call(self, fn: Callable, target: Target) -> Callable:
        key = target.key
        hook = target.hook
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                busy = t1 - t0
                parent[1] += busy
                self._close(key, span_id, parent[0], t0, t1, busy,
                            busy - frame[1])
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.enabled:
                return gen
            return self._drive(gen, target, args)

        traced.__wrapped__ = fn
        return traced

    def _drive(self, gen, target: Target, args: tuple):
        """Run ``gen`` like ``yield from`` would, timing each resume."""
        stack = self.stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent_id = stack[-1][0]
        engine = args[0].engine if target.sim_time else None
        sim_start = None
        first = None
        busy = 0.0
        nested = 0.0
        send_value = None
        to_throw: Optional[BaseException] = None
        while True:
            frame = [span_id, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter()
            if first is None:
                first = t0
                if engine is not None:
                    sim_start = engine.now
            error: Optional[BaseException] = None
            returned = False
            try:
                if to_throw is None:
                    out = gen.send(send_value)
                else:
                    exc, to_throw = to_throw, None
                    out = gen.throw(exc)
            except StopIteration as stop:
                returned = True
                result = stop.value
            except BaseException as exc:  # escaped the generator
                error = exc
            t1 = perf_counter()
            stack.pop()
            step = t1 - t0
            parent[1] += step
            busy += step
            nested += frame[1]
            if returned or error is not None:
                self._finish(target, span_id, parent_id, first, t1, busy,
                             nested, engine, sim_start)
                if error is not None:
                    raise error
                if target.hook is not None:
                    target.hook(self, args, result)
                return result
            try:
                send_value = yield out
            except GeneratorExit:
                gen.close()
                self._finish(target, span_id, parent_id, first,
                             perf_counter(), busy, nested, None, None)
                raise
            except BaseException as exc:  # thrown in: deliver it inside
                to_throw = exc
                send_value = None
            out = None

    def _finish(self, target: Target, span_id: int, parent_id: int,
                start: float, end: float, busy: float, nested: float,
                engine, sim_start: Optional[float]) -> None:
        key = target.key
        self._close(key, span_id, parent_id, start, end, busy, busy - nested)
        if engine is not None:
            self.sim_time[key] += engine.now - sim_start
        if target.samples:
            self.samples[key].append(busy)

    def _close(self, key: str, span_id: int, parent_id: int, start: float,
               end: float, busy: float, self_s: float) -> None:
        self.calls[key] += 1
        self.busy[key] += busy
        self.self_time[key] += self_s
        origin = self.origin
        self.spans.append((span_id, parent_id, key, start - origin,
                           end - origin, busy, self_s))

    # -- explicit spans ---------------------------------------------------
    @contextmanager
    def region(self, key: str):
        """A span around a block of benchmark code."""
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = self.stack[-1]
        frame = [span_id, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            busy = t1 - t0
            parent[1] += busy
            self._close(key, span_id, parent[0], t0, t1, busy,
                        busy - frame[1])

    @contextmanager
    def paused(self):
        """Record nothing inside the block, and keep its time out of the
        enclosing span's self time."""
        self.enabled = False
        t0 = perf_counter()
        try:
            yield
        finally:
            self.stack[-1][1] += perf_counter() - t0
            self.enabled = True

    # -- derived figures --------------------------------------------------
    def layer_self(self, layer: str) -> float:
        """Self time of every wrapped call whose key is in ``layer``."""
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items()
                   if k.startswith(prefix))

    def count(self, *keys: str) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def call_tree(self) -> List[dict]:
        """Every span aggregated by (caller, callee) name, busiest first.
        The root caller is ``""``."""
        names = {0: ""}
        for span in self.spans:
            names[span[0]] = span[2]
        edges: Dict[Tuple[str, str], list] = {}
        for span in self.spans:
            edge = edges.setdefault((names.get(span[1], "?"), span[2]),
                                    [0, 0.0, 0.0])
            edge[0] += 1
            edge[1] += span[5]
            edge[2] += span[6]
        return [{"caller": caller, "name": name, "calls": calls,
                 "busy_s": busy, "self_s": self_s}
                for (caller, name), (calls, busy, self_s)
                in sorted(edges.items(), key=lambda kv: -kv[1][1])]

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields and
        holding the :meth:`call_tree` of all spans, then one array per span
        in completion order, the first :data:`SPAN_WRITE_LIMIT` of them."""
        limit = SPAN_WRITE_LIMIT
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "fields": ["id", "parent", "name", "start_s", "end_s",
                           "busy_s", "self_s"],
                "spans": len(self.spans),
                "written": min(limit, len(self.spans)),
                "call_tree": self.call_tree()}) + "\n")
            for sid, parent, name, start, end, busy, self_s in \
                    self.spans[:limit]:
                fh.write(f'[{sid},{parent},"{name}",{start:.9f},{end:.9f},'
                         f'{busy:.9f},{self_s:.9f}]\n')
