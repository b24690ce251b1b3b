"""Outside-in span tracing for the benchmark's traced run.

The program under test carries no benchmark hooks.  :class:`Tracer`
instead replaces the public entry points of each layer with thin
wrappers (module functions in every ``repro.*`` module that bound them,
methods on their classes) and restores the originals on
:meth:`Tracer.uninstall`.

Every wrapped call is one span: name, start, end, parent span and the
id of the benchmark call (batch or single request) it served.  Spans
are kept in flat ``array`` columns, so a run of a few million spans
stays in tens of megabytes, and are written out by :meth:`Tracer.save`
when the run ends.  Self time (a span's duration minus the time its
direct children cover) is accumulated per span name as spans close;
the process is single-threaded, so children never overlap.

Garbage-collector pauses are spans too (``runtime.gc``, from
``gc.callbacks``): a pause is charged to the runtime, not to the layer
that happened to allocate when it fired.
"""

from __future__ import annotations

import gc
import sys
from array import array
from time import perf_counter


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.col_name = array("H")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("i")
        self.col_request = array("i")
        self._stack = array("i")
        self._child = array("d")
        self.self_time: list = []
        self.calls: list = []
        self.counts: dict = {}
        #: Benchmark call id stamped on every span opened from now on
        #: (``-1`` during set-up).
        self.request = -1
        self._undo: list = []
        self._gc_cb = None

    # -- span bookkeeping ------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_time.append(0.0)
            self.calls.append(0)
        return nid

    # ``begin``/``end`` allocate no garbage-collected object, so a
    # collection (and its ``runtime.gc`` span) cannot start half-way
    # through their bookkeeping.
    def begin(self, nid: int) -> int:
        idx = len(self.col_start)
        stack = self._stack
        self.col_name.append(nid)
        self.col_parent.append(stack[-1] if stack else -1)
        self.col_request.append(self.request)
        self.col_start.append(0.0)
        self.col_end.append(0.0)
        stack.append(idx)
        self._child.append(0.0)
        self.col_start[idx] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        t = perf_counter()
        self.col_end[idx] = t
        dur = t - self.col_start[idx]
        self._stack.pop()
        child = self._child.pop()
        nid = self.col_name[idx]
        self.self_time[nid] += dur - child
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += dur

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, name, after=None):
        nid = self.name_id(name)
        begin = self.begin
        end = self.end

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, fn, replacement) -> None:
        """Point every loaded ``repro`` module attribute bound to
        ``fn`` (``from x import f`` copies the name) at
        ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, fn))

    def wrap_function(self, fn, name, after=None) -> None:
        """Wrap a module-level function wherever it is bound."""
        self._rebind(fn, self._wrap(fn, name, after))

    def wrap_method(self, cls, attr, name, after=None,
                    only_if=None) -> None:
        """Wrap ``cls.attr``; ``only_if(self)`` false calls through
        untraced."""
        fn = cls.__dict__[attr]
        wrapped = self._wrap(fn, name, after)
        if only_if is not None:
            def gated(obj, *args, **kwargs):
                if only_if(obj):
                    return wrapped(obj, *args, **kwargs)
                return fn(obj, *args, **kwargs)

            gated.__wrapped__ = fn
            setattr(cls, attr, gated)
        else:
            setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, fn))

    def counter_after(self, name, measure):
        """An ``after`` hook adding ``measure(args, kwargs, result)``
        to counter ``name``."""
        def after(args, kwargs, result):
            self.count(name, measure(args, kwargs, result))
        return after

    def wrap_counting(self, fn, name, measure) -> None:
        """Count through a module function without opening a span, so
        its time stays in the caller's self time."""
        count = self.count

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(name, measure(args, kwargs, result))
            return result

        self._rebind(fn, wrapper)

    def trace_gc(self) -> None:
        nid = self.name_id("runtime.gc")
        open_spans = []

        def callback(phase, info):
            if phase == "start":
                open_spans.append(self.begin(nid))
            elif open_spans:
                self.end(open_spans.pop())
                if info.get("generation") == 2:
                    self.count("runtime.gc_gen2", 1)

        self._gc_cb = callback
        gc.callbacks.append(callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._gc_cb is not None:
            gc.callbacks.remove(self._gc_cb)
            self._gc_cb = None

    # -- results ---------------------------------------------------------
    def layer_self_time(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.self_time[nid]

    def layer_calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def save(self, path: str) -> None:
        """Write every span as numpy columns (``np.load(path)``)."""
        import numpy as np

        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.col_name, dtype=np.uint16),
            start=np.frombuffer(self.col_start, dtype=np.float64),
            end=np.frombuffer(self.col_end, dtype=np.float64),
            parent=np.frombuffer(self.col_parent, dtype=np.int32),
            request=np.frombuffer(self.col_request, dtype=np.int32),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from repro.controlplane import controller as cp_controller
    from repro.controlplane import diff as cp_diff
    from repro.controlplane.federation import FederatedNetwork
    from repro.core.network import GredNetwork
    from repro.dataplane import forwarding
    from repro.dataplane.fastpath import CompiledRouter
    from repro.edge.server import EdgeServer
    from repro.embedding import cvt, mds
    from repro.geometry.delaunay import DelaunayTriangulation
    from repro.hashing import batch, position
    from repro.obs.instruments import (
        Counter, Gauge, Histogram, MetricsRegistry,
    )

    tracer.wrap_function(batch.sha256_digests, "hashing",
                         tracer.counter_after(
                             "hashing.ids", lambda a, k, r: len(r)))
    tracer.wrap_function(position.data_position, "hashing",
                         tracer.counter_after(
                             "hashing.ids", lambda a, k, r: 1))

    def waves(args, kwargs, result):
        tracer.count("dataplane.route_batch.requests", len(args[1]))
        tracer.count("dataplane.waves", args[0].last_batch_waves)
        if tracer.request >= 0:
            tracer.count("traffic.routed", len(args[1]))

    tracer.wrap_method(CompiledRouter, "route_batch",
                       "dataplane.route_batch", waves)
    tracer.wrap_method(CompiledRouter, "patch", "dataplane.patch")
    tracer.wrap_function(forwarding.route_packet, "dataplane.forward")

    # Replica requests issued to the batch facade during the timed
    # traffic, against which route reuse is measured.
    def place_issued(args, kwargs, result):
        if tracer.request >= 0:
            tracer.count("traffic.issued",
                         sum(len(r.records) for r in result))

    def retrieve_issued(args, kwargs, result):
        if tracer.request >= 0:
            tracer.count("traffic.issued",
                         sum(r.attempts for r in result))

    tracer.wrap_method(GredNetwork, "place_many", "core.place_many",
                       place_issued)
    tracer.wrap_method(GredNetwork, "retrieve_many",
                       "core.retrieve_many", retrieve_issued)
    tracer.wrap_method(GredNetwork, "delete", "core.delete")
    migrated = tracer.counter_after("core.migrated_items",
                                    lambda a, k, r: r)
    tracer.wrap_method(GredNetwork, "add_switch", "core.migrate",
                       migrated)
    tracer.wrap_method(GredNetwork, "remove_switch", "core.migrate",
                       migrated)
    # The single-request core path: the federation's shard child, and
    # the re-placement step of migrations.
    for attr in ("place", "retrieve", "_place_one", "probe_replica"):
        tracer.wrap_method(GredNetwork, attr, "core.request")

    for attr in ("store", "store_many"):
        tracer.wrap_method(EdgeServer, attr, "edge.store")
    for attr in ("retrieve", "has"):
        tracer.wrap_method(EdgeServer, attr, "edge.retrieve")

    Controller = cp_controller.Controller
    tracer.wrap_method(Controller, "closest_switch",
                       "controlplane.closest")
    tracer.wrap_method(Controller, "add_switch",
                       "controlplane.add_switch")
    tracer.wrap_method(Controller, "remove_switch",
                       "controlplane.remove_switch")
    tracer.wrap_method(Controller, "recompute", "controlplane.recompute")
    tracer.wrap_counting(cp_diff.diff_plans, "controlplane.delta_msgs",
                         lambda a, k, r: len(r))
    for attr in ("place", "retrieve"):
        tracer.wrap_method(FederatedNetwork, attr,
                           "controlplane.federation")

    tracer.wrap_function(mds.m_position, "embedding.mds")
    tracer.wrap_function(cvt.c_regulation, "embedding.cvt")
    tracer.wrap_method(DelaunayTriangulation, "__init__",
                       "geometry.delaunay")
    tracer.wrap_method(DelaunayTriangulation, "insert_point",
                       "geometry.delaunay")

    tracer.wrap_method(Counter, "inc", "obs")
    tracer.wrap_method(Gauge, "set", "obs")
    tracer.wrap_method(Histogram, "observe", "obs")
    tracer.wrap_method(Histogram, "observe_many", "obs")
    # A disabled registry hands out the shared no-op instrument: that
    # lookup is not an emission, so it is left untraced.
    for attr in ("counter", "gauge", "histogram"):
        tracer.wrap_method(MetricsRegistry, attr, "obs",
                           only_if=lambda reg: reg.enabled)
    tracer.trace_gc()
