"""``GredNetwork``: the public facade of the GRED system.

Wires the control plane, the data plane and the edge plane together and
exposes the two services the paper defines — *data placement* (deliver a
data item to an edge server for storage) and *data retrieval* (find the
storage server of an item and bring the data back to the user) — plus
range extension, replication and network dynamics.

Typical use::

    from repro import GredNetwork, attach_uniform, brite_waxman_graph
    import numpy as np

    rng = np.random.default_rng(7)
    topology, _ = brite_waxman_graph(50, min_degree=3, rng=rng)
    servers = attach_uniform(topology.nodes(), servers_per_switch=10)
    net = GredNetwork(topology, servers, cvt_iterations=50)

    placement = net.place("videos/cam3/frame-001", payload=b"...")
    result = net.retrieve("videos/cam3/frame-001", entry_switch=4)
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import utils
from ..controlplane import Controller, ControllerConfig
from ..dataplane import (
    CompiledRouter,
    ForwardingError,
    Packet,
    PacketKind,
    RouteResult,
    route_packet,
)
from ..edge import (
    EdgeServer,
    ServerMap,
    StorageFull,
    attach_uniform,
    load_vector,
)
from ..geometry import euclidean
from ..graph import Graph, bfs_distances, hop_count
from ..hashing import (
    data_position,
    positions_from_digests,
    replica_id,
    replica_ids_flat,
    serials_from_digests,
    server_index,
    sha256_digests,
)
from ..obs import BYTE_BUCKETS, HOP_BUCKETS, default_registry, demand_region
from ..obs.bridge import spans_from_tracer
from ..obs.spans import default_recorder as default_span_recorder
from .results import PlacementRecord, PlacementResult, RetrievalResult

#: ``registry.family`` arguments of the labelled series emitted per
#: switch, server and region; the scalar and batch paths share them.
_TRANSITS = ("counter", "dataplane.switch_transits", "switch")
_SERVER_LOAD = ("gauge", "edge.server_load", ("switch", "serial"))
_REGION_ACCESSES = ("counter", "demand.region_accesses", "region")


class _FastPathState:
    """Epoch-scoped request fast path: the compiled router plus the
    hop-distance cache that shares its lifetime.

    ``epoch`` tracks the controller's global epoch (a mismatch means
    every position moved — rebuild everything); ``version`` tracks its
    change counter so scoped events (joins, leaves, link changes) can
    patch only the affected router rows.  Routes are not kept across
    batches: each batch routes its distinct ``(entry, copy_id)`` keys
    once (see :meth:`GredNetwork._fast_routes`)."""

    __slots__ = ("epoch", "version", "router", "hops")

    def __init__(self, epoch: int, version: int,
                 router: CompiledRouter) -> None:
        self.epoch = epoch
        self.version = version
        self.router = router
        #: BFS hop distances keyed by source switch.
        self.hops: Dict[int, Dict[int, int]] = {}


class GredError(Exception):
    """Raised for invalid requests against a :class:`GredNetwork`."""


def _payload_size(payload: Any) -> Optional[int]:
    """Byte/element size of a payload for the size histogram, or
    ``None`` for unsized payloads."""
    if payload is None:
        return None
    try:
        return len(payload)
    except TypeError:
        return None


class GredNetwork:
    """A complete software-defined edge network running GRED.

    Parameters
    ----------
    topology:
        Physical switch graph (connected).
    server_map:
        Servers per switch; when omitted, ``servers_per_switch``
        identical unbounded servers are attached to every switch.
    servers_per_switch:
        Used only when ``server_map`` is omitted.
    cvt_iterations:
        The paper's ``T``.  ``0`` gives the GRED-NoCVT variant.
    samples_per_iteration, seed:
        Forwarded to the control plane.
    position_fn:
        Mapping from a data identifier to its virtual-space position.
        Defaults to the paper's SHA-256 scheme
        (:func:`repro.hashing.data_position`, uniform over the unit
        square).  Deployments with locality-preserving naming pass
        their own deterministic mapping here — and a matching
        ``density_sampler`` so C-regulation equalizes load under that
        density (paper Equation 2).
    density_sampler:
        Optional ``(k, rng) -> (k, 2)`` sampler of the data-position
        density, forwarded to C-regulation.
    """

    def __init__(
        self,
        topology: Graph,
        server_map: Optional[ServerMap] = None,
        servers_per_switch: int = 10,
        cvt_iterations: int = 50,
        samples_per_iteration: int = 1000,
        seed: int = 0,
        position_fn=None,
        density_sampler=None,
    ) -> None:
        if server_map is None:
            server_map = attach_uniform(
                topology.nodes(), servers_per_switch=servers_per_switch
            )
        config = ControllerConfig(
            cvt_iterations=cvt_iterations,
            samples_per_iteration=samples_per_iteration,
            seed=seed,
            density_sampler=density_sampler,
        )
        self._position_fn = position_fn or data_position
        self.controller = Controller(topology, server_map, config=config)
        self._fault_state = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def fault_state(self):
        """Ground-truth failure state, or ``None`` when no
        :class:`~repro.faults.FaultInjector` is attached.  When set,
        routing degrades around crashed switches/links and retrieval
        skips crashed servers."""
        # getattr: snapshots restore via __new__ and predate the field.
        return getattr(self, "_fault_state", None)

    @fault_state.setter
    def fault_state(self, state) -> None:
        self._fault_state = state

    @property
    def hinted_handoff(self) -> bool:
        """Whether writes/deletes aimed at an unreachable home server
        are parked as hints on the nearest live server (drained by
        :meth:`drain_hints` / :meth:`scrub`) instead of raising.
        Off by default: without it a placement toward a crashed,
        unrepaired server fails loudly, which is the right default for
        chaos experiments that count errors."""
        # getattr: snapshots restore via __new__ and predate the field.
        return getattr(self, "_hinted_handoff", False)

    @hinted_handoff.setter
    def hinted_handoff(self, enabled: bool) -> None:
        self._hinted_handoff = bool(enabled)

    @property
    def write_version(self) -> int:
        """The network-global write clock: how many stamped write /
        delete operations have been issued.  Only advances while a
        fault state is attached (stamps exist for repair; the
        fault-free paths stay byte-identical without them)."""
        return getattr(self, "_write_version", 0)

    def _next_stamp(self, origin: int):
        """Allocate the next ``(version, origin)`` write stamp.  One
        stamp is shared by every copy of one logical operation so
        cross-copy staleness is comparable."""
        version = getattr(self, "_write_version", 0) + 1
        self._write_version = version
        return (version, origin)

    @property
    def topology(self) -> Graph:
        return self.controller.topology

    @property
    def server_map(self) -> ServerMap:
        return self.controller.server_map

    def switch_ids(self) -> List[int]:
        return self.topology.nodes()

    def servers(self) -> List[EdgeServer]:
        from ..edge import all_servers

        return all_servers(self.server_map)

    def server(self, switch: int, serial: int) -> EdgeServer:
        servers = self.server_map.get(switch)
        if servers is None or serial >= len(servers) or serial < 0:
            raise GredError(f"unknown server ({switch}, {serial})")
        return servers[serial]

    def load_vector(self) -> List[int]:
        """Per-server stored-item counts (deterministic order)."""
        return load_vector(self.server_map)

    def record_load_gauges(self) -> None:
        """Refresh the telemetry gauges from the current edge-plane
        state: one ``edge.server_load`` gauge per server plus the
        ``edge.servers`` / ``edge.stored_items`` aggregates.  No-op
        when the default registry is disabled."""
        registry = default_registry()
        if not registry.enabled:
            return
        load = registry.family(*_SERVER_LOAD)
        total = 0
        count = 0
        for switch in sorted(self.server_map):
            for server in self.server_map[switch]:
                load[switch, server.serial].set(server.load)
                total += server.load
                count += 1
        registry.gauge("edge.servers").set(count)
        registry.gauge("edge.stored_items").set(total)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(
        self,
        data_id: str,
        payload: Any = None,
        entry_switch: Optional[int] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> PlacementResult:
        """Place ``data_id`` (and ``copies - 1`` extra replicas).

        Each copy ``i`` is routed independently toward ``H(d || i)``
        (paper Section VI) from ``entry_switch`` (random when omitted).
        """
        if copies < 1:
            raise GredError(f"copies must be >= 1, got {copies}")
        entry = self._resolve_entry(entry_switch, rng)
        # One stamp per logical operation, shared by all copies, so a
        # scrub can compare copies of the same write.  Stamps exist
        # only under an attached fault state: the fault-free paths
        # (including the grouped batch store) stay byte-identical.
        stamp = (self._next_stamp(entry)
                 if self.fault_state is not None else None)
        records = []
        for i in range(copies):
            records.append(self._place_one(replica_id(data_id, i),
                                           payload, entry, stamp=stamp))
        return PlacementResult(data_id=data_id, records=records)

    def _place_one(self, copy_id: str, payload: Any,
                   entry: int, stamp=None) -> PlacementRecord:
        recorder = default_span_recorder()
        if recorder is None:
            return self._place_one_traced(copy_id, payload, entry,
                                          None, None, stamp=stamp)
        with recorder.trace("request.place", key=copy_id,
                            entry=entry) as handle:
            return self._place_one_traced(copy_id, payload, entry,
                                          recorder, handle, stamp=stamp)

    def _place_one_traced(self, copy_id: str, payload: Any, entry: int,
                          recorder, handle, stamp=None
                          ) -> PlacementRecord:
        tracer = None
        if handle is not None and handle.recording:
            from ..dataplane import Tracer

            tracer = Tracer()
        packet = Packet(
            kind=PacketKind.PLACEMENT,
            data_id=copy_id,
            position=self._position_fn(copy_id),
            payload=payload,
        )
        try:
            route = route_packet(self.controller.switches, entry, packet,
                                 tracer=tracer,
                                 fault_state=self.fault_state)
        except ForwardingError:
            if not self.hinted_handoff or self.fault_state is None:
                raise
            # The home is unroutable (partition / outage): park the
            # write as a hint near the entry instead of failing.
            return self._hinted_record(copy_id, payload, entry, stamp,
                                       handle)
        delivery = route.delivery
        extended = delivery.extension is not None
        if extended:
            target = self.server(delivery.extension.target_switch,
                                 delivery.extension.target_serial)
            physical_hops = route.physical_hops + hop_count(
                self.topology, delivery.switch,
                delivery.extension.target_switch,
            )
        else:
            target = self.server(delivery.switch, delivery.primary_serial)
            physical_hops = route.physical_hops
        if self.fault_state is not None and \
                not self.fault_state.server_alive(target.server_id):
            if self.hinted_handoff:
                return self._hinted_record(copy_id, payload, entry,
                                           stamp, handle,
                                           target=target.server_id)
            raise GredError(
                f"cannot place {copy_id!r}: target server "
                f"{target.server_id} has crashed and has not been "
                f"repaired yet"
            )
        target.store(copy_id, payload, stamp=stamp)
        registry = default_registry()
        if registry.enabled:
            registry.counter("core.places").inc()
            if extended:
                registry.counter("core.places_extended").inc()
            registry.histogram("core.place_hops",
                               buckets=HOP_BUCKETS).observe(
                physical_hops)
            size = _payload_size(payload)
            if size is not None:
                registry.histogram("core.payload_bytes",
                                   buckets=BYTE_BUCKETS).observe(size)
            registry.family(*_SERVER_LOAD)[
                target.switch, target.serial].set(target.load)
            self._emit_route_accesses(registry, route.trace, copy_id,
                                      packet.position)
        if tracer is not None:
            spans_from_tracer(recorder, tracer, parent=handle.span)
            handle.set(destination=delivery.switch,
                       server=target.server_id,
                       physical_hops=physical_hops,
                       extended=extended)
        return PlacementRecord(
            data_id=copy_id,
            entry_switch=entry,
            destination_switch=delivery.switch,
            server_id=target.server_id,
            physical_hops=physical_hops,
            overlay_hops=route.overlay_hops,
            trace=route.trace,
            extended=extended,
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def retrieve(
        self,
        data_id: str,
        entry_switch: Optional[int] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
        max_hops: Optional[int] = None,
        read_repair: bool = False,
    ) -> RetrievalResult:
        """Retrieve ``data_id``, walking its replicas nearest-first.

        With ``copies > 1`` the access point computes the position of
        every replica and sends the request toward the one closest (in
        the virtual space) to its own switch — the paper's nearest-copy
        selection (Section VI).  When that copy is missing (crashed
        switch, lost data) or its route fails, the request falls back
        through the remaining replicas in nearest-first order instead
        of giving up; ``result.attempts`` counts the replicas probed.

        ``max_hops`` optionally bounds each probe's forwarding path
        (the per-request hop budget of degraded mode).

        With ``read_repair=True`` a successful walk also synchronizes
        the item's replicas to the newest stamp observed among them
        (:meth:`read_repair`) — opt-in anti-entropy piggybacked on the
        read path.
        """
        if copies < 1:
            raise GredError(f"copies must be >= 1, got {copies}")
        entry = self._resolve_entry(entry_switch, rng)
        recorder = default_span_recorder()
        if recorder is None:
            result = self._retrieve_ordered(data_id, entry, copies,
                                            max_hops)
        else:
            with recorder.trace("request.retrieve", key=data_id,
                                entry=entry) as handle:
                result = self._retrieve_ordered(data_id, entry, copies,
                                                max_hops)
                if handle.recording:
                    handle.set(found=result.found,
                               attempts=result.attempts,
                               copy_used=result.copy_used,
                               request_hops=result.request_hops,
                               response_hops=result.response_hops)
                    if not result.found:
                        handle.fail("miss")
        if read_repair and copies > 1:
            self.read_repair(data_id, copies)
        return result

    def _retrieve_ordered(self, data_id: str, entry: int, copies: int,
                          max_hops: Optional[int]) -> RetrievalResult:
        """The nearest-first failover walk of :meth:`retrieve`."""
        registry = default_registry()
        order = self._replica_order(data_id, copies, entry)
        attempts = 0
        last_miss: Optional[RetrievalResult] = None
        for copy_index in order:
            attempts += 1
            result = self._retrieve_copy(data_id, copy_index, entry,
                                         attempts, max_hops)
            if result is None:
                continue  # route failed loudly; try the next replica
            if result.found:
                if attempts > 1 and registry.enabled:
                    registry.counter("faults.failovers").inc()
                return result
            last_miss = result
        if registry.enabled:
            registry.counter("core.retrieve_misses").inc()
        if last_miss is not None:
            return last_miss
        # Every probe died in routing (heavy degradation).
        return RetrievalResult(
            data_id=data_id,
            found=False,
            payload=None,
            entry_switch=entry,
            destination_switch=None,
            server_id=None,
            request_hops=0,
            response_hops=0,
            trace=[],
            copy_used=order[-1],
            forked=False,
            attempts=attempts,
        )

    def _retrieve_copy(self, data_id: str, copy_index: int, entry: int,
                       attempts: int, max_hops: Optional[int]
                       ) -> Optional[RetrievalResult]:
        """Probe one replica; ``None`` means the route itself failed."""
        recorder = default_span_recorder()
        if recorder is None or not recorder.active:
            return self._retrieve_copy_traced(
                data_id, copy_index, entry, attempts, max_hops,
                None, None)
        with recorder.span("retrieve.probe", copy=copy_index,
                           attempt=attempts) as handle:
            result = self._retrieve_copy_traced(
                data_id, copy_index, entry, attempts, max_hops,
                recorder, handle)
            if handle.recording:
                if result is None:
                    handle.fail("route_error")
                else:
                    handle.set(found=result.found,
                               destination=result.destination_switch)
            return result

    def _retrieve_copy_traced(self, data_id: str, copy_index: int,
                              entry: int, attempts: int,
                              max_hops: Optional[int], recorder, handle
                              ) -> Optional[RetrievalResult]:
        tracer = None
        if handle is not None and handle.recording:
            from ..dataplane import Tracer

            tracer = Tracer()
        copy_id = replica_id(data_id, copy_index)
        packet = Packet(
            kind=PacketKind.RETRIEVAL,
            data_id=copy_id,
            position=self._position_fn(copy_id),
        )
        registry = default_registry()
        try:
            route = route_packet(self.controller.switches, entry, packet,
                                 max_hops=max_hops, tracer=tracer,
                                 fault_state=self.fault_state)
        except ForwardingError:
            if registry.enabled:
                registry.counter("faults.route_failures").inc()
            return None
        if tracer is not None:
            spans_from_tracer(recorder, tracer, parent=handle.span)
        if registry.enabled:
            self._emit_route_accesses(registry, route.trace, copy_id,
                                      packet.position)
        delivery = route.delivery
        candidates = [
            (self.server(delivery.switch, delivery.primary_serial), 0)
        ]
        forked = False
        if delivery.extension is not None and self._extension_usable(
                delivery.switch, delivery.extension):
            # Fork: the request goes to both possible locations (paper
            # Section V-C); the remote one costs the extra hops to the
            # neighbor switch.
            forked = True
            remote = self.server(delivery.extension.target_switch,
                                 delivery.extension.target_serial)
            extra = hop_count(self.topology, delivery.switch,
                              delivery.extension.target_switch)
            candidates.append((remote, extra))
        fault = self.fault_state
        for server, extra_hops in candidates:
            if fault is not None and \
                    not fault.server_alive(server.server_id):
                continue
            if server.has(copy_id):
                response_hops = hop_count(self.topology, server.switch,
                                          entry)
                if registry.enabled:
                    registry.counter("core.retrieves").inc()
                    registry.histogram(
                        "core.retrieve_hops", buckets=HOP_BUCKETS,
                    ).observe(route.physical_hops + extra_hops +
                              response_hops)
                return RetrievalResult(
                    data_id=data_id,
                    found=True,
                    payload=server.retrieve(copy_id),
                    entry_switch=entry,
                    destination_switch=delivery.switch,
                    server_id=server.server_id,
                    request_hops=route.physical_hops + extra_hops,
                    response_hops=response_hops,
                    trace=route.trace,
                    copy_used=copy_index,
                    forked=forked,
                    attempts=attempts,
                )
        return RetrievalResult(
            data_id=data_id,
            found=False,
            payload=None,
            entry_switch=entry,
            destination_switch=delivery.switch,
            server_id=None,
            request_hops=route.physical_hops,
            response_hops=0,
            trace=route.trace,
            copy_used=copy_index,
            forked=forked,
            attempts=attempts,
        )

    def _extension_usable(self, switch: int, extension) -> bool:
        """Whether an extension's takeover server can be forked to
        (its switch must still exist and not have crashed)."""
        if not self.topology.has_node(extension.target_switch):
            return False
        if self.fault_state is not None and \
                not self.fault_state.switch_alive(extension.target_switch):
            return False
        return True

    def _replica_order(self, data_id: str, copies: int,
                       entry: int) -> List[int]:
        """Copy indices sorted by virtual distance from the entry
        switch (nearest first; ties by index)."""
        if copies == 1:
            return [0]
        entry_pos = self.controller.switch_position(entry)
        keyed = []
        for i in range(copies):
            pos = self._position_fn(replica_id(data_id, i))
            keyed.append((euclidean(pos, entry_pos), i))
        keyed.sort()
        return [i for _, i in keyed]

    def _nearest_copy(self, data_id: str, copies: int, entry: int) -> int:
        return self._replica_order(data_id, copies, entry)[0]

    def replica_order(self, data_id: str, copies: int,
                      entry: int) -> List[int]:
        """Public form of the nearest-first replica order used by
        retrieval failover (and by the resilience pipeline's
        breaker-aware candidate selection)."""
        return self._replica_order(data_id, copies, entry)

    def probe_replica(self, data_id: str, copy_index: int, entry: int,
                      max_hops: Optional[int] = None,
                      attempts: int = 1) -> Optional[RetrievalResult]:
        """Probe a single replica without failover: route toward copy
        ``copy_index`` from ``entry`` and return the outcome, or
        ``None`` when the route itself failed.  This is the unit step
        of :meth:`retrieve`'s failover walk, exposed so external
        request pipelines (hedging, breaker-aware candidate ordering)
        can drive the walk themselves."""
        return self._retrieve_copy(data_id, copy_index, entry,
                                   attempts, max_hops)

    # ------------------------------------------------------------------
    # resilience interop
    # ------------------------------------------------------------------
    def resilient(self, config=None):
        """Wrap this network in a
        :class:`~repro.resilience.ResilientNetwork` (admission
        control, deadline-bounded retries, circuit breakers, hedged
        reads).  The wrapper registers itself so the batch fast path
        stands down while any breaker is tripped."""
        from ..resilience import ResilientNetwork

        return ResilientNetwork(self, config)

    def _resilience_blocks_fastpath(self) -> bool:
        # getattr: snapshots restore via __new__ and predate the field.
        pipeline = getattr(self, "_resilience", None)
        return pipeline is not None and pipeline.blocks_fastpath()

    # ------------------------------------------------------------------
    # batch fast path
    # ------------------------------------------------------------------
    def _fast_state(self) -> _FastPathState:
        """The fast-path state, kept in sync with the control plane.

        A global-epoch advance (``recompute``: every position moved)
        rebuilds the compiled router from scratch.  A version advance
        from scoped events (joins, leaves, link changes, failure
        absorption) instead asks the controller which switches were
        touched and patches only their compiled rows.  Hop distances
        are cheap to recompute and topology edits shift them
        non-locally, so that cache clears wholesale on any change."""
        controller = self.controller
        state = getattr(self, "_fastpath", None)
        if (state is not None and state.epoch == controller.epoch
                and state.version == controller.version):
            return state
        touched = None
        if state is not None and state.epoch == controller.epoch:
            touched = controller.changes_since(state.version)
        if touched is None:
            state = _FastPathState(
                controller.epoch, controller.version,
                CompiledRouter(controller.switches))
            self._fastpath = state
            return state
        if touched:
            switches = controller.switches
            present = frozenset(s for s in touched if s in switches)
            removed = frozenset(touched) - present
            state.router.patch(switches, present, removed)
            state.hops.clear()
        state.version = controller.version
        return state

    def _fastpath_usable(self) -> bool:
        """Whether batch requests may skip the reference pipeline.

        The compiled router assumes fault-free forwarding, and the
        vectorized hashing assumes the paper's SHA-256 position
        mapping — with faults injected, a custom ``position_fn``, or a
        tripped circuit breaker on an attached resilience pipeline,
        batches fall back to the scalar path item by item (identical
        results, just not vectorized).  Telemetry does *not* force the
        fallback: the batch paths emit the same aggregates with numpy
        reductions (see ``_emit_route_telemetry``,
        ``_emit_place_telemetry``, ``_emit_transits`` and
        ``_emit_demand``), byte-equal to a scalar run.

        Evaluates the same ``FASTPATH_GATES`` list as
        :func:`~repro.dataplane.fastpath.batch_fastpath_blockers`, so
        the boolean gate and the operator-facing reason list cannot
        drift apart.
        """
        from ..dataplane.fastpath import fastpath_usable

        return fastpath_usable(self)

    def _count_standdown(self) -> None:
        """Structured why-not-fast-path telemetry: one counter per
        stand-down reason whenever a batch falls back to scalar."""
        registry = default_registry()
        if not registry.enabled:
            return
        from ..dataplane.fastpath import batch_fastpath_blockers

        for reason in batch_fastpath_blockers(self):
            registry.counter(
                "dataplane.fastpath_standdowns",
                help="Batch requests degraded to the scalar path",
                reason=reason.replace(" ", "_"),
            ).inc()

    def _shard_pool(self, workers: int):
        """The sticky worker pool for ``workers`` shards (created on
        first use, reused across batches and epochs)."""
        pools = getattr(self, "_shard_pools", None)
        if pools is None:
            pools = self._shard_pools = {}
        pool = pools.get(workers)
        if pool is None:
            from ..dataplane.shard import ShardPool

            pool = pools[workers] = ShardPool(workers)
        return pool

    def close_worker_pools(self) -> None:
        """Stop any routing worker pools started by ``workers=`` batch
        calls and release their shared-memory plane snapshots."""
        pools = getattr(self, "_shard_pools", None)
        if not pools:
            return
        for pool in pools.values():
            pool.close()
        pools.clear()

    def _fast_routes(self, state: _FastPathState,
                     flat_entries: Sequence[int],
                     flat_ids: Sequence[str],
                     positions: np.ndarray, serial_u64s: np.ndarray,
                     flats: Sequence[int],
                     max_hops: Optional[int] = None,
                     stats_out: Optional[List[Any]] = None,
                     workers: Optional[int] = None) -> List[Any]:
        """Routes for the flat request indices ``flats``: one
        wave-routed batch over their distinct ``(entry, copy_id)`` keys.

        Returns one ``(trace, overlay, dest, serial)`` per flat index,
        aligned with ``flats``; a request the reference engine would
        fail maps to its :class:`ForwardingError` instead (callers
        raise or skip it).  A route depends only on its entry, its
        copy id and the hop budget (fixed per call), so each distinct
        key is routed once and every repeat shares that outcome —
        traces are shared, callers must copy, never mutate.

        When ``stats_out`` is given it receives one per-route
        ``(greedy, vl_starts, vl_relays)`` decision-mix tuple aligned
        with the returned routes (a repeat replays its key's mix), so
        callers can emit the engine's forwarding counters without
        re-walking.
        """
        # First flat index of every distinct key, in request order.
        first: Dict[Any, int] = {}
        setdefault = first.setdefault
        owners = [setdefault((flat_entries[f], flat_ids[f]), f)
                  for f in flats]
        distinct = list(first.values())
        if not distinct:
            return []
        idx = np.asarray(distinct, dtype=np.intp)
        hop_bound = (max_hops if max_hops is not None
                     else state.router._default_max_hops)
        worker_waves: Optional[List[int]] = None
        if workers is not None and workers > 1:
            pool = self._shard_pool(workers)
            pool.sync(state.router, (state.epoch, state.version))
            packed = pool.route_batch_packed(
                np.asarray([flat_entries[f] for f in distinct],
                           dtype=np.int64),
                positions[idx, 0], positions[idx, 1],
                serial_u64s[idx], hop_bound)
            outcomes = packed.materialize(
                [flat_ids[f] for f in distinct], hop_bound)
            batch_stats = packed.stats_list()
            state.router.last_batch_waves = packed.waves
            state.router.last_batch_stats = batch_stats
            waves = packed.waves
            worker_waves = packed.worker_waves
        else:
            outcomes = state.router.route_batch(
                [flat_entries[f] for f in distinct],
                [flat_ids[f] for f in distinct],
                positions[idx, 0], positions[idx, 1],
                serial_u64s[idx], max_hops=max_hops,
            )
            batch_stats = state.router.last_batch_stats
            waves = state.router.last_batch_waves
        registry = default_registry()
        if registry.enabled:
            # Batch-only extras (the scalar loop has no waves): proof
            # the vectorized router ran, and its amortization
            # denominator.  Prefixed ``dataplane.batch.`` so parity
            # checks can separate them from the shared aggregates.
            registry.counter("dataplane.batch.requests").inc(
                len(distinct))
            registry.counter("dataplane.batch.waves").inc(waves)
            if worker_waves is not None:
                # Per-shard wave counts aggregate into the same total
                # above; the per-worker counters expose the shard
                # balance.
                for w, wv in enumerate(worker_waves):
                    registry.counter(
                        "dataplane.batch.worker_waves",
                        worker=w).inc(wv)
        if len(distinct) < len(owners):
            slot = {f: u for u, f in enumerate(distinct)}
            where = [slot[f] for f in owners]
            outcomes = [outcomes[u] for u in where]
            batch_stats = [batch_stats[u] for u in where]
        if stats_out is not None:
            stats_out.extend(batch_stats)
        return outcomes

    def _fast_hop(self, state: _FastPathState, source: int,
                  target: int) -> int:
        """Hop distance with a per-epoch BFS cache (one BFS per
        distinct source switch instead of one per request)."""
        dists = state.hops.get(source)
        if dists is None:
            dists = bfs_distances(self.topology, source)
            state.hops[source] = dists
        return dists[target]

    # ------------------------------------------------------------------
    # batch telemetry (numpy reductions, byte-equal to the scalar path)
    # ------------------------------------------------------------------
    @staticmethod
    def _region_counts(positions: np.ndarray, flats) -> np.ndarray:
        """Per-region access counts for the probed flat indices —
        the vectorized form of ``demand_region`` per probe."""
        from ..obs import DEMAND_GRID

        g = DEMAND_GRID
        idx = np.asarray(flats, dtype=np.intp)
        cols = np.clip((positions[idx, 0] * g).astype(np.int64),
                       0, g - 1)
        rows = np.clip((positions[idx, 1] * g).astype(np.int64),
                       0, g - 1)
        return np.bincount(rows * g + cols, minlength=g * g)

    def _emit_demand(self, registry, flat_ids, flats,
                     positions: np.ndarray) -> None:
        """Per-item and per-region access counters for the probed flat
        indices (the demand-adaptive embedding signal)."""
        if not flats:
            return
        registry.demand.record_many([flat_ids[f] for f in flats])
        counts = self._region_counts(positions, flats)
        regions = np.flatnonzero(counts)
        registry.family(*_REGION_ACCESSES).inc_counts(
            regions.tolist(), counts[regions].tolist())

    @staticmethod
    def _emit_transits(registry, transit_switches) -> None:
        """Per-switch transit counters from the concatenated traces of
        a batch, reduced with one ``bincount``."""
        if not transit_switches:
            return
        counts = np.bincount(np.asarray(transit_switches,
                                        dtype=np.int64))
        sids = np.flatnonzero(counts)
        registry.family(*_TRANSITS).inc_counts(
            sids.tolist(), counts[sids].tolist())

    @staticmethod
    def _emit_route_accesses(registry, trace, copy_id: str,
                             position) -> None:
        """The per-request form of :meth:`_emit_transits` plus
        :meth:`_emit_demand`: one scalar route's transits and its
        demand signal."""
        transits = registry.family(*_TRANSITS)
        for sid in trace:
            transits[sid].inc()
        registry.demand.record(copy_id)
        registry.family(*_REGION_ACCESSES)[demand_region(*position)].inc()

    @staticmethod
    def _emit_route_telemetry(registry, kind: str, stats,
                              route_hops, overlay_hops,
                              rewrites: int) -> None:
        """Forwarding-engine aggregates for routes the compiled router
        walked instead of :func:`route_packet`.

        ``stats`` holds one ``(greedy, vl_starts, vl_relays)`` tuple
        per probe the engine would have routed (``None`` marks probes
        it would have rejected before fetching any counter, e.g. an
        unknown entry switch); ``route_hops``/``overlay_hops`` list the
        per-delivery hop observations in the scalar loop's observation
        order so the histogram reservoirs match byte for byte.
        """
        routed = [s for s in stats if s is not None]
        if routed:
            # The engine fetches these once per routed packet, so they
            # exist (possibly at zero) as soon as one probe enters it.
            # Three generator sums, not a ``zip(*routed)`` transpose:
            # on zipf-mixed the transpose tripled full collections.
            registry.counter("dataplane.greedy_forwards").inc(
                sum(s[0] for s in routed))
            registry.counter("dataplane.vl_starts").inc(
                sum(s[1] for s in routed))
            registry.counter("dataplane.vl_relays").inc(
                sum(s[2] for s in routed))
        if route_hops:
            registry.counter("dataplane.requests_routed",
                             kind=kind).inc(len(route_hops))
            registry.counter("dataplane.deliveries").inc(
                len(route_hops))
            if rewrites:
                registry.counter(
                    "dataplane.extension_rewrites").inc(rewrites)
            registry.histogram(
                "dataplane.hops_per_request", buckets=HOP_BUCKETS,
            ).observe_many(np.asarray(route_hops, dtype=np.float64))
            registry.histogram(
                "dataplane.overlay_hops_per_request",
                buckets=HOP_BUCKETS,
            ).observe_many(np.asarray(overlay_hops, dtype=np.float64))

    def _emit_place_telemetry(self, registry, hops, sizes, extended_n,
                              transit_switches, servers, flats,
                              flat_ids, positions: np.ndarray) -> None:
        """Aggregate telemetry for the records a ``place_many`` batch
        completed, matching the scalar loop instrument for instrument
        (instruments the scalar loop would not create are not created
        here either)."""
        if hops:
            registry.counter("core.places").inc(len(hops))
            registry.histogram(
                "core.place_hops", buckets=HOP_BUCKETS,
            ).observe_many(np.asarray(hops, dtype=np.float64))
        if extended_n:
            registry.counter("core.places_extended").inc(extended_n)
        if sizes:
            registry.histogram(
                "core.payload_bytes", buckets=BYTE_BUCKETS,
            ).observe_many(np.asarray(sizes, dtype=np.float64))
        load = registry.family(*_SERVER_LOAD)
        for key in sorted(servers):
            server = servers[key]
            load[server.switch, server.serial].set(server.load)
        self._emit_transits(registry, transit_switches)
        self._emit_demand(registry, flat_ids, flats, positions)

    @staticmethod
    def _record_exemplar(recorder, name: str, key: str,
                         trace_switches, status: Optional[str] = None,
                         **attrs) -> None:
        """Promote one batch row to a full trace: a root span plus one
        ``hop.transit`` child per visited switch.  Simulated batch
        hops have no individual wall time, so hops are laid out at
        1 µs apiece — the order/topology is the signal."""
        with recorder.trace(name, key=key, **attrs) as handle:
            if handle.recording:
                if status is not None:
                    handle.fail(status)
                base = handle.span.start
                for k, sid in enumerate(trace_switches):
                    recorder.add_span(
                        "hop.transit", start=base + k * 1e-6,
                        end=base + (k + 1) * 1e-6, parent=handle.span,
                        switch=sid)

    def prehash(self, data_ids: Sequence[str],
                copies: int = 1) -> np.ndarray:
        """Pre-hash a batch once for reuse across calls.

        Returns the ``(len(data_ids) * copies, 32) uint8`` SHA-256
        digest array of every replica id, in the flat order
        :meth:`place_many` and :meth:`retrieve_many` consume; pass it
        back via their ``digests`` parameter to skip re-hashing (the
        digest feeds both the position and the server serial, so this
        is the entire per-identifier hashing cost).
        """
        if copies < 1:
            raise GredError(f"copies must be >= 1, got {copies}")
        return sha256_digests(replica_ids_flat(list(data_ids), copies))

    @staticmethod
    def _check_digests(digests: Optional[np.ndarray],
                       expected: int) -> Optional[np.ndarray]:
        """Validate a caller-supplied digest array (shape ``(k, 32)``
        uint8, one row per flat replica id)."""
        if digests is None:
            return None
        digests = np.asarray(digests)
        if digests.shape != (expected, 32) or \
                digests.dtype != np.uint8:
            raise GredError(
                f"digests must be a ({expected}, 32) uint8 array, got "
                f"{digests.dtype} {digests.shape}"
            )
        return digests

    def _resolve_entries(self, count: int,
                         entry_switches: Optional[Sequence[int]],
                         rng: Optional[np.random.Generator]
                         ) -> List[int]:
        """Per-item entry switches, drawing from ``rng`` in the same
        order as the equivalent scalar loop."""
        if entry_switches is not None and len(entry_switches) != count:
            raise GredError(
                f"entry_switches has {len(entry_switches)} entries for "
                f"{count} data ids"
            )
        if (entry_switches is None and self.fault_state is None
                and (rng is None
                     or isinstance(rng, np.random.Generator))):
            # One vectorized draw consumes the PCG64 stream exactly
            # like ``count`` sequential ``integers`` calls, so the
            # scalar loop and the batch pick identical entries.
            ids = self.switch_ids()
            stream = utils.rng(rng)
            draws = stream.integers(0, len(ids), size=count)
            return [ids[v] for v in draws.tolist()]
        return [
            self._resolve_entry(
                entry_switches[i] if entry_switches is not None
                else None, rng)
            for i in range(count)
        ]

    def place_many(
        self,
        data_ids: Sequence[str],
        payloads: Optional[Sequence[Any]] = None,
        entry_switches: Optional[Sequence[int]] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
        workers: Optional[int] = None,
        digests: Optional[np.ndarray] = None,
    ) -> List[PlacementResult]:
        """Place a batch of items; equivalent to calling :meth:`place`
        per item in order, but vectorized.

        Identifiers are hashed in one pass (one SHA-256 digest per
        replica, reused for position and server selection) and routed
        through the compiled router, each distinct ``(entry,
        copy_id)`` key once per batch.  Per-request results and
        telemetry are byte-identical to the scalar loop under the same
        ``rng``; when a fault state is attached, a custom
        ``position_fn`` is in use or a resilience breaker is tripped,
        the batch transparently degrades to the scalar path so fault
        handling stays exact.

        Parameters
        ----------
        data_ids:
            Identifiers to place.
        payloads:
            Optional per-item payloads (same length as ``data_ids``).
        entry_switches:
            Optional per-item access switches; random when omitted.
        copies, rng:
            As in :meth:`place`.
        workers:
            Route the batch's distinct keys across this many processes
            sharing the compiled plane via ``multiprocessing.shared_
            memory`` (results stay byte-identical to the
            single-process path).  ``None``/``1`` routes in-process;
            the scalar fallback ignores it.
        digests:
            Optional pre-hashed replica digests from :meth:`prehash`
            (``(len(data_ids) * copies, 32) uint8``).  Hashing is the
            one per-request cost that cannot be cached, so a workload
            that places and then retrieves the same identifiers hashes
            once and passes the array to both calls.  Ignored by the
            scalar fallback (which re-hashes exactly).
        """
        data_ids = list(data_ids)
        if copies < 1:
            raise GredError(f"copies must be >= 1, got {copies}")
        if payloads is not None and len(payloads) != len(data_ids):
            raise GredError(
                f"payloads has {len(payloads)} entries for "
                f"{len(data_ids)} data ids"
            )
        if not self._fastpath_usable():
            self._count_standdown()
            return [
                self.place(
                    data_id,
                    payload=(payloads[i] if payloads is not None
                             else None),
                    entry_switch=(entry_switches[i]
                                  if entry_switches is not None
                                  else None),
                    copies=copies,
                    rng=rng,
                )
                for i, data_id in enumerate(data_ids)
            ]
        entries = self._resolve_entries(len(data_ids), entry_switches,
                                        rng)
        flat_ids = replica_ids_flat(data_ids, copies)
        flat_entries = (entries if copies == 1 else
                        [e for e in entries for _ in range(copies)])
        digests = self._check_digests(digests, len(flat_ids))
        if digests is None:
            digests = sha256_digests(flat_ids)
        positions = positions_from_digests(digests)
        serial_u64s = serials_from_digests(digests)
        state = self._fast_state()
        route_stats: List[Any] = []
        routes = self._fast_routes(state, flat_entries, flat_ids,
                                   positions, serial_u64s,
                                   range(len(flat_ids)),
                                   stats_out=route_stats,
                                   workers=workers)
        switches = self.controller.switches
        server_map = self.server_map
        registry = default_registry()
        telemetry = registry.enabled
        recorder = default_span_recorder()
        # Grouped storage: when every route delivered, no extension is
        # installed on a delivery serial and every target server is
        # unbounded, the per-item store/extension/target work collapses
        # to one bulk dict update per server (identical storage state —
        # the stable grouping preserves each server's insertion order).
        stored = self._grouped_store(routes, flat_ids, payloads,
                                     copies, switches, server_map)
        t_hops: List[int] = []
        t_sizes: List[int] = []
        t_extended = 0
        t_transits: List[int] = []
        t_flats: List[int] = []
        t_servers: Dict[Any, Any] = {}
        t_route_hops: List[int] = []
        t_overlay: List[int] = []
        results: List[PlacementResult] = []
        flat = 0
        for i, data_id in enumerate(data_ids):
            payload = payloads[i] if payloads is not None else None
            entry = entries[i]
            records: List[PlacementRecord] = []
            for _ in range(copies):
                copy_id = flat_ids[flat]
                outcome = routes[flat]
                flat += 1
                if isinstance(outcome, ForwardingError):
                    # The scalar loop raises mid-batch: items before
                    # this one stay stored (and, like the scalar loop,
                    # already counted), the rest are not placed.  The
                    # failing probe's partial decision mix counts too,
                    # exactly as the engine counts before it raises.
                    if telemetry:
                        self._emit_route_telemetry(
                            registry, PacketKind.PLACEMENT.value,
                            route_stats[:flat], t_route_hops,
                            t_overlay, t_extended)
                        self._emit_place_telemetry(
                            registry, t_hops, t_sizes, t_extended,
                            t_transits, t_servers, t_flats, flat_ids,
                            positions)
                    raise outcome
                trace, overlay, dest, serial = outcome
                if stored is not None:
                    # Already bulk-stored; no extension on any delivery
                    # serial, so the target is the ``H(d) mod s`` server.
                    extended = False
                    physical = len(trace) - 1
                    server_id = (dest, serial)
                else:
                    extension = switches[dest].table.extension_for(
                        serial)
                    extended = extension is not None
                    if extended:
                        target = self.server(extension.target_switch,
                                             extension.target_serial)
                        physical = len(trace) - 1 + self._fast_hop(
                            state, dest, extension.target_switch)
                    else:
                        # Delivery guarantees the switch has servers
                        # and the serial is in range (H(d) mod s).
                        target = server_map[dest][serial]
                        physical = len(trace) - 1
                    target.store(copy_id, payload)
                    server_id = target.server_id
                if telemetry:
                    t_hops.append(physical)
                    if extended:
                        t_extended += 1
                    size = _payload_size(payload)
                    if size is not None:
                        t_sizes.append(size)
                    t_transits.extend(trace)
                    t_flats.append(flat - 1)
                    if stored is None:
                        t_servers[server_id] = target
                    t_route_hops.append(len(trace) - 1)
                    t_overlay.append(overlay)
                if recorder is not None:
                    self._record_exemplar(
                        recorder, "request.place", copy_id, trace,
                        entry=entry, destination=dest,
                        server=server_id,
                        physical_hops=physical,
                        extended=extended)
                records.append(PlacementRecord(
                    data_id=copy_id,
                    entry_switch=entry,
                    destination_switch=dest,
                    server_id=server_id,
                    physical_hops=physical,
                    overlay_hops=overlay,
                    trace=list(trace),
                    extended=extended,
                ))
            results.append(PlacementResult(data_id=data_id,
                                           records=records))
        if telemetry:
            self._emit_route_telemetry(
                registry, PacketKind.PLACEMENT.value, route_stats,
                t_route_hops, t_overlay, t_extended)
            self._emit_place_telemetry(
                registry, t_hops, t_sizes, t_extended, t_transits,
                stored if stored is not None else t_servers,
                t_flats, flat_ids, positions)
        return results

    def _grouped_store(self, routes: List[Any],
                       flat_ids: Sequence[str],
                       payloads: Optional[Sequence[Any]],
                       copies: int, switches, server_map
                       ) -> Optional[Dict[Any, EdgeServer]]:
        """Bulk-store a fully-delivered batch server by server.

        Returns the ``(switch, serial) -> server`` map of stored-to
        servers, or ``None`` when the batch must take the per-item
        path: any routing error (the scalar loop raises mid-batch,
        storing only the prefix), a range extension installed on any
        ``(switch, serial)`` the batch delivers to (per-delivery
        rewrite decisions), or any bounded target server (per-id
        ``StorageFull`` ordering).  The stable grouping sort
        preserves each server's item insertion order, so the resulting
        storage state is byte-identical to sequential ``store`` calls.
        """
        k = len(routes)
        if k == 0:
            return {}
        for outcome in routes:
            if type(outcome) is not tuple:
                return None
        dest = np.fromiter((o[2] for o in routes), dtype=np.int64,
                           count=k)
        serial = np.fromiter((o[3] for o in routes), dtype=np.int64,
                             count=k)
        combined = dest * (int(serial.max()) + 1) + serial
        order = np.argsort(combined, kind="stable")
        starts = (np.flatnonzero(np.diff(combined[order])) + 1).tolist()
        order = order.tolist()
        plan = []
        servers: Dict[Any, EdgeServer] = {}
        for lo, hi in zip([0] + starts, starts + [k]):
            flats = order[lo:hi]
            _, _, d, s = routes[flats[0]]
            server = server_map[d][s]
            if (server.capacity is not None
                    or switches[d].table.extension_for(s) is not None):
                return None
            servers[(d, s)] = server
            plan.append((server, flats))
        for server, flats in plan:
            ids = [flat_ids[f] for f in flats]
            group_payloads = (None if payloads is None else
                              [payloads[f // copies] for f in flats])
            server.store_many(ids, group_payloads)
        return servers

    def retrieve_many(
        self,
        data_ids: Sequence[str],
        entry_switches: Optional[Sequence[int]] = None,
        copies: int = 1,
        rng: Optional[np.random.Generator] = None,
        max_hops: Optional[int] = None,
        workers: Optional[int] = None,
        digests: Optional[np.ndarray] = None,
    ) -> List[RetrievalResult]:
        """Retrieve a batch of items; equivalent to calling
        :meth:`retrieve` per item in order, but vectorized.

        Shares the fast-path machinery (and its fallback conditions)
        with :meth:`place_many`, including worker-sharded routing via
        ``workers`` and pre-hashed ``digests`` from :meth:`prehash`;
        response hop counts come from a per-epoch BFS distance cache
        instead of a fresh traversal per request.
        """
        data_ids = list(data_ids)
        if copies < 1:
            raise GredError(f"copies must be >= 1, got {copies}")
        if not self._fastpath_usable():
            self._count_standdown()
            return [
                self.retrieve(
                    data_id,
                    entry_switch=(entry_switches[i]
                                  if entry_switches is not None
                                  else None),
                    copies=copies,
                    rng=rng,
                    max_hops=max_hops,
                )
                for i, data_id in enumerate(data_ids)
            ]
        entries = self._resolve_entries(len(data_ids), entry_switches,
                                        rng)
        flat_ids = replica_ids_flat(data_ids, copies)
        flat_entries = (entries if copies == 1 else
                        [e for e in entries for _ in range(copies)])
        digests = self._check_digests(digests, len(flat_ids))
        if digests is None:
            digests = sha256_digests(flat_ids)
        positions = positions_from_digests(digests)
        serial_u64s = serials_from_digests(digests)
        state = self._fast_state()
        switches = self.controller.switches
        count = len(data_ids)
        if copies == 1:
            orders: Optional[List[List[int]]] = None
        else:
            orders = []
            for i in range(count):
                base = i * copies
                ex, ey = self.controller.switch_position(entries[i])
                keyed = [
                    (math.hypot(float(positions[base + c, 0]) - ex,
                                float(positions[base + c, 1]) - ey), c)
                    for c in range(copies)
                ]
                keyed.sort()
                orders.append([c for _, c in keyed])
        registry = default_registry()
        telemetry = registry.enabled
        t_transits: List[int] = []
        t_probe_flats: List[int] = []
        t_route_failures = 0
        t_stats: List[Any] = []
        t_rewrites = 0
        # Per-item delivery hop observations: the scalar loop probes
        # item-major (all of one item's replicas before the next), the
        # batch round-major — collecting per item and flattening at the
        # end replays the scalar observation order.
        t_phys_by_item: List[List[int]] = [[] for _ in range(count)]
        t_over_by_item: List[List[int]] = [[] for _ in range(count)]
        results: List[Optional[RetrievalResult]] = [None] * count
        last_miss: List[Optional[RetrievalResult]] = [None] * count
        attempts = [0] * count
        pending = list(range(count))
        # Probe round ``r`` routes every unresolved item's r-th nearest
        # replica in one wave-routed batch — the same nearest-first
        # probe sequence as the scalar loop, just advanced in lockstep.
        for rnd in range(copies):
            if not pending:
                break
            probes = [
                i * copies + (rnd if orders is None else orders[i][rnd])
                for i in pending
            ]
            routes = self._fast_routes(state, flat_entries, flat_ids,
                                       positions, serial_u64s, probes,
                                       max_hops=max_hops,
                                       stats_out=t_stats,
                                       workers=workers)
            server_map = self.server_map
            still: List[int] = []
            for i, flat, outcome in zip(pending, probes, routes):
                attempts[i] += 1
                if isinstance(outcome, ForwardingError):
                    t_route_failures += 1
                    still.append(i)
                    continue
                c = rnd if orders is None else orders[i][rnd]
                copy_id = flat_ids[flat]
                entry = entries[i]
                trace, overlay, dest, serial = outcome
                if telemetry:
                    t_transits.extend(trace)
                    t_probe_flats.append(flat)
                    t_phys_by_item[i].append(len(trace) - 1)
                    t_over_by_item[i].append(overlay)
                request_hops = len(trace) - 1
                # Delivery guarantees the switch has servers and the
                # serial is in range (H(d) mod s).
                candidates = [(server_map[dest][serial], 0)]
                forked = False
                extension = switches[dest].table.extension_for(serial)
                if telemetry and extension is not None:
                    # The engine counts the rewrite at delivery,
                    # whether or not the extension is then usable.
                    t_rewrites += 1
                if extension is not None and self._extension_usable(
                        dest, extension):
                    forked = True
                    remote = self.server(extension.target_switch,
                                         extension.target_serial)
                    candidates.append((remote, self._fast_hop(
                        state, dest, extension.target_switch)))
                for server, extra_hops in candidates:
                    if server.has(copy_id):
                        results[i] = RetrievalResult(
                            data_id=data_ids[i],
                            found=True,
                            payload=server.retrieve(copy_id),
                            entry_switch=entry,
                            destination_switch=dest,
                            server_id=server.server_id,
                            request_hops=request_hops + extra_hops,
                            response_hops=self._fast_hop(
                                state, server.switch, entry),
                            trace=list(trace),
                            copy_used=c,
                            forked=forked,
                            attempts=attempts[i],
                        )
                        break
                if results[i] is None:
                    last_miss[i] = RetrievalResult(
                        data_id=data_ids[i],
                        found=False,
                        payload=None,
                        entry_switch=entry,
                        destination_switch=dest,
                        server_id=None,
                        request_hops=request_hops,
                        response_hops=0,
                        trace=list(trace),
                        copy_used=c,
                        forked=forked,
                        attempts=attempts[i],
                    )
                    still.append(i)
            pending = still
        final: List[RetrievalResult] = []
        for i in range(count):
            if results[i] is not None:
                final.append(results[i])
            elif last_miss[i] is not None:
                # Like the scalar loop, the reported attempt count is
                # the one captured when the last *routable* probe
                # missed, even if later probes failed to route.
                final.append(last_miss[i])
            else:
                final.append(RetrievalResult(
                    data_id=data_ids[i],
                    found=False,
                    payload=None,
                    entry_switch=entries[i],
                    destination_switch=None,
                    server_id=None,
                    request_hops=0,
                    response_hops=0,
                    trace=[],
                    copy_used=(0 if orders is None else orders[i][-1]),
                    forked=False,
                    attempts=attempts[i],
                ))
        if telemetry:
            found_hops = [r.request_hops + r.response_hops
                          for r in final if r.found]
            failovers = sum(1 for r in final
                            if r.found and r.attempts > 1)
            misses = count - len(found_hops)
            if found_hops:
                registry.counter("core.retrieves").inc(len(found_hops))
                # Replayed in item order — the order the scalar loop
                # observes in — so the histogram reservoir matches.
                registry.histogram(
                    "core.retrieve_hops", buckets=HOP_BUCKETS,
                ).observe_many(np.asarray(found_hops,
                                          dtype=np.float64))
            if failovers:
                registry.counter("faults.failovers").inc(failovers)
            if misses:
                registry.counter("core.retrieve_misses").inc(misses)
            if t_route_failures:
                registry.counter("faults.route_failures").inc(
                    t_route_failures)
            self._emit_route_telemetry(
                registry, PacketKind.RETRIEVAL.value, t_stats,
                [h for per in t_phys_by_item for h in per],
                [o for per in t_over_by_item for o in per],
                t_rewrites)
            self._emit_transits(registry, t_transits)
            self._emit_demand(registry, flat_ids, t_probe_flats,
                              positions)
        recorder = default_span_recorder()
        if recorder is not None:
            for r in final:
                self._record_exemplar(
                    recorder, "request.retrieve", r.data_id, r.trace,
                    status=None if r.found else "miss",
                    entry=r.entry_switch, found=r.found,
                    attempts=r.attempts, copy_used=r.copy_used,
                    request_hops=r.request_hops,
                    response_hops=r.response_hops)
        return final

    def destinations_for(self, data_ids: Sequence[str]) -> List[int]:
        """Destination switch of every identifier, resolved without
        simulating any routing (batch :meth:`destination_switch`).

        One vectorized hashing pass plus one grid-index query per id.
        """
        data_ids = list(data_ids)
        if getattr(self, "_position_fn", None) is not data_position:
            return [self.destination_switch(d) for d in data_ids]
        positions = positions_from_digests(sha256_digests(data_ids))
        index = self.controller.routing_index()
        return [
            index.closest((positions[i, 0], positions[i, 1]))
            for i in range(len(data_ids))
        ]

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, data_id: str, copies: int = 1,
               entry_switch: Optional[int] = None) -> int:
        """Delete all copies of a data item; returns how many were
        removed.

        Fault-free, a delete simply pops the copies.  With a fault
        state attached, each copy is *entombed* instead: a stamped
        tombstone replaces it so a later repair or scrub cannot
        resurrect the item from a stale survivor, and a copy whose
        home is unroutable is skipped (or, with
        :attr:`hinted_handoff`, parked as a delete hint) rather than
        aborting the remaining copies mid-loop.
        """
        removed = 0
        entry = self._resolve_entry(entry_switch, None)
        fault = self.fault_state
        stamp = self._next_stamp(entry) if fault is not None else None
        for i in range(copies):
            copy_id = replica_id(data_id, i)
            packet = Packet(
                kind=PacketKind.RETRIEVAL,
                data_id=copy_id,
                position=self._position_fn(copy_id),
            )
            try:
                route = route_packet(self.controller.switches, entry,
                                     packet,
                                     fault_state=self.fault_state)
            except ForwardingError:
                if stamp is None:
                    raise
                registry = default_registry()
                if self.hinted_handoff:
                    self._park_hint(copy_id, "delete",
                                    self._home_server(copy_id).server_id,
                                    stamp, None, entry)
                elif registry.enabled:
                    registry.counter(
                        "durability.deletes_unreachable").inc()
                continue
            delivery = route.delivery
            servers = [self.server(delivery.switch,
                                   delivery.primary_serial)]
            if delivery.extension is not None:
                servers.append(
                    self.server(delivery.extension.target_switch,
                                delivery.extension.target_serial)
                )
            hit = False
            for server in servers:
                if server.has(copy_id):
                    if stamp is None:
                        server.delete(copy_id)
                    else:
                        self._entomb(server, copy_id, stamp)
                    hit = True
                    removed += 1
                    registry = default_registry()
                    if registry.enabled:
                        registry.counter("core.deletes").inc()
                        registry.family(*_SERVER_LOAD)[
                            server.switch, server.serial].set(server.load)
                    break
            if stamp is not None and not hit:
                # No live copy at the home (it may sit on a crashed,
                # not-yet-repaired server): still record the tombstone
                # so repair cannot rebuild the copy later.
                home = servers[0]
                if fault.server_alive(home.server_id):
                    self._entomb(home, copy_id, stamp)
                elif self.hinted_handoff:
                    self._park_hint(copy_id, "delete", home.server_id,
                                    stamp, None, entry)
        return removed

    # ------------------------------------------------------------------
    # durability: hints, read repair, anti-entropy scrub
    # ------------------------------------------------------------------
    def _home_server(self, copy_id: str) -> EdgeServer:
        """The server that canonically owns a replica id right now
        (control-plane computation, no routing): the ``H(d) mod s``
        server of the closest switch, redirected by an active range
        extension."""
        switch = self.controller.closest_switch(
            self._position_fn(copy_id))
        servers = self.server_map[switch]
        serial = server_index(copy_id, len(servers))
        extension = self.controller.switches[switch].table.extension_for(
            serial)
        if extension is not None:
            return self.server(extension.target_switch,
                               extension.target_serial)
        return servers[serial]

    def _nearest_live_server(self, entry: int) -> Optional[EdgeServer]:
        """The closest live server reachable from ``entry`` (BFS over
        the physical topology honoring the fault state), or ``None``."""
        fault = self.fault_state
        seen = {entry}
        frontier = [entry]
        while frontier:
            next_frontier: List[int] = []
            for switch in frontier:
                for server in self.server_map.get(switch, []):
                    if fault is None or fault.server_alive(
                            server.server_id):
                        return server
                for peer in sorted(self.topology.neighbors(switch)):
                    if peer in seen:
                        continue
                    if fault is not None and \
                            not fault.can_forward(switch, peer):
                        continue
                    seen.add(peer)
                    next_frontier.append(peer)
            frontier = next_frontier
        return None

    def _park_hint(self, copy_id: str, op: str, target, stamp,
                   payload: Any, entry: int) -> EdgeServer:
        """Park a hinted write/delete on the nearest live server."""
        from ..edge import Hint

        holder = self._nearest_live_server(entry)
        if holder is None:
            raise GredError(
                f"cannot park a hint for {copy_id!r}: no live server "
                f"is reachable from switch {entry}"
            )
        holder.park_hint(Hint(copy_id=copy_id, op=op, target=target,
                              stamp=stamp, payload=payload))
        registry = default_registry()
        if registry.enabled:
            registry.counter("durability.hints_parked").inc()
        return holder

    def _entomb(self, server: EdgeServer, copy_id: str, stamp) -> bool:
        """Record a stamped tombstone on a server (counter-wrapped)."""
        removed = server.entomb(copy_id, stamp)
        registry = default_registry()
        if registry.enabled:
            registry.counter("durability.tombstones_written").inc()
        return removed

    def _hinted_record(self, copy_id: str, payload: Any, entry: int,
                       stamp, handle, target=None) -> PlacementRecord:
        """Placement outcome for a copy parked as a hinted write."""
        if target is None:
            target = self._home_server(copy_id).server_id
        holder = self._park_hint(copy_id, "store", target, stamp,
                                 payload, entry)
        physical = hop_count(self.topology, entry, holder.switch)
        if handle is not None and handle.recording:
            handle.set(destination=holder.switch,
                       server=holder.server_id, hinted=True)
        return PlacementRecord(
            data_id=copy_id,
            entry_switch=entry,
            destination_switch=holder.switch,
            server_id=holder.server_id,
            physical_hops=physical,
            overlay_hops=0,
            trace=[entry],
            extended=False,
            hinted=True,
        )

    def drain_hints(self, ignore_partitions: bool = False) -> int:
        """Apply every parked hint whose home is live and reachable
        again; returns the number of hints applied.  Hints whose home
        is still down (or still partitioned away from the holder, or
        full) stay parked for the next drain.  The scrubber passes
        ``ignore_partitions=True``: it is an operator-plane sweep that
        is not bound by data-plane partitions."""
        fault = self.fault_state
        applied = 0
        for switch in sorted(self.server_map):
            for holder in self.server_map[switch]:
                if holder.hint_count == 0:
                    continue
                keep = []
                for hint in holder.take_hints():
                    home = self._home_server(hint.copy_id)
                    if fault is not None and (
                            not fault.server_alive(home.server_id)
                            or (not ignore_partitions
                                and not fault.same_side(holder.switch,
                                                        home.switch))):
                        keep.append(hint)
                        continue
                    try:
                        if hint.op == "delete":
                            self._entomb(home, hint.copy_id, hint.stamp)
                        else:
                            home.store(hint.copy_id, hint.payload,
                                       stamp=hint.stamp)
                    except StorageFull:
                        keep.append(hint)
                        continue
                    applied += 1
                for hint in keep:
                    holder.park_hint(hint)
        registry = default_registry()
        if applied and registry.enabled:
            registry.counter("durability.hints_drained").inc(applied)
        return applied

    def read_repair(self, data_id: str, copies: int = 1) -> int:
        """Synchronize the live replicas of one item to the newest
        stamp observed among them (their tombstones included); returns
        the number of replica homes corrected.  Replicas on crashed or
        unreachable servers are left for :meth:`scrub`."""
        from ..edge import NO_STAMP

        fault = self.fault_state
        holders = []
        win_stamp = None
        win_payload = None
        win_tomb = None
        for i in range(copies):
            copy_id = replica_id(data_id, i)
            home = self._home_server(copy_id)
            if fault is not None and \
                    not fault.server_alive(home.server_id):
                continue
            tomb = home.tombstone_of(copy_id)
            if tomb is not None and (win_tomb is None
                                     or tomb > win_tomb):
                win_tomb = tomb
            if home.has(copy_id):
                stamp = home.stamp_of(copy_id) or NO_STAMP
                if win_stamp is None or stamp > win_stamp:
                    win_stamp = stamp
                    win_payload = home.retrieve(copy_id)
                holders.append((copy_id, home, stamp))
            else:
                holders.append((copy_id, home, None))
        repaired = 0
        if win_tomb is not None and (win_stamp is None
                                     or win_tomb > win_stamp):
            # The newest write is a delete: entomb the stale leftovers.
            for copy_id, home, stamp in holders:
                if stamp is not None and self._entomb(home, copy_id,
                                                      win_tomb):
                    repaired += 1
        elif win_stamp is not None:
            for copy_id, home, stamp in holders:
                if stamp is not None and stamp >= win_stamp:
                    continue
                try:
                    stored = (home.store(copy_id, win_payload)
                              if win_stamp == NO_STAMP
                              else home.store(copy_id, win_payload,
                                              stamp=win_stamp))
                except StorageFull:
                    continue
                if stored:
                    repaired += 1
        registry = default_registry()
        if repaired and registry.enabled:
            registry.counter("durability.read_repairs").inc(repaired)
        return repaired

    def scrub(self, catalog=None, **kwargs):
        """Run the anti-entropy scrubber over the whole storage plane
        (see :func:`repro.core.scrub.scrub_network`): drain hints,
        resolve each catalogued item's winning stamp, compare
        per-server hash-range digests and repair only the mismatching
        ranges.  Returns a :class:`~repro.core.scrub.ScrubReport`."""
        from .scrub import scrub_network

        return scrub_network(self, catalog, **kwargs)

    # ------------------------------------------------------------------
    # range extension (paper Section V-B)
    # ------------------------------------------------------------------
    def extend_range(self, switch: int, serial: int,
                     migrate: bool = False) -> None:
        """Activate a range extension for server ``(switch, serial)``.

        With ``migrate=True`` the items currently on the overloaded
        server move to the takeover server immediately (the default
        leaves them, matching the paper where only *new* placements are
        redirected and retrieval forks to both locations).
        """
        entry = self.controller.extend_range(switch, serial)
        if migrate:
            source = self.server(switch, serial)
            target = self.server(entry.target_switch, entry.target_serial)
            for item_id in source.stored_ids():
                target.store(item_id, source.retrieve(item_id),
                             stamp=source.stamp_of(item_id))
                source.delete(item_id)

    def retract_range(self, switch: int, serial: int) -> int:
        """Deactivate a range extension, migrating the redirected items
        back home first (paper Section V-B end).  Returns the number of
        items migrated.

        The paper only deletes the extended forwarding entries "when all
        the corresponding data has been retrieved", so retraction is
        refused when the home server lacks capacity for everything that
        belongs to it — the extension stays active and no item moves.
        """
        table = self.controller.switches[switch].table
        entry = table.extension_for(serial)
        if entry is None:
            raise GredError(
                f"server ({switch}, {serial}) has no active extension"
            )
        source = self.server(entry.target_switch, entry.target_serial)
        home = self.server(switch, serial)
        belonging = [
            item_id for item_id in source.stored_ids()
            if self._belongs_to(item_id, switch, serial)
        ]
        if home.capacity is not None:
            free = home.capacity - home.load
            if len(belonging) > free:
                raise GredError(
                    f"cannot retract: server ({switch}, {serial}) has "
                    f"{free} free slots but {len(belonging)} items must "
                    f"migrate back"
                )
        for item_id in belonging:
            home.store(item_id, source.retrieve(item_id),
                       stamp=source.stamp_of(item_id))
            source.delete(item_id)
        self.controller.retract_range(switch, serial)
        return len(belonging)

    def _belongs_to(self, data_id: str, switch: int, serial: int) -> bool:
        """Would ``data_id`` be delivered to server (switch, serial) with
        no extensions active?"""
        from ..hashing import server_index

        position = self._position_fn(data_id)
        dest = self.controller.closest_switch(position)
        if dest != switch:
            return False
        return server_index(data_id, len(self.server_map[switch])) == serial

    # ------------------------------------------------------------------
    # network dynamics (paper Section VI)
    # ------------------------------------------------------------------
    def add_switch(self, switch_id: int, links: Sequence[int],
                   servers_per_switch: int = 0,
                   servers: Optional[List[EdgeServer]] = None) -> int:
        """A switch (optionally with servers) joins the network.

        Data stored on the DT neighbors of the new switch is re-evaluated
        and items now closest to the new switch migrate to it.  Returns
        the number of migrated items.
        """
        if self.topology.has_node(switch_id):
            raise GredError(
                f"cannot join switch {switch_id}: a switch with that id "
                f"already exists — pick an unused id"
            )
        unknown = [peer for peer in links
                   if not self.topology.has_node(peer)]
        if unknown:
            raise GredError(
                f"cannot join switch {switch_id}: link peer(s) {unknown} "
                f"do not exist in the topology"
            )
        if servers is None:
            servers = [
                EdgeServer(switch=switch_id, serial=i)
                for i in range(servers_per_switch)
            ]
        self.controller.add_switch(switch_id, list(links), servers)
        if not servers:
            return 0
        neighbors = self.controller.dt_adjacency().get(switch_id, set())
        return self._migrate_from(neighbors)

    def remove_switch(self, switch_id: int) -> int:
        """A switch leaves gracefully; its stored items are re-placed
        onto the remaining network.  Returns the number of re-placed
        items.  (For an *ungraceful* crash — data lost, no migration —
        see :mod:`repro.faults`.)"""
        if not self.topology.has_node(switch_id):
            raise GredError(f"unknown switch {switch_id}")
        if self.topology.num_nodes() == 1:
            raise GredError(
                f"cannot remove switch {switch_id}: it is the last "
                f"switch and removing it would leave an empty network"
            )
        servers = self.server_map.get(switch_id, [])
        orphans = []
        for server in servers:
            for item_id in server.stored_ids():
                orphans.append((item_id, server.retrieve(item_id),
                                server.stamp_of(item_id)))
            server.clear()
        # Re-place from a surviving physical neighbor of the leaver.
        neighbors = [n for n in self.topology.neighbors(switch_id)]
        leaver_position = self.controller.positions.get(switch_id)
        self.controller.remove_switch(switch_id)
        entry = None
        for n in neighbors:
            if self.topology.has_node(n):
                entry = n
                break
        if entry is None:
            # Defensive: a connected topology always leaves a neighbor,
            # but if not, re-enter at the nearest surviving switch in
            # the virtual space rather than an arbitrary one.
            entry = min(
                self.switch_ids(),
                key=lambda s: (
                    euclidean(self.controller.positions[s],
                              leaver_position)
                    if leaver_position is not None else 0.0,
                    s,
                ),
            )
        for item_id, payload, stamp in orphans:
            self._place_one(item_id, payload, entry, stamp=stamp)
        if orphans:
            default_registry().counter("core.migrations").inc(
                len(orphans))
        return len(orphans)

    def _migrate_from(self, switches: Sequence[int]) -> int:
        """Re-evaluate items stored under the given switches and move the
        ones whose closest switch changed."""
        moved = 0
        for switch in switches:
            for server in self.server_map.get(switch, []):
                for item_id in server.stored_ids():
                    if self._belongs_to(item_id, server.switch,
                                        server.serial):
                        continue
                    payload = server.retrieve(item_id)
                    stamp = server.stamp_of(item_id)
                    server.delete(item_id)
                    self._place_one(item_id, payload, switch,
                                    stamp=stamp)
                    moved += 1
        if moved:
            default_registry().counter("core.migrations").inc(moved)
        return moved

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def route_for(self, data_id: str, entry_switch: int) -> RouteResult:
        """Route a retrieval request without touching any storage (used
        by the routing-stretch experiments)."""
        packet = Packet(
            kind=PacketKind.RETRIEVAL,
            data_id=data_id,
            position=self._position_fn(data_id),
        )
        return route_packet(self.controller.switches, entry_switch,
                            packet, fault_state=self.fault_state)

    def trace_route(self, data_id: str, entry_switch: int):
        """Route a retrieval request with full decision tracing.

        Returns ``(RouteResult, Tracer)``; render the trace with
        ``tracer.render()`` for a per-hop explanation of the greedy
        decisions, virtual-link relays and the final delivery.
        """
        from ..dataplane import Tracer

        tracer = Tracer()
        packet = Packet(
            kind=PacketKind.RETRIEVAL,
            data_id=data_id,
            position=self._position_fn(data_id),
        )
        route = route_packet(self.controller.switches, entry_switch,
                             packet, tracer=tracer,
                             fault_state=self.fault_state)
        return route, tracer

    def destination_switch(self, data_id: str) -> int:
        """The switch that owns ``data_id`` (no routing simulated)."""
        return self.controller.closest_switch(
            self._position_fn(data_id))

    def _resolve_entry(self, entry_switch: Optional[int],
                       rng: Optional[np.random.Generator]) -> int:
        fault = self.fault_state
        if entry_switch is not None:
            if not self.topology.has_node(entry_switch):
                raise GredError(f"unknown entry switch {entry_switch}")
            if fault is not None and not fault.switch_alive(entry_switch):
                raise GredError(
                    f"entry switch {entry_switch} has crashed; requests "
                    f"must enter at a live access point"
                )
            return entry_switch
        ids = self.switch_ids()
        if fault is not None:
            ids = [s for s in ids if fault.switch_alive(s)]
            if not ids:
                raise GredError("no live switch can serve as entry point")
        rng = utils.rng(rng)
        return ids[int(rng.integers(0, len(ids)))]
