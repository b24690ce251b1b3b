"""Tests for the batch request fast path.

Pins the contracts the fast path is built on:

* batch hashing is bit-exact against the scalar SHA-256 helpers;
* ``place_many`` / ``retrieve_many`` / ``destinations_for`` return
  byte-identical per-request outcomes to the scalar loop under the
  same seed — including replicas, misses, and hop-budget failures;
* repeated ``(entry, copy_id)`` keys in one batch are routed once and
  still yield the scalar loop's outcomes, telemetry and private traces;
* the compiled router follows every control-plane mutation
  (recompute, join, leave, failure absorption);
* the grid routing index agrees with the brute-force nearest-switch
  scan everywhere, ties included.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GredNetwork, utils
from repro.controlplane import RoutingIndex
from repro.dataplane import (
    CompiledRouter,
    ForwardingError,
    Packet,
    PacketKind,
    fastpath,
    route_packet,
)
from repro.edge import attach_uniform
from repro.hashing import (
    batch_hash,
    data_position,
    data_positions,
    positions_from_digests,
    replica_id,
    replica_ids,
    serials_from_digests,
    server_index,
    server_indices,
    sha256_digests,
)
from repro.topology import brite_waxman_graph

IDS = ["videos/a.mp4", "sensor-42/frame-7", "x", "", "data#copy1",
       "ünïcode/πath", "a" * 300] + [f"bulk-{i}" for i in range(64)]


def build_pair(switches=40, servers=3, seed=0):
    """Two identical deployments for scalar-vs-batch comparison."""
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))

    def build():
        servers_map = attach_uniform(topology.nodes(),
                                     servers_per_switch=servers)
        return GredNetwork(topology, servers_map, cvt_iterations=10,
                           seed=seed)

    return build(), build()


class TestBatchHashing:
    def test_positions_match_scalar(self):
        batch = data_positions(IDS)
        for i, data_id in enumerate(IDS):
            assert tuple(batch[i]) == data_position(data_id)

    def test_server_indices_match_scalar(self):
        for s in (1, 2, 7, 64):
            batch = server_indices(IDS, s)
            for i, data_id in enumerate(IDS):
                assert batch[i] == server_index(data_id, s)

    def test_serials_are_leading_u64(self):
        serials = serials_from_digests(sha256_digests(IDS))
        for i, data_id in enumerate(IDS):
            digest = hashlib.sha256(data_id.encode("utf-8")).digest()
            assert int(serials[i]) == int.from_bytes(digest[:8], "big")

    def test_replica_ids_match_scalar(self):
        for row, data_id in zip(replica_ids(IDS, 3), IDS):
            assert row == [replica_id(data_id, c) for c in range(3)]

    def test_batch_hash_is_one_digest_pass(self):
        positions, serials, keys = batch_hash(IDS, 5)
        assert positions.shape == (len(IDS), 2)
        np.testing.assert_array_equal(positions, data_positions(IDS))
        np.testing.assert_array_equal(serials, server_indices(IDS, 5))

    def test_non_string_identifier_rejected(self):
        with pytest.raises(TypeError, match="must be str"):
            sha256_digests(["ok", 7])

    def test_empty_batch(self):
        assert data_positions([]).shape == (0, 2)


class TestBatchScalarEquivalence:
    def test_place_many_matches_scalar_loop(self):
        scalar, batch = build_pair()
        ids = [f"eq/{i}" for i in range(300)]
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        expected = [scalar.place(d, payload={"k": d}, rng=r1)
                    for d in ids]
        got = batch.place_many(ids, payloads=[{"k": d} for d in ids],
                               rng=r2)
        assert got == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_place_many_with_replicas(self):
        scalar, batch = build_pair()
        ids = [f"rep/{i}" for i in range(120)]
        r1, r2 = (np.random.default_rng(4) for _ in range(2))
        expected = [scalar.place(d, copies=3, rng=r1) for d in ids]
        assert batch.place_many(ids, copies=3, rng=r2) == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_retrieve_many_matches_scalar_loop(self):
        scalar, batch = build_pair()
        ids = [f"get/{i}" for i in range(200)]
        scalar.place_many(ids, rng=np.random.default_rng(5))
        batch.place_many(ids, rng=np.random.default_rng(5))
        # Interleave hits with never-placed ids so misses are
        # exercised in the same batch.
        probe = [d for pair in zip(ids, (f"miss/{i}" for i in
                                         range(len(ids))))
                 for d in pair]
        r1, r2 = (np.random.default_rng(6) for _ in range(2))
        expected = [scalar.retrieve(d, copies=2, rng=r1) for d in probe]
        got = batch.retrieve_many(probe, copies=2, rng=r2)
        assert got == expected
        assert sum(1 for r in got if r.found) == len(ids)

    def test_retrieve_many_respects_hop_budget(self):
        scalar, batch = build_pair()
        ids = [f"hop/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(7))
        batch.place_many(ids, rng=np.random.default_rng(7))
        r1, r2 = (np.random.default_rng(8) for _ in range(2))
        expected = [scalar.retrieve(d, max_hops=2, rng=r1) for d in ids]
        got = batch.retrieve_many(ids, max_hops=2, rng=r2)
        assert got == expected
        # The tiny budget must fail at least one probe for the test
        # to mean anything.
        assert any(not r.found for r in got)

    def test_explicit_entry_switches(self):
        scalar, batch = build_pair()
        ids = [f"ent/{i}" for i in range(60)]
        entries = [scalar.switch_ids()[i % 40] for i in range(60)]
        expected = [scalar.place(d, entry_switch=e)
                    for d, e in zip(ids, entries)]
        assert batch.place_many(ids, entry_switches=entries) == expected

    def test_destinations_for_matches_scalar(self):
        net, _ = build_pair()
        ids = [f"dest/{i}" for i in range(200)]
        assert net.destinations_for(ids) == \
            [net.destination_switch(d) for d in ids]

    def test_repeated_keys_are_stable(self):
        """A batch that repeats every key shares one routed outcome
        per key and must still equal the scalar outcome (shared
        traces are copied, never mutated)."""
        scalar, batch = build_pair()
        ids = [f"same/{i}" for i in range(80)]
        scalar.place_many(ids, rng=np.random.default_rng(9))
        batch.place_many(ids, rng=np.random.default_rng(9))
        probe = ids + ids[::-1] + ids
        entries = [scalar.switch_ids()[0]] * len(probe)
        expected = [scalar.retrieve(d, entry_switch=e)
                    for d, e in zip(probe, entries)]
        for _ in range(2):
            got = batch.retrieve_many(probe, entry_switches=entries)
            assert got == expected
            # Returned traces are private copies: mutating them must
            # not corrupt a repeat or the next pass.
            for result in got:
                result.trace.clear()

    def test_batch_raises_like_scalar_on_invalid_input(self):
        net, _ = build_pair(switches=12)
        from repro import GredError

        with pytest.raises(GredError, match="copies"):
            net.place_many(["a"], copies=0)
        with pytest.raises(GredError, match="payloads"):
            net.place_many(["a", "b"], payloads=[1])
        with pytest.raises(GredError, match="entry_switches"):
            net.place_many(["a", "b"], entry_switches=[0])


class TestEpochInvalidation:
    def test_join_invalidates_cached_routes(self):
        scalar, batch = build_pair()
        ids = [f"join/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        links = [scalar.switch_ids()[0], scalar.switch_ids()[1]]
        scalar.add_switch(999, links, servers_per_switch=3)
        batch.add_switch(999, links, servers_per_switch=3)
        r1, r2 = (np.random.default_rng(2) for _ in range(2))
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        assert batch.retrieve_many(ids, rng=r2) == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_leave_invalidates_cached_routes(self):
        scalar, batch = build_pair()
        ids = [f"leave/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        victim = scalar.destinations_for(ids)[0]
        scalar.remove_switch(victim)
        batch.remove_switch(victim)
        r1, r2 = (np.random.default_rng(2) for _ in range(2))
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        got = batch.retrieve_many(ids, rng=r2)
        assert got == expected
        # Stale cache entries must never route to the removed switch.
        for result in got:
            if result.found:
                assert result.server_id[0] != victim
        assert [r.found for r in got] == [True] * len(ids)

    def test_absorb_failures_invalidates_cached_routes(self):
        scalar, batch = build_pair()
        ids = [f"fail/{i}" for i in range(150)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        dead = batch.destinations_for(ids)[0]
        epoch_before = batch.controller.epoch
        version_before = batch.controller.version
        scalar.controller.absorb_failures(dead_switches=[dead])
        batch.controller.absorb_failures(dead_switches=[dead])
        # Failure absorption is a scoped event: the change counter
        # advances (invalidating affected routes) while the global
        # epoch — reserved for full recomputes — stays put.
        assert batch.controller.version > version_before
        assert batch.controller.epoch == epoch_before
        r1, r2 = (np.random.default_rng(2) for _ in range(2))
        expected = [scalar.retrieve(d, rng=r1) for d in ids]
        got = batch.retrieve_many(ids, rng=r2)
        assert got == expected
        assert dead not in batch.destinations_for(ids)

    def test_recompute_rebuilds_fast_state(self):
        net, _ = build_pair(switches=12)
        net.place_many([f"r/{i}" for i in range(20)],
                       rng=np.random.default_rng(0))
        state = net._fastpath
        net.controller.recompute()
        net.place_many([f"r2/{i}" for i in range(20)],
                       rng=np.random.default_rng(0))
        assert net._fastpath is not state
        assert net._fastpath.epoch == net.controller.epoch


class TestRoutingIndex:
    def test_grid_matches_bruteforce_on_controller(self):
        net, _ = build_pair(switches=60)
        controller = net.controller
        points = np.random.default_rng(11).random((1000, 2))
        for x, y in points:
            assert controller.closest_switch((x, y)) == \
                controller.closest_switch_bruteforce((x, y))

    def test_grid_matches_bruteforce_with_ties(self):
        # A lattice of participants and queries on cell boundaries:
        # equidistant pairs force the (distance, x, y) tie-break.
        positions = {i * 10 + j: (i / 4.0, j / 4.0)
                     for i in range(5) for j in range(5)}
        index = RoutingIndex(sorted(positions), positions)
        import math

        def brute(point):
            return min(
                sorted(positions),
                key=lambda n: (math.hypot(positions[n][0] - point[0],
                                          positions[n][1] - point[1]),
                               positions[n][0], positions[n][1]),
            )

        queries = [(x / 8.0, y / 8.0) for x in range(9)
                   for y in range(9)]
        queries += [(0.5 + 1e-12, 0.5), (-0.3, 1.7), (2.0, -1.0)]
        for q in queries:
            assert index.closest(q) == brute(q)

    def test_empty_index_rejects_queries(self):
        index = RoutingIndex([], {})
        assert len(index) == 0
        with pytest.raises(ValueError, match="no participants"):
            index.closest((0.5, 0.5))

    def test_index_cached_per_epoch(self):
        net, _ = build_pair(switches=12)
        controller = net.controller
        first = controller.routing_index()
        assert controller.routing_index() is first
        controller.recompute()
        assert controller.routing_index() is not first


class TestSeededFallbackRng:
    def test_unseeded_operations_reproducible_after_reseed(self):
        """Omitting ``rng`` draws from the process-global seeded
        stream: two identically reseeded runs pick identical entries."""
        net, _ = build_pair(switches=12)
        ids = [f"seed/{i}" for i in range(30)]
        utils.reseed(77)
        first = [net.retrieve(d).attempts for d in ids]
        first_entries = net.place_many(
            [f"p/{i}" for i in range(30)])
        utils.reseed(77)
        second = [net.retrieve(d).attempts for d in ids]
        second_entries = net.place_many(
            [f"p2/{i}" for i in range(30)])
        utils.reseed()
        assert first == second
        assert [r.primary.entry_switch for r in first_entries] == \
            [r.primary.entry_switch for r in second_entries]

    def test_int_seed_coerced_per_call(self):
        assert utils.rng(5).integers(0, 1 << 30) == \
            utils.rng(5).integers(0, 1 << 30)

    def test_topology_generation_reproducible_after_reseed(self):
        utils.reseed(13)
        g1, pos1 = brite_waxman_graph(20, min_degree=3)
        utils.reseed(13)
        g2, pos2 = brite_waxman_graph(20, min_degree=3)
        utils.reseed()
        assert sorted(g1.edges()) == sorted(g2.edges())
        assert pos1 == pos2


class TestFastpathGates:
    """The ``(predicate, reason)`` gate list is the single source of
    truth: the facade's boolean and the operator-facing reason list
    must agree in every configuration."""

    def _agree(self, net):
        from repro.dataplane import batch_fastpath_blockers, \
            fastpath_usable

        blockers = batch_fastpath_blockers(net)
        assert fastpath_usable(net) == (blockers == [])
        assert net._fastpath_usable() == (blockers == [])
        return blockers

    def test_clean_network_is_eligible(self):
        net, _ = build_pair(switches=12)
        assert self._agree(net) == []

    def test_fault_state_gate(self):
        from repro.faults import FaultState

        net, _ = build_pair(switches=12)
        net.fault_state = FaultState()
        assert self._agree(net) == ["fault state attached"]
        net.fault_state = None
        assert self._agree(net) == []

    def test_custom_position_fn_gate(self):
        topology, _ = brite_waxman_graph(
            12, min_degree=3, rng=np.random.default_rng(0))
        servers_map = attach_uniform(topology.nodes(),
                                     servers_per_switch=2)
        net = GredNetwork(topology, servers_map, cvt_iterations=5,
                          seed=0, position_fn=lambda d: (0.5, 0.5))
        assert self._agree(net) == ["custom position_fn"]

    def test_resilience_gate_fires_only_when_blocking(self):
        class _Pipeline:
            blocking = False

            def blocks_fastpath(self):
                return self.blocking

        net, _ = build_pair(switches=12)
        pipeline = _Pipeline()
        net._resilience = pipeline
        assert self._agree(net) == []
        pipeline.blocking = True
        assert self._agree(net) == ["resilience breakers tripped"]
        del net._resilience

    def test_new_gate_reaches_both_views(self, monkeypatch):
        """A gate appended to ``FASTPATH_GATES`` must flip the boolean
        and the reason list together — neither view hardcodes the
        conditions."""
        from repro.dataplane import fastpath

        extended = fastpath.FASTPATH_GATES + (
            (lambda net: True, "always blocked"),)
        monkeypatch.setattr(fastpath, "FASTPATH_GATES", extended)
        net, _ = build_pair(switches=12)
        assert self._agree(net) == ["always blocked"]


class TestPlaneDtypeInvariants:
    def test_compiled_plane_dtypes(self):
        net, _ = build_pair(switches=12)
        net.place_many([f"dt/{i}" for i in range(8)],
                       rng=np.random.default_rng(0))
        flat = net._fast_state().router._ensure_flat()
        for name in ("sid_sorted", "sid", "ns", "kind", "nid", "nrow"):
            assert getattr(flat, name).dtype == np.int64, name
        for name in ("cx", "cy"):
            assert getattr(flat, name).dtype == np.float64, name
        assert flat.chains_built
        for name in ("chain_off", "chain_len", "chain_err"):
            assert getattr(flat, name).dtype == np.int64, name

    def test_dtype_violation_is_rejected(self):
        net, _ = build_pair(switches=12)
        net.destinations_for(["dt/x"])
        flat = net._fast_state().router._ensure_flat()
        good = flat.ns
        flat.ns = good.astype(np.uint64)
        try:
            with pytest.raises(AssertionError, match="ns must be int64"):
                flat._assert_invariants()
        finally:
            flat.ns = good
        flat._assert_invariants()


class TestInBatchDedup:
    """Each distinct ``(entry, copy_id)`` key of a batch is routed
    once; every repeat must still match the scalar loop exactly."""

    def _probe(self, net, n=60, repeats=3):
        ids = [f"dup/{i}" for i in range(n)]
        sids = net.switch_ids()
        probe = [ids[(i * 7) % n] for i in range(n * repeats)]
        entries = [sids[(i * 7) % n % 5] for i in range(n * repeats)]
        return ids, probe, entries

    def test_repeated_entry_and_id(self):
        scalar, batch = build_pair()
        ids, probe, entries = self._probe(scalar)
        expected = [scalar.place(d, payload=i, entry_switch=e)
                    for i, (d, e) in enumerate(zip(probe, entries))]
        got = batch.place_many(probe, payloads=list(range(len(probe))),
                               entry_switches=entries)
        assert got == expected
        assert scalar.load_vector() == batch.load_vector()
        expected = [scalar.retrieve(d, entry_switch=e)
                    for d, e in zip(probe, entries)]
        assert batch.retrieve_many(probe,
                                   entry_switches=entries) == expected

    def test_same_id_from_different_entries(self):
        scalar, batch = build_pair()
        ids = [f"fan/{i}" for i in range(20)]
        scalar.place_many(ids, rng=np.random.default_rng(1))
        batch.place_many(ids, rng=np.random.default_rng(1))
        sids = scalar.switch_ids()
        probe = [d for d in ids for _ in sids]
        entries = [e for _ in ids for e in sids]
        expected = [scalar.retrieve(d, entry_switch=e)
                    for d, e in zip(probe, entries)]
        got = batch.retrieve_many(probe, entry_switches=entries)
        assert got == expected
        assert len({tuple(r.trace) for r in got}) > len(ids)

    def test_replicated_retrieval_with_repeats(self):
        scalar, batch = build_pair()
        ids = [f"rep/{i}" for i in range(40)]
        scalar.place_many(ids, copies=2, rng=np.random.default_rng(2))
        batch.place_many(ids, copies=2, rng=np.random.default_rng(2))
        probe = [d for d in ids for _ in range(3)]
        probe += [f"gone/{i % 5}" for i in range(15)]
        r1, r2 = (np.random.default_rng(3) for _ in range(2))
        expected = [scalar.retrieve(d, copies=2, rng=r1) for d in probe]
        assert batch.retrieve_many(probe, copies=2, rng=r2) == expected

    def test_repeated_hop_budget_failures(self):
        scalar, batch = build_pair()
        ids, probe, entries = self._probe(scalar)
        scalar.place_many(ids, rng=np.random.default_rng(4))
        batch.place_many(ids, rng=np.random.default_rng(4))
        expected = [scalar.retrieve(d, entry_switch=e, max_hops=2)
                    for d, e in zip(probe, entries)]
        got = batch.retrieve_many(probe, entry_switches=entries,
                                  max_hops=2)
        assert got == expected
        failed = [d for d, r in zip(probe, got) if not r.found]
        assert len(failed) > len(set(failed)), \
            "no repeated key failed its hop budget"

    def test_workers_with_repeats(self):
        single, sharded = build_pair(switches=30)
        ids, probe, entries = self._probe(single)
        single.place_many(ids, copies=2, rng=np.random.default_rng(5))
        sharded.place_many(ids, copies=2, rng=np.random.default_rng(5))
        try:
            got = sharded.retrieve_many(probe, entry_switches=entries,
                                        copies=2, workers=2)
        finally:
            sharded.close_worker_pools()
        assert got == single.retrieve_many(probe,
                                           entry_switches=entries,
                                           copies=2)

    def test_every_repeat_gets_a_private_trace(self):
        net, _ = build_pair()
        ids, probe, entries = self._probe(net)
        placed = net.place_many(probe, entry_switches=entries)
        got = net.retrieve_many(probe, entry_switches=entries)
        traces = [r.primary.trace for r in placed] + \
            [r.trace for r in got]
        assert len({id(t) for t in traces}) == len(traces)
        reference = [list(t) for t in traces]
        got[0].trace.append(-1)
        placed[0].primary.trace.clear()
        for t, ref in zip(traces[1:len(placed)], reference[1:]):
            assert t == ref
        for t, ref in zip(traces[len(placed) + 1:],
                          reference[len(placed) + 1:]):
            assert t == ref

    def test_heap_stays_flat_across_batches(self):
        """Nothing a batch routes outlives it: after warm-up, further
        passes of fresh ids leave the tracked-object count flat."""
        import gc

        net, _ = build_pair(switches=30)
        rng = np.random.default_rng(0)
        counts = []
        for p in range(3):
            ids = [f"heap/{p}/{i}" for i in range(4096)]
            for lo in range(0, len(ids), 64):
                chunk = ids[lo:lo + 64]
                net.place_many(chunk, rng=rng)
                net.retrieve_many(chunk, rng=rng)
            gc.collect()
            counts.append(len(gc.get_objects()))
        assert counts[2] - counts[1] < 500, counts


class TestWorkerSharding:
    def _clean(self, net):
        net.close_worker_pools()

    def test_sharded_place_and_retrieve_match_in_process(self):
        single, sharded = build_pair(switches=30)
        ids = [f"shard/{i}" for i in range(400)]
        r1, r2 = (np.random.default_rng(3) for _ in range(2))
        expected = single.place_many(
            ids, payloads=[{"k": d} for d in ids], copies=2, rng=r1)
        got = sharded.place_many(
            ids, payloads=[{"k": d} for d in ids], copies=2, rng=r2,
            workers=3)
        try:
            assert got == expected
            assert single.load_vector() == sharded.load_vector()
            probe = ids + [f"miss/{i}" for i in range(50)]
            r1, r2 = (np.random.default_rng(4) for _ in range(2))
            assert sharded.retrieve_many(probe, copies=2, rng=r2,
                                         workers=3) == \
                single.retrieve_many(probe, copies=2, rng=r1)
        finally:
            self._clean(sharded)

    def test_pool_resyncs_after_control_plane_change(self):
        single, sharded = build_pair(switches=24)
        warm = [f"warm/{i}" for i in range(60)]
        single.place_many(warm, rng=np.random.default_rng(1))
        sharded.place_many(warm, rng=np.random.default_rng(1),
                           workers=2)
        try:
            single.controller.recompute()
            sharded.controller.recompute()
            ids = [f"post/{i}" for i in range(120)]
            r1, r2 = (np.random.default_rng(2) for _ in range(2))
            assert sharded.place_many(ids, rng=r2, workers=2) == \
                single.place_many(ids, rng=r1)
            assert single.load_vector() == sharded.load_vector()
        finally:
            self._clean(sharded)

    def test_unsynced_pool_rejects_batches(self):
        from repro.dataplane import ShardPool

        pool = ShardPool(1)
        try:
            with pytest.raises(RuntimeError, match="sync"):
                pool.route_batch_packed(
                    np.zeros(1, dtype=np.int64),
                    np.zeros(1), np.zeros(1),
                    np.zeros(1, dtype=np.uint64), 10)
        finally:
            pool.close()

    def test_worker_exception_propagates(self, monkeypatch):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to inherit the patched walker")
        from repro.dataplane import ShardPool, shard

        def boom(*args, **kwargs):
            raise RuntimeError("shard walker exploded")

        # The worker loop calls the name bound in the shard module;
        # fork-started workers inherit the patched binding.
        monkeypatch.setattr(shard, "_route_batch_packed", boom)
        net, _ = build_pair(switches=12)
        net.destinations_for(["w/x"])
        state = net._fast_state()
        pool = ShardPool(2, start_method="fork")
        try:
            pool.sync(state.router, (state.epoch, state.version))
            with pytest.raises(RuntimeError,
                               match="shard walker exploded"):
                pool.route_batch_packed(
                    np.asarray([net.switch_ids()[0]] * 4,
                               dtype=np.int64),
                    np.full(4, 0.5), np.full(4, 0.5),
                    np.arange(4, dtype=np.uint64), 64)
        finally:
            pool.close()

    def test_telemetry_parity_under_workers(self):
        """A sharded run emits the same shared aggregates as the
        in-process batch path; only the ``dataplane.batch.*`` extras
        (wave counts are per-shard) may differ."""
        from repro.obs import MetricsRegistry, set_default_registry

        def run(workers):
            net, _ = build_pair(switches=24)
            registry = MetricsRegistry(enabled=True)
            previous = set_default_registry(registry)
            try:
                ids = [f"tp/{i}" for i in range(150)]
                net.place_many(ids, copies=2,
                               rng=np.random.default_rng(5),
                               workers=workers)
                net.retrieve_many(ids + [f"tmiss/{i}"
                                         for i in range(30)],
                                  copies=2,
                                  rng=np.random.default_rng(6),
                                  workers=workers)
                dump = registry.to_dict(include_events=False)
            finally:
                net.close_worker_pools()
                set_default_registry(previous)
            out = {}
            for kind in ("counters", "gauges", "histograms"):
                out[kind] = {
                    (e["name"], tuple(sorted(e["labels"].items()))):
                    {k: v for k, v in e.items()
                     if k not in ("name", "labels")}
                    for e in dump[kind]
                    if not e["name"].startswith("dataplane.batch.")
                }
            return out

        single, sharded = run(None), run(2)
        for kind in ("counters", "gauges", "histograms"):
            assert single[kind] == sharded[kind], kind


class TestGroupedStore:
    def test_bounded_servers_fall_back_and_match_scalar(self):
        topology, _ = brite_waxman_graph(
            16, min_degree=3, rng=np.random.default_rng(2))

        def build():
            servers_map = attach_uniform(topology.nodes(),
                                         servers_per_switch=2,
                                         capacity=100)
            return GredNetwork(topology, servers_map,
                               cvt_iterations=8, seed=2)

        scalar, batch = build(), build()
        ids = [f"cap/{i}" for i in range(80)]
        r1, r2 = (np.random.default_rng(3) for _ in range(2))
        expected = [scalar.place(d, payload=d, rng=r1) for d in ids]
        assert batch.place_many(ids, payloads=list(ids),
                                rng=r2) == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_extensions_fall_back_and_match_scalar(self):
        scalar, batch = build_pair(switches=20)
        for net in (scalar, batch):
            net.extend_range(net.switch_ids()[0], 0)
        assert any(
            sw.table.has_extensions()
            for sw in batch.controller.switches.values())
        ids = [f"ext/{i}" for i in range(120)]
        r1, r2 = (np.random.default_rng(4) for _ in range(2))
        expected = [scalar.place(d, copies=2, rng=r1) for d in ids]
        assert batch.place_many(ids, copies=2, rng=r2) == expected
        assert scalar.load_vector() == batch.load_vector()

    def test_extension_off_the_batch_keeps_bulk_path(self, monkeypatch):
        """An extension on a switch the batch never delivers to must
        not push the batch off the grouped store."""
        scalar, batch = build_pair(switches=20)
        ids = [f"far/{i}" for i in range(40)]
        reached = set(batch.destinations_for(ids))
        idle = next(s for s in batch.switch_ids() if s not in reached)
        for net in (scalar, batch):
            net.extend_range(idle, 0)
        assert batch.controller.switches[idle].table.has_extensions()
        stored = []
        grouped = batch._grouped_store

        def spy(*args):
            stored.append(grouped(*args))
            return stored[-1]

        monkeypatch.setattr(batch, "_grouped_store", spy)
        r1, r2 = (np.random.default_rng(7) for _ in range(2))
        expected = [scalar.place(d, payload=d, rng=r1) for d in ids]
        assert batch.place_many(ids, payloads=list(ids),
                                rng=r2) == expected
        assert stored and stored[-1] is not None
        assert scalar.load_vector() == batch.load_vector()

    def test_grouped_payloads_land_on_the_right_replica(self):
        net, _ = build_pair(switches=20)
        ids = [f"pay/{i}" for i in range(60)]
        payloads = [{"item": d} for d in ids]
        net.place_many(ids, payloads=payloads, copies=3,
                       rng=np.random.default_rng(5))
        results = net.retrieve_many(ids,
                                    rng=np.random.default_rng(6))
        for data_id, result in zip(ids, results):
            assert result.found
            assert result.payload == {"item": data_id}


class TestDifferentialProperties:
    """S4: randomized differential sweep — for random topologies,
    batch sizes, replica counts, and worker counts, the vectorized
    (and worker-sharded) batch pipeline is byte-identical to the
    scalar reference loop."""

    @given(
        seed=st.integers(min_value=0, max_value=50),
        switches=st.integers(min_value=8, max_value=26),
        batch=st.integers(min_value=1, max_value=48),
        copies=st.integers(min_value=2, max_value=3),
        workers=st.sampled_from([None, 2, 3]),
    )
    @settings(max_examples=8, deadline=None)
    def test_batch_pipeline_matches_scalar_reference(
            self, seed, switches, batch, copies, workers):
        topology, _ = brite_waxman_graph(
            switches, min_degree=3, rng=np.random.default_rng(seed))

        def build():
            servers_map = attach_uniform(topology.nodes(),
                                         servers_per_switch=2)
            return GredNetwork(topology, servers_map,
                               cvt_iterations=4, seed=seed)

        scalar, vector = build(), build()
        ids = [f"d{seed}/{i}" for i in range(batch)]
        r1, r2 = (np.random.default_rng(seed + 1) for _ in range(2))
        expected = [scalar.place(d, payload=(d, seed), copies=copies,
                                 rng=r1) for d in ids]
        try:
            got = vector.place_many(ids,
                                    payloads=[(d, seed) for d in ids],
                                    copies=copies, rng=r2,
                                    workers=workers)
            assert got == expected
            assert scalar.load_vector() == vector.load_vector()
            probe = [d for pair in zip(
                ids, (f"m{seed}/{i}" for i in range(batch)))
                for d in pair]
            r1, r2 = (np.random.default_rng(seed + 2)
                      for _ in range(2))
            want = [scalar.retrieve(d, copies=copies, max_hops=6,
                                    rng=r1) for d in probe]
            assert vector.retrieve_many(probe, copies=copies,
                                        max_hops=6, rng=r2,
                                        workers=workers) == want
        finally:
            vector.close_worker_pools()


def _seeded_batch(net, size, seed, unknown=0, ties=0):
    """Entries, x/y positions and digest serials of a seeded batch.

    The first ``ties`` targets sit on the midpoint between the entry
    switch and one of its candidates — often an exact squared-distance
    tie, decided by the ``(x, y, kind)`` order.  ``unknown`` random
    entries name switches that do not exist."""
    rng = np.random.default_rng(seed)
    digests = sha256_digests([f"w{seed}/{i}" for i in range(size)])
    positions = positions_from_digests(digests)
    sids = net.switch_ids()
    entries = rng.choice(sids, size=size)
    switches = net.controller.switches
    for i in range(min(ties, size)):
        switch = switches[int(entries[i])]
        near = sorted({**switch.physical_neighbor_positions,
                       **switch.dt_neighbor_positions}.items())
        _, (cx, cy) = near[int(rng.integers(len(near)))]
        positions[i] = ((switch.position[0] + cx) / 2,
                        (switch.position[1] + cy) / 2)
    if unknown:
        count = min(unknown, size)
        entries[rng.choice(size, size=count, replace=False)] = \
            max(sids) + 1 + np.arange(count)
    return (entries.astype(np.int64), positions[:, 0].copy(),
            positions[:, 1].copy(), serials_from_digests(digests))


def _packed_fields(packed):
    """Every outcome field of a packed walk (errors in request order:
    their append order depends on which walker caught them)."""
    return {
        "dest": packed.dest.tolist(),
        "serial": packed.serial.tolist(),
        "off": packed.off.tolist(),
        "trace": packed.trace_flat.tolist(),
        "overlay": packed.overlay.tolist(),
        "greedy": packed.greedy.tolist(),
        "vl": packed.vl.tolist(),
        "relays": packed.relays.tolist(),
        "known": packed.known.tolist(),
        "errors": sorted(packed.errors),
        "hop_failures": sorted(packed.hop_failures),
    }


def _walk_three_ways(flat, batch, max_hops):
    """Route ``batch`` all in waves, with the default straggler
    handoff, and all scalar; assert the three agree field by field."""
    size = batch[0].size
    runs = [fastpath._route_batch_packed(flat, *batch, max_hops,
                                         min_active=m)
            for m in (0, fastpath._WAVE_MIN_ACTIVE, size + 1)]
    fields = [_packed_fields(p) for p in runs]
    assert fields[0] == fields[1], "default handoff != all waves"
    assert fields[0] == fields[2], "all stragglers != all waves"
    return runs[0]


class TestWaveStragglerHandoff:
    """The wave walker and the scalar straggler walker are one
    program: wherever the handoff falls, every outcome is identical —
    including hop-bound breaches and unknown entry switches."""

    @given(
        seed=st.integers(min_value=0, max_value=40),
        switches=st.integers(min_value=10, max_value=40),
        size=st.integers(min_value=1, max_value=240),
        max_hops=st.one_of(st.none(),
                           st.integers(min_value=0, max_value=8)),
        unknown=st.integers(min_value=0, max_value=4),
        ties=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_handoff_point_does_not_change_outcomes(
            self, seed, switches, size, max_hops, unknown, ties):
        net, _ = build_pair(switches=switches, seed=seed)
        router = net._fast_state().router
        if max_hops is None:
            max_hops = router._default_max_hops
        _walk_three_ways(router._ensure_flat(),
                         _seeded_batch(net, size, seed, unknown, ties),
                         max_hops)

    def test_exact_ties_break_like_the_reference_engine(self):
        net, _ = build_pair(switches=30, seed=4)
        router = net._fast_state().router
        batch = _seeded_batch(net, 200, 4, ties=200)
        packed = _walk_three_ways(router._ensure_flat(), batch,
                                  router._default_max_hops)
        outcomes = packed.materialize(["t"] * 200,
                                      router._default_max_hops)
        for entry, px, py, outcome in zip(batch[0].tolist(),
                                          batch[1].tolist(),
                                          batch[2].tolist(), outcomes):
            ref = route_packet(
                net.controller.switches, entry,
                Packet(PacketKind.RETRIEVAL, "t", (px, py)))
            assert type(outcome) is tuple, outcome
            assert outcome[:3] == (ref.trace, ref.overlay_hops,
                                   ref.destination_switch)

    def test_breaches_hit_greedy_steps_and_relay_chains(self):
        """A one-hop bound breaches on the second hop: on a greedy
        step, or inside a relay chain — in waves and in the scalar
        walker alike."""
        net, _ = build_pair(switches=40, seed=5)
        flat = net._fast_state().router._ensure_flat()
        packed = _walk_three_ways(
            flat, _seeded_batch(net, 400, 5, unknown=3), 1)
        breached = packed.hop_failures
        # Two greedy hops, no virtual link.
        assert any(packed.vl[j] == 0 for j in breached)
        # A relay counted means the chain taken on the first hop had
        # a second switch: the bound fell inside the chain.
        assert any(packed.relays[j] > 0 for j in breached)
        assert sum(code == "entry" for _, code, _ in packed.errors) == 3


    def test_inconsistent_plane_fails_like_the_reference_engine(self):
        """A plane compiled without one switch: forwards into it fail
        per request (unknown neighbor, unresolvable relay chain) the
        same way in waves, in the scalar walker and in route_packet."""
        net, _ = build_pair(switches=40, seed=3)
        switches = net.controller.switches
        # The missing switch must not be a DT-only neighbor of anyone:
        # a virtual link *into* an unknown switch fails the whole batch.
        dt_only = set()
        for switch in switches.values():
            dt_only |= (set(switch.dt_neighbor_positions)
                        - set(switch.physical_neighbor_positions))
        for victim in sorted(set(switches) - dt_only):
            subset = {s: sw for s, sw in switches.items() if s != victim}
            router = CompiledRouter(subset)
            flat = router._ensure_flat()
            if (flat.chain_err >= 0).any():
                break
        assert not flat.sound
        entries, pxs, pys, serials = _seeded_batch(net, 300, 3)
        entries = np.random.default_rng(3).choice(sorted(subset), 300)
        pxs[:150], pys[:150] = switches[victim].position
        batch = (entries.astype(np.int64), pxs, pys, serials)
        packed = _walk_three_ways(flat, batch, router._default_max_hops)
        codes = [code for _, code, _ in packed.errors]
        assert "unknown_fwd" in codes and "msg" in codes
        outcomes = packed.materialize(["t"] * 300,
                                      router._default_max_hops)
        for entry, px, py, outcome in zip(entries.tolist(), pxs.tolist(),
                                          pys.tolist(), outcomes):
            packet = Packet(PacketKind.RETRIEVAL, "t", (px, py))
            try:
                ref = route_packet(subset, entry, packet)
            except ForwardingError as exc:
                assert str(outcome) == str(exc)
                continue
            assert outcome[:3] == (ref.trace, ref.overlay_hops,
                                   ref.destination_switch)


class TestPatchedPlane:
    def test_patched_plane_routes_like_a_fresh_compile(self):
        """A join and a leave rebuild the plane; a link change then
        patches its rows in place.  The patched plane (sentinel cells
        and scalar rows included) must route like a fresh compile."""
        net, _ = build_pair(switches=30, seed=4)
        warm = [f"pp/{i}" for i in range(64)]
        net.place_many(warm, rng=np.random.default_rng(0))
        ids = net.switch_ids()
        net.add_switch(max(ids) + 1, links=ids[:2], servers_per_switch=3)
        net.place_many(warm, rng=np.random.default_rng(1))
        net.remove_switch(ids[5])
        router = net._fast_state().router
        flat = router._ensure_flat()
        flat.rows_py()  # the scalar walker's rows must be patched too
        topology = net.controller.topology
        u, v = next(
            (a, b) for a in sorted(topology, key=topology.degree)
            for b in sorted(topology, key=topology.degree)
            if a != b and not topology.has_edge(a, b))
        net.controller.add_link(u, v)
        assert net._fast_state().router is router
        patched = router._ensure_flat()
        assert patched is flat, "link change rebuilt the plane"
        fresh = CompiledRouter(net.controller.switches)._ensure_flat()
        assert patched.rows_py() == fresh.rows_py()
        batch = _seeded_batch(net, 300, 9)
        for max_hops in (router._default_max_hops, 3):
            assert _packed_fields(
                _walk_three_ways(patched, batch, max_hops)) == \
                _packed_fields(_walk_three_ways(fresh, batch, max_hops))
