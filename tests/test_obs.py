"""Unit and integration tests for the telemetry layer (repro.obs)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    EventLevel,
    EventLog,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    PhaseTimer,
    render_prometheus,
    timed,
    to_json,
    write_json,
)


@pytest.fixture
def registry():
    """A fresh enabled registry installed as the process default,
    restored afterwards so tests never leak telemetry state."""
    reg = MetricsRegistry()
    previous = obs.set_default_registry(reg)
    yield reg
    obs.set_default_registry(previous)


class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_same_name_same_instrument(self, registry):
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_labels_partition_series(self, registry):
        registry.counter("x", kind="a").inc()
        registry.counter("x", kind="b").inc(5)
        assert registry.counter("x", kind="a").value == 1
        assert registry.counter("x", kind="b").value == 5


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10)
        g.inc()
        g.dec(4)
        assert g.value == 7


class TestHistogram:
    def test_bucket_counts_cumulative_semantics(self, registry):
        h = registry.histogram("h", buckets=(1, 5, 10))
        for v in (0.5, 3, 7, 20):
            h.observe(v)
        assert h.bucket_counts() == [1, 1, 1, 1]  # +Inf last
        assert h.count == 4
        assert h.sum == pytest.approx(30.5)

    def test_percentiles(self, registry):
        h = registry.histogram("h", buckets=(50, 100))
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(0.50) == 50
        assert h.percentile(0.90) == 90
        assert h.percentile(0.99) == 99

    def test_summary_fields(self, registry):
        h = registry.histogram("h", buckets=(10,))
        h.observe(2)
        h.observe(8)
        s = h.summary()
        assert s["count"] == 2
        assert s["min"] == 2
        assert s["max"] == 8
        assert s["mean"] == 5
        assert s["p50"] is not None

    def test_empty_summary_is_none(self, registry):
        s = registry.histogram("h").summary()
        assert s["count"] == 0
        assert s["p99"] is None

    def test_reservoir_is_bounded(self):
        h = Histogram("h", buckets=(1,), reservoir_size=16)
        for v in range(1000):
            h.observe(v)
        assert h.count == 1000
        assert len(h._reservoir) == 16

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(5, 5))


class TestDisabledRegistry:
    def test_disabled_returns_null_instrument(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("x") is NULL_INSTRUMENT
        assert reg.gauge("x") is NULL_INSTRUMENT
        assert reg.histogram("x") is NULL_INSTRUMENT

    def test_null_instrument_absorbs_everything(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("x").inc()
        reg.gauge("x").set(3)
        reg.histogram("x").observe(1.0)
        reg.event("something", detail=1)
        assert reg.to_dict()["counters"] == []
        assert len(reg.event_log) == 0

    def test_default_registry_starts_disabled(self):
        # The process-wide default must not collect unless opted in.
        assert obs.default_registry().enabled in (False, True)
        fresh = MetricsRegistry(enabled=False)
        assert not fresh.enabled

    def test_enable_disable_round_trip(self):
        previous = obs.set_default_registry(
            MetricsRegistry(enabled=False))
        try:
            assert not obs.default_registry().enabled
            obs.enable()
            assert obs.default_registry().enabled
            obs.disable()
            assert not obs.default_registry().enabled
        finally:
            obs.set_default_registry(previous)


class TestPhaseTimer:
    def test_records_into_histogram(self, registry):
        with registry.timer("phase.sleepless"):
            sum(range(1000))
        h = registry.lookup("histogram", "phase.sleepless")
        assert h is not None
        assert h.count == 1
        assert h.sum >= 0

    def test_elapsed_exposed(self, registry):
        with registry.timer("phase.t") as t:
            pass
        assert t.elapsed is not None and t.elapsed >= 0

    def test_disabled_timer_never_records(self):
        reg = MetricsRegistry(enabled=False)
        with PhaseTimer(reg, "phase.off") as t:
            pass
        assert t.elapsed is None
        assert reg.to_dict()["histograms"] == []

    def test_timed_decorator(self, registry):
        @timed("phase.fn")
        def work(a, b):
            return a + b

        assert work(2, 3) == 5
        h = registry.lookup("histogram", "phase.fn")
        assert h.count == 1

    def test_records_even_when_body_raises(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timer("phase.err"):
                raise RuntimeError("boom")
        assert registry.lookup("histogram", "phase.err").count == 1


class TestEventLog:
    def test_levels_and_filtering(self):
        log = EventLog(clock=lambda: 1.0)
        log.debug("d")
        log.info("i", a=1)
        log.warning("w")
        log.error("e")
        assert len(log) == 4
        assert [e.name for e in
                log.events(min_level=EventLevel.WARNING)] == ["w", "e"]
        assert log.events(name="i")[0].fields == {"a": 1}

    def test_min_level_drops_below(self):
        log = EventLog(min_level=EventLevel.WARNING)
        log.info("ignored")
        log.error("kept")
        assert [e.name for e in log.events()] == ["kept"]

    def test_bounded_capacity(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.info(f"e{i}")
        assert len(log) == 3
        assert log.dropped == 7
        assert [e.name for e in log.events()] == ["e7", "e8", "e9"]

    def test_jsonl_round_trip(self):
        log = EventLog(clock=lambda: 2.5)
        log.info("placed", data_id="a", hops=3)
        lines = log.to_jsonl().splitlines()
        record = json.loads(lines[0])
        assert record["event"] == "placed"
        assert record["hops"] == 3
        assert record["level"] == "info"
        assert record["ts"] == 2.5

    def test_write_to_file(self, tmp_path):
        log = EventLog()
        log.info("one")
        log.info("two")
        path = tmp_path / "events.jsonl"
        assert log.write(str(path)) == 2
        assert len(path.read_text().splitlines()) == 2

    def test_clear_resets_sequence(self):
        log = EventLog()
        log.info("a")
        log.clear()
        log.info("b")
        assert log.events()[0].sequence == 0


class TestExporters:
    def _populated(self, registry):
        registry.counter("reqs", kind="read").inc(4)
        registry.gauge("load").set(2)
        h = registry.histogram("lat", buckets=(1, 10))
        h.observe(0.5)
        h.observe(5)
        h.observe(50)
        return registry

    def test_prometheus_text(self, registry):
        text = render_prometheus(self._populated(registry))
        assert '# TYPE gred_reqs counter' in text
        assert 'gred_reqs{kind="read"} 4' in text
        assert "# TYPE gred_load gauge" in text
        assert 'gred_lat_bucket{le="1"} 1' in text
        assert 'gred_lat_bucket{le="10"} 2' in text
        assert 'gred_lat_bucket{le="+Inf"} 3' in text
        assert "gred_lat_count 3" in text
        assert "p50=" in text

    def test_json_dump_and_rerender(self, registry, tmp_path):
        self._populated(registry)
        path = tmp_path / "m.json"
        write_json(registry, str(path))
        dump = obs.load_json(str(path))
        assert dump["format"] == "gred-metrics-v1"
        # Rendering from the dump equals rendering from the registry.
        assert render_prometheus(dump) == render_prometheus(registry)

    def test_to_json_parses(self, registry):
        data = json.loads(to_json(self._populated(registry)))
        assert data["counters"][0]["value"] == 4

    def test_load_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "metrics"}')
        with pytest.raises(ValueError):
            obs.load_json(str(path))


class TestCountingTracer:
    def test_bridges_trace_events_to_counters(self, registry,
                                              gred_small):
        tracer = obs.CountingTracer(registry)
        from repro.dataplane import route_packet, Packet, PacketKind
        from repro.hashing import data_position

        packet = Packet(kind=PacketKind.RETRIEVAL, data_id="t",
                        position=data_position("t"))
        route_packet(gred_small.controller.switches, 0, packet,
                     tracer=tracer)
        deliver = registry.lookup(
            "counter", "dataplane.trace_events", kind="deliver")
        assert deliver is not None and deliver.value == 1
        ingress = registry.lookup(
            "counter", "dataplane.trace_events", kind="ingress")
        assert ingress.value == 1
        assert len(tracer.events()) >= 2  # still a full Tracer


class TestEndToEndInstrumentation:
    def test_network_lifecycle_populates_registry(self, registry):
        from repro import GredNetwork, attach_uniform, \
            brite_waxman_graph

        topo, _ = brite_waxman_graph(
            12, min_degree=3, rng=np.random.default_rng(3))
        net = GredNetwork(topo, attach_uniform(topo.nodes(), 2),
                          cvt_iterations=5, seed=0)
        net.place("it-1", payload=b"0123456789", entry_switch=0)
        found = net.retrieve("it-1", entry_switch=5)
        assert found.found
        net.retrieve("missing", entry_switch=1)
        net.delete("it-1")
        net.record_load_gauges()

        dump = registry.to_dict()
        counters = {c["name"]: c["value"] for c in dump["counters"]
                    if not c["labels"]}
        assert counters["core.places"] == 1
        assert counters["core.retrieves"] == 1
        assert counters["core.retrieve_misses"] == 1
        assert counters["core.deletes"] == 1
        assert counters["controlplane.recomputes"] == 1
        assert counters["controlplane.rules_installed"] > 0
        hists = {h["name"]: h for h in dump["histograms"]}
        for phase in ("controlplane.phase.m_position",
                      "controlplane.phase.c_regulation",
                      "controlplane.phase.dt_build",
                      "controlplane.phase.rule_install"):
            assert hists[phase]["count"] >= 1
        assert hists["dataplane.hops_per_request"]["count"] >= 3
        assert hists["core.payload_bytes"]["p50"] == 10
        gauges = {(g["name"], tuple(sorted(g["labels"].items())))
                  for g in dump["gauges"]}
        assert ("edge.stored_items", ()) in {
            (n, l) for n, l in gauges}

    def test_churn_counters_and_events(self, registry):
        from repro import GredNetwork, attach_uniform, \
            brite_waxman_graph

        topo, _ = brite_waxman_graph(
            10, min_degree=3, rng=np.random.default_rng(1))
        net = GredNetwork(topo, attach_uniform(topo.nodes(), 2),
                          cvt_iterations=0, seed=0)
        net.add_switch(99, links=[0, 1], servers_per_switch=2)
        names = [e.name for e in registry.event_log.events()]
        assert "switch_join" in names
        joins = registry.lookup("counter",
                                   "controlplane.switch_joins")
        assert joins.value == 1

    def test_packet_sim_metrics(self, registry):
        from repro import GredNetwork, attach_uniform, \
            brite_waxman_graph
        from repro.simulation import PacketLevelSimulator
        from repro.workloads import RetrievalRequest

        topo, _ = brite_waxman_graph(
            10, min_degree=3, rng=np.random.default_rng(2))
        net = GredNetwork(topo, attach_uniform(topo.nodes(), 2),
                          cvt_iterations=0, seed=0)
        trace = [RetrievalRequest(time=i * 1e-5, data_id=f"d{i}",
                                  entry_switch=i % 10)
                 for i in range(20)]
        sim = PacketLevelSimulator(net)
        sim.run(trace)
        completed = registry.lookup(
            "counter", "simulation.packets_completed")
        assert completed.value == 20
        inflight = registry.lookup(
            "gauge", "simulation.inflight_packets")
        assert inflight.value == 0
        delays = registry.lookup(
            "histogram", "simulation.response_delay_seconds")
        assert delays.count == 20


class TestObserveMany:
    def test_matches_sequential_observation_exactly(self, registry):
        batch = registry.histogram("h.batch", buckets=(1, 2, 4, 8))
        scalar = registry.histogram("h.scalar", buckets=(1, 2, 4, 8))
        values = [0, 1, 1, 2, 3, 4, 5, 8, 9, 100]
        batch.observe_many(values)
        for value in values:
            scalar.observe(value)
        batch_dump = batch.to_dict()
        scalar_dump = scalar.to_dict()
        batch_dump.pop("name"), scalar_dump.pop("name")
        assert batch_dump == scalar_dump

    def test_empty_batch_is_a_noop(self, registry):
        hist = registry.histogram("h", buckets=(1, 2))
        hist.observe_many([])
        assert hist.count == 0

    def test_reservoir_preserves_order(self, registry):
        hist = registry.histogram("h", buckets=(10,))
        hist.observe_many([3, 1, 2])
        hist.observe(4)
        assert hist.to_dict()["count"] == 4

    def test_null_instrument_accepts_batches(self):
        NULL_INSTRUMENT.observe_many([1, 2, 3])  # no-op, no error


class TestEventLogDropCounter:
    def test_ring_wrap_increments_dropped_counter(self):
        registry = MetricsRegistry(event_capacity=2)
        for i in range(5):
            registry.event("e", i=i)
        assert registry.event_log.dropped == 3
        counter = registry.lookup("counter", "obs.eventlog.dropped")
        assert counter.value == 3
        assert registry.to_dict()["events_dropped"] == 3

    def test_no_counter_until_a_drop_happens(self):
        registry = MetricsRegistry(event_capacity=8)
        registry.event("e")
        assert registry.lookup("counter", "obs.eventlog.dropped") \
            is None


class TestQuantileExport:
    def test_histogram_quantile_interpolates(self):
        # 10 observations in (0, 1], 10 in (1, 2]
        value = obs.histogram_quantile([1.0, 2.0], [10, 10, 0], 0.75)
        assert value == pytest.approx(1.5)

    def test_quantile_in_inf_bucket_clamps(self):
        assert obs.histogram_quantile([1.0, 2.0], [0, 0, 5], 0.99) \
            == 2.0

    def test_empty_histogram_is_none(self):
        assert obs.histogram_quantile([1.0], [0, 0], 0.5) is None

    def test_dump_quantiles_reads_saved_dumps(self, registry):
        hist = registry.histogram("lat", buckets=(1, 2, 4))
        hist.observe_many([1, 1, 2, 2, 4, 4, 4, 4])
        quantiles = obs.dump_quantiles(registry, "lat",
                                       quantiles=(0.5,))
        assert quantiles["q50"] == pytest.approx(2.0)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            obs.histogram_quantile([1.0], [1, 0], 1.5)


class TestBurnRate:
    def test_exact_budget_burn_is_one(self):
        assert obs.burn_rate(1, 100, 0.99) == pytest.approx(1.0)

    def test_over_budget(self):
        assert obs.burn_rate(5, 100, 0.99) == pytest.approx(5.0)

    def test_zero_total_is_zero(self):
        assert obs.burn_rate(0, 0, 0.99) == 0.0

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            obs.burn_rate(1, 10, 1.0)


class TestPhaseTimerNesting:
    def test_reentrant_timer_does_not_double_count(self, registry):
        timer = PhaseTimer(registry, "phase.recurse")
        with timer:
            with timer:
                pass
        hist = registry.lookup("histogram", "phase.recurse")
        assert hist.count == 2
        # the inner timing must not clobber the outer start: the
        # second recorded duration (outer) covers the first (inner)
        assert hist.to_dict()["max"] >= hist.to_dict()["min"]

    def test_recursive_decorated_function(self, registry):
        @timed("phase.fib")
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        assert fib(5) == 5
        hist = registry.lookup("histogram", "phase.fib")
        assert hist.count == 15  # one observation per call

    def test_disabled_registry_stays_paired(self):
        registry = MetricsRegistry(enabled=False)
        timer = PhaseTimer(registry, "phase.off")
        with timer:
            with timer:
                pass
        assert timer.elapsed is None
        assert registry.lookup("histogram", "phase.off") is None


class TestDemandTracker:
    def test_scalar_and_batch_recording_agree(self):
        a, b = obs.DemandTracker(), obs.DemandTracker()
        for item in ("x", "y", "x"):
            a.record(item)
        b.record_many(["x", "y", "x"])
        assert a.counts() == b.counts() == {"x": 2, "y": 1}
        assert a.total == 3 and a.unique_items == 2

    def test_top_is_deterministic(self):
        tracker = obs.DemandTracker()
        tracker.record_many(["b", "a", "c", "a", "b"])
        assert tracker.top(2) == [("a", 2), ("b", 2)]

    def test_registry_reset_clears_demand(self, registry):
        registry.demand.record("item")
        registry.reset()
        assert registry.demand.total == 0

    def test_demand_region_grid(self):
        assert obs.demand_region(0.0, 0.0) == 0
        assert obs.demand_region(0.99, 0.99) == \
            obs.DEMAND_GRID * obs.DEMAND_GRID - 1
        # out-of-range clamps to edge cells
        assert obs.demand_region(-1.0, 2.0) == \
            (obs.DEMAND_GRID - 1) * obs.DEMAND_GRID


def _small_net():
    from repro import GredNetwork, attach_uniform, brite_waxman_graph

    topo, _ = brite_waxman_graph(
        16, min_degree=3, rng=np.random.default_rng(5))
    return GredNetwork(topo, attach_uniform(topo.nodes(), 2),
                       cvt_iterations=5, seed=0)


class TestInstrumentFamily:
    def test_child_is_the_getter_instrument(self, registry):
        transits = registry.family("counter", "t.transits", "switch")
        child = transits[5]
        assert child is registry.counter("t.transits", switch=5)
        assert child is registry.counter("t.transits", switch="5")
        assert transits["5"] is child
        assert transits[6] is not child
        assert child.labels == (("switch", "5"),)

    def test_two_label_gauge_child(self, registry):
        load = registry.family("gauge", "t.load", ("switch", "serial"))
        child = load[3, 1]
        assert child is registry.gauge("t.load", switch=3, serial=1)
        assert child is registry.gauge("t.load", serial="1",
                                       switch="3")
        assert load["3", "1"] is child
        assert load[1, 3] is not child

    def test_family_is_cached_and_lazy(self, registry):
        a = registry.family("counter", "t.lazy", "region")
        assert registry.family("counter", "t.lazy", "region") is a
        # No instrument exists until a label value is used.
        assert registry.lookup("counter", "t.lazy", region=0) is None
        assert registry.to_dict()["counters"] == []

    def test_inc_counts_matches_getter_emission(self, registry):
        other = obs.MetricsRegistry()
        counts = np.bincount([4, 1, 4, 9, 4])
        nonzero = np.flatnonzero(counts)
        registry.family("counter", "t.c", "switch").inc_counts(
            nonzero.tolist(), counts[nonzero].tolist())
        for sid in nonzero.tolist():
            other.counter("t.c", switch=sid).inc(int(counts[sid]))
        assert registry.to_dict(include_events=False) == \
            other.to_dict(include_events=False)
        assert registry.counter_values() == {
            "t.c{switch=1}": 1.0, "t.c{switch=4}": 3.0,
            "t.c{switch=9}": 1.0}

    def test_histogram_family_rejected(self, registry):
        with pytest.raises(ValueError, match="histogram"):
            registry.family("histogram", "t.h", "switch")

    def test_reset_drops_cached_children(self, registry):
        old = registry.family("counter", "t.r", "switch")
        old[2].inc(5)
        registry.reset()
        fresh = registry.family("counter", "t.r", "switch")
        assert fresh is not old
        fresh[2].inc()
        assert registry.counter_values() == {"t.r{switch=2}": 1.0}
        assert fresh[2] is registry.counter("t.r", switch=2)

    def test_disabled_registry_creates_no_family(self):
        reg = MetricsRegistry(enabled=False)
        family = reg.family("counter", "t.off", "switch")
        assert family is obs.NULL_FAMILY
        assert family[3] is NULL_INSTRUMENT
        family.inc_counts([1, 2], [3, 4])
        family[3].inc()
        assert reg.to_dict()["counters"] == []
        # Enabling later hands out a real family, still lazy.
        reg.enabled = True
        live = reg.family("counter", "t.off", "switch")
        assert isinstance(live, obs.InstrumentFamily)
        assert reg.to_dict()["counters"] == []

    def test_batches_after_reset_or_swap_use_fresh_instruments(self):
        """Families cached by one batch never leak into the next
        registry (swap) or past a reset: the second batch's telemetry
        equals what a fresh registry records for it alone."""
        ids = [f"fam/{i}" for i in range(40)]
        first, second = ids[:20], ids[20:]

        def batch(net, chunk, seed):
            net.place_many(chunk, payloads=chunk, copies=2,
                           rng=np.random.default_rng(seed))
            net.retrieve_many(chunk, copies=2,
                              rng=np.random.default_rng(seed + 1))

        def labelled(reg):
            dump = reg.to_dict(include_events=False)
            return {kind: [e for e in dump[kind] if e["labels"]]
                    for kind in ("counters", "gauges")}

        expected = MetricsRegistry()
        net = _small_net()
        previous = obs.set_default_registry(MetricsRegistry())
        try:
            batch(net, first, 1)
            obs.set_default_registry(expected)
            batch(net, second, 3)

            net = _small_net()
            reg_a = MetricsRegistry()
            obs.set_default_registry(reg_a)
            batch(net, first, 1)
            before = reg_a.to_dict(include_events=False)
            reg_b = MetricsRegistry()
            obs.set_default_registry(reg_b)
            batch(net, second, 3)
            # The swapped-out registry saw nothing of the second batch.
            assert reg_a.to_dict(include_events=False) == before
            assert labelled(reg_b) == labelled(expected)

            net = _small_net()
            reg_c = MetricsRegistry()
            obs.set_default_registry(reg_c)
            batch(net, first, 1)
            reg_c.reset()
            batch(net, second, 3)
            assert labelled(reg_c) == labelled(expected)
        finally:
            obs.set_default_registry(previous)
