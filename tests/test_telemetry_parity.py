"""Differential check: the vectorized batch telemetry plane must
produce aggregates *identical* to a scalar-oracle run — same
instruments created, same counter/gauge values, same histogram state
(including reservoir order), same demand map."""

import numpy as np
import pytest

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from repro.obs import MetricsRegistry, set_default_registry


def _build(seed=0, switches=24, servers=2):
    topology, _ = brite_waxman_graph(
        switches, min_degree=3, rng=np.random.default_rng(seed))
    servers_map = attach_uniform(topology.nodes(),
                                 servers_per_switch=servers)
    return GredNetwork(topology, servers_map, cvt_iterations=8,
                       seed=seed)


def _workload(net, batch: bool):
    """The shared workload: placements with extensions active, a
    probe mix with misses, a cache-hit replay pass, and a tight hop
    budget that forces route failures."""
    sids = net.switch_ids()
    net.extend_range(sids[0], 0)
    net.extend_range(sids[1], 0)
    registry = MetricsRegistry(enabled=True)
    previous = set_default_registry(registry)
    try:
        ids = [f"eq/{i}" for i in range(120)]
        probe = [d for pair in zip(ids, (f"miss/{i}"
                                         for i in range(len(ids))))
                 for d in pair]
        if batch:
            net.place_many(ids, payloads=[{"k": d} for d in ids],
                           rng=np.random.default_rng(3), copies=2)
            net.retrieve_many(probe, copies=2,
                              rng=np.random.default_rng(6))
            # cache hits must replay identical telemetry
            net.retrieve_many(ids, copies=2,
                              rng=np.random.default_rng(7))
            # tight hop budget: partial decision counts on failures
            net.retrieve_many(ids, max_hops=2,
                              rng=np.random.default_rng(8))
        else:
            rng = np.random.default_rng(3)
            for data_id in ids:
                net.place(data_id, payload={"k": data_id}, copies=2,
                          rng=rng)
            rng = np.random.default_rng(6)
            for data_id in probe:
                net.retrieve(data_id, copies=2, rng=rng)
            rng = np.random.default_rng(7)
            for data_id in ids:
                net.retrieve(data_id, copies=2, rng=rng)
            rng = np.random.default_rng(8)
            for data_id in ids:
                net.retrieve(data_id, max_hops=2, rng=rng)
        return registry.to_dict(include_events=False)
    finally:
        set_default_registry(previous)


def _normalize(dump):
    """Key instruments by (name, labels); drop the batch-only extras
    (``dataplane.batch.*`` counts waves/requests the scalar path has
    no notion of)."""
    out = {}
    for kind in ("counters", "gauges", "histograms"):
        items = {}
        for entry in dump[kind]:
            if entry["name"].startswith("dataplane.batch."):
                continue
            key = (entry["name"],
                   tuple(sorted(entry["labels"].items())))
            items[key] = {k: v for k, v in entry.items()
                          if k not in ("name", "labels")}
        out[kind] = items
    out["demand"] = dump.get("demand")
    return out


class TestBatchScalarTelemetryParity:
    @pytest.fixture(scope="class")
    def dumps(self):
        scalar = _normalize(_workload(_build(), batch=False))
        batch = _normalize(_workload(_build(), batch=True))
        return scalar, batch

    def test_same_instruments_created(self, dumps):
        scalar, batch = dumps
        for kind in ("counters", "gauges", "histograms"):
            assert set(scalar[kind]) == set(batch[kind]), kind

    def test_counters_and_gauges_identical(self, dumps):
        scalar, batch = dumps
        for kind in ("counters", "gauges"):
            for key in scalar[kind]:
                assert scalar[kind][key] == batch[kind][key], key

    def test_histograms_identical_including_reservoirs(self, dumps):
        scalar, batch = dumps
        for key in scalar["histograms"]:
            assert scalar["histograms"][key] == \
                batch["histograms"][key], key

    def test_demand_map_identical(self, dumps):
        scalar, batch = dumps
        assert scalar["demand"] == batch["demand"]

    def test_engine_aggregates_are_present(self, dumps):
        scalar, _ = dumps
        names = {key[0] for key in scalar["counters"]}
        assert {"dataplane.deliveries", "dataplane.greedy_forwards",
                "dataplane.vl_starts", "dataplane.requests_routed",
                "dataplane.extension_rewrites"} <= names
        hist_names = {key[0] for key in scalar["histograms"]}
        assert "dataplane.hops_per_request" in hist_names
        assert "dataplane.overlay_hops_per_request" in hist_names


class TestRepeatedKeyTelemetry:
    def test_repeats_match_scalar_and_count_distinct_keys(self):
        """A batch routes each distinct ``(entry, copy id)`` key once,
        yet every repeat emits what the scalar loop emits; the
        batch-only ``dataplane.batch.requests`` counts distinct keys."""
        ids = [f"dup/{i}" for i in range(60)]
        probe = [ids[(i * 7) % 60] for i in range(180)]

        def run(batch):
            net = _build()
            sids = net.switch_ids()
            entries = [sids[(i * 7) % 60 % 5] for i in range(180)]
            registry = MetricsRegistry(enabled=True)
            previous = set_default_registry(registry)
            try:
                if batch:
                    net.place_many(probe, payloads=list(probe),
                                   entry_switches=entries, copies=2)
                    net.retrieve_many(probe, entry_switches=entries,
                                      copies=2)
                    net.retrieve_many(probe, entry_switches=entries,
                                      max_hops=2)
                else:
                    for d, e in zip(probe, entries):
                        net.place(d, payload=d, entry_switch=e,
                                  copies=2)
                    for d, e in zip(probe, entries):
                        net.retrieve(d, entry_switch=e, copies=2)
                    for d, e in zip(probe, entries):
                        net.retrieve(d, entry_switch=e, max_hops=2)
            finally:
                set_default_registry(previous)
            return registry, len(set(zip(entries, probe)))

        scalar, _ = run(batch=False)
        batch, keys = run(batch=True)
        assert _normalize(batch.to_dict(include_events=False)) == \
            _normalize(scalar.to_dict(include_events=False))
        assert keys < len(probe)
        # Each call routes every distinct key once: two replicas per
        # key placed, one nearest-replica round (every item is found),
        # one hop-bounded round.
        assert batch.counter_values("dataplane.batch.")[
            "dataplane.batch.requests"] == 4 * keys


class TestRepeatedBatchTelemetry:
    def test_batches_into_one_registry_match_scalar(self):
        """Several batches into the same registry reuse the families'
        cached children; the result must still equal the scalar loop,
        including the scalar-path emitters (delete, load gauges)."""
        ids = [f"rb/{i}" for i in range(90)]

        def run(batch):
            net = _build()
            sids = net.switch_ids()
            net.extend_range(sids[0], 0)
            entries = [sids[(i * 5) % len(sids)]
                       for i in range(len(ids))]
            registry = MetricsRegistry(enabled=True)
            previous = set_default_registry(registry)
            try:
                for hi in range(30, len(ids) + 1, 30):
                    chunk = slice(hi - 30, hi)
                    if batch:
                        net.place_many(ids[chunk], payloads=ids[chunk],
                                       entry_switches=entries[chunk],
                                       copies=2)
                        net.retrieve_many(ids[:hi],
                                          entry_switches=entries[:hi],
                                          copies=2)
                    else:
                        for d, e in zip(ids[chunk], entries[chunk]):
                            net.place(d, payload=d, entry_switch=e,
                                      copies=2)
                        for d, e in zip(ids[:hi], entries[:hi]):
                            net.retrieve(d, entry_switch=e, copies=2)
                    net.delete(ids[hi - 1], copies=2,
                               entry_switch=entries[0])
                net.record_load_gauges()
            finally:
                set_default_registry(previous)
            return _normalize(registry.to_dict(include_events=False))

        assert run(batch=True) == run(batch=False)


class TestLookupBudget:
    def test_warm_registry_getter_calls_do_not_scale(self, monkeypatch):
        """On a warm registry a batch resolves each labelled series
        through its family, so registry getter calls per call are a
        small constant however many switches, servers and regions the
        batch touches."""
        net = _build(switches=40)
        sids = net.switch_ids()
        calls = {"n": 0}
        for attr in ("counter", "gauge", "histogram"):
            getter = getattr(MetricsRegistry, attr)

            def counted(self, *args, _getter=getter, **kwargs):
                calls["n"] += 1
                return _getter(self, *args, **kwargs)

            monkeypatch.setattr(MetricsRegistry, attr, counted)

        def getter_calls(n):
            ids = [f"lb{n}/{i}" for i in range(n)]
            entries = [sids[(i * 7) % len(sids)] for i in range(n)]

            def batch():
                net.place_many(ids, payloads=ids,
                               entry_switches=entries, copies=2)
                net.retrieve_many(ids, entry_switches=entries,
                                  copies=2)

            batch()  # warm: first use creates the children
            calls["n"] = 0
            batch()
            touched = len(registry.counter_values(
                "dataplane.switch_transits"))
            return calls["n"], touched

        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            small, touched_small = getter_calls(4)
            large, touched_large = getter_calls(200)
        finally:
            set_default_registry(previous)
        assert touched_large > touched_small
        # Two calls: place (~10 getters) and retrieve (~12).
        assert small <= 30
        assert large == small


class TestFastPathStaysFast:
    def test_telemetry_does_not_force_scalar_fallback(self):
        from repro.dataplane import batch_fastpath_blockers

        net = _build()
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            assert batch_fastpath_blockers(net) == []
            ids = [f"fp/{i}" for i in range(64)]
            net.place_many(ids, rng=np.random.default_rng(1))
            net.retrieve_many(ids, rng=np.random.default_rng(2))
            waves = registry.counter_values("dataplane.batch.")
            assert waves.get("dataplane.batch.waves", 0) > 0
            assert waves.get("dataplane.batch.requests", 0) >= len(ids)
        finally:
            set_default_registry(previous)

    def test_standdown_reasons_are_counted(self):
        from repro.faults import FaultState

        net = _build()
        # an empty-but-present fault state still blocks the fast path
        net.fault_state = FaultState()
        registry = MetricsRegistry(enabled=True)
        previous = set_default_registry(registry)
        try:
            ids = [f"sd/{i}" for i in range(8)]
            net.place_many(ids, rng=np.random.default_rng(1))
            counts = registry.counter_values(
                "dataplane.fastpath_standdowns")
            assert counts  # at least one structured reason counter
            assert all(value >= 1 for value in counts.values())
        finally:
            net.fault_state = None
            set_default_registry(previous)


class TestBenchTelemetrySection:
    def test_report_measures_overhead_and_proves_vectorized(self):
        from repro.bench import BenchConfig, run_bench

        config = BenchConfig(switches=12, requests=80,
                             cvt_iterations=3, repeats=1)
        report = run_bench(config)
        telemetry = report["telemetry"]
        assert telemetry["vectorized"] is True
        assert telemetry["batch_waves"] > 0
        for op in ("placement", "retrieval"):
            section = telemetry[op]
            assert section["off_seconds"] > 0
            assert section["on_seconds"] > 0
            assert isinstance(section["overhead_fraction"], float)
        assert all(report["equivalence"].values())
