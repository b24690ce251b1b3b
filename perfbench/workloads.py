"""The benchmark's three traffic mixes.

Each workload is a closed loop: one caller in one thread issues a call
through a public facade, waits for the reply, checks it and issues the
next.  A workload has four steps:

* ``inputs(seed, seconds)`` generates ids, payloads, entry switches and
  the op sequence from the seed, before anything is timed;
* ``build(inputs)`` is the timed set-up: topology, deployment (MDS,
  CVT, DT, rules) and catalog preload;
* ``drive(state, inputs, rec)`` is the timed traffic; every call goes
  through ``Recorder.call`` and every output is checked against the
  benchmark's own oracle;
* ``verify(state, inputs, rec)`` re-reads the final catalog, untimed:
  live items must come back with their payloads, deleted ones must not.

The deployment is fixed (``TOPOLOGY_SEED``); ``--seed`` varies only the
traffic, so two seeds measure the same system under different inputs.
``--seconds`` scales the amount of work: each workload issues
``seconds`` times its nominal per-second volume.  On a 2-core x86-64
host the timed traffic of ``uniform-bulk`` and ``federated-churn``
lasts about ``seconds``; ``zipf-mixed`` runs about twice as long, so
that at 16 it still makes the 1000 rounds p99 needs.  The work is fixed
per seed, so the hop and load metrics repeat exactly.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter, process_time

import numpy as np

from hostspeed import HostSpeed
from repro import GredNetwork, attach_uniform, brite_waxman_graph, obs
from repro.controlplane.federation import FederatedNetwork
from repro.core import GredError
from repro.dataplane import ForwardingError
from repro.edge.server import StorageFull

TOPOLOGY_SEED = 2019
DEPLOY_SEED = 0
SERVERS_PER_SWITCH = 4
CVT_ITERATIONS = 20
#: What counts as a failed operation when raised.
ERRORS = (GredError, StorageFull, ForwardingError)


class Recorder:
    """One timed pass: per-call start times, wall and CPU seconds and op
    counts per op type, host-speed probes between calls, the
    output-check tally, and the (entry, copy) keys of every replica
    request for the repeat-share report."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.speed = HostSpeed()
        self.started = defaultdict(list)
        self.latency = defaultdict(list)
        self.cpu = defaultdict(list)
        self.ops = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.rtt_hops = 0
        self.retrievals = 0
        self.calls = 0
        self.key_hash = array("q")
        self.key_batch = array("i")

    def call(self, op: str, n: int, fn, *args, **kwargs):
        """Time one call of ``n`` ops; ``None`` when it raised."""
        self.speed.maybe_probe()
        tracer = self.tracer
        if tracer is not None:
            tracer.request = self.calls
            span = tracer.begin(tracer.name_id("op." + op))
        self.attempted += n
        result = None
        start = perf_counter()
        cpu_start = process_time()
        try:
            result = fn(*args, **kwargs)
        except ERRORS as exc:
            self.fail(n, f"{op}: {type(exc).__name__}: {exc}")
        cpu = process_time() - cpu_start
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end(span)
            tracer.request = -1
        self.calls += 1
        self.started[op].append(start)
        self.latency[op].append(elapsed)
        self.cpu[op].append(cpu)
        self.ops[op] += n
        return result

    def normalized(self, op: str) -> np.ndarray:
        """Per-call seconds of ``op`` at the reference host speed: the
        CPU time each call took, scaled by the probes around it (see
        ``hostspeed``)."""
        lat = np.asarray(self.latency[op])
        return np.asarray(self.cpu[op]) * self.speed.scale(
            self.started[op], lat)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(why)

    def keys(self, entries, ids, copies) -> None:
        """Record one batch of replica requests: item ``ids[i]``'s copy
        ``copies[i]`` (an int, or one list per item) from
        ``entries[i]``."""
        batch = self.calls
        for entry, data_id, cs in zip(entries, ids, copies):
            for c in (cs if isinstance(cs, range) else (cs,)):
                self.key_hash.append(hash((entry, data_id, c)))
                self.key_batch.append(batch)

    def check_places(self, results, ids, copies: int) -> None:
        if results is None:
            return
        bad = abs(len(results) - len(ids))
        for r, data_id in zip(results, ids):
            if r.data_id != data_id or len(r.records) != copies:
                bad += 1
        if bad:
            self.fail(bad, f"{bad} placements with wrong records")

    def check_reads(self, results, ids, payloads, entries) -> None:
        """Live items: each must be found with its payload."""
        if results is None:
            return
        bad = abs(len(results) - len(ids))
        for r, data_id, payload in zip(results, ids, payloads):
            if (not r.found or r.data_id != data_id
                    or r.payload != payload):
                bad += 1
            else:
                self.rtt_hops += r.request_hops + r.response_hops
                self.retrievals += 1
        if bad:
            self.fail(bad, f"{bad} retrievals missed or wrong")
        self.keys(entries, ids, [r.copy_used for r in results])

    def repeat_shares(self) -> dict:
        """Share of replica requests whose (entry, copy id) key occurred
        earlier in the same batch, in an earlier batch, or anywhere
        earlier (what a perfect route cache could reuse)."""
        k = np.frombuffer(self.key_hash, dtype=np.int64)
        b = np.frombuffer(self.key_batch, dtype=np.int32)
        if k.size == 0:
            return {"within_batch": 0.0, "across_batches": 0.0,
                    "any_earlier": 0.0, "requests": 0}
        order = np.lexsort((np.arange(k.size), k))
        ks, bs = k[order], b[order]
        new_key = np.r_[True, ks[1:] != ks[:-1]]
        first_batch = bs[new_key][np.cumsum(new_key) - 1]
        new_pair = new_key | np.r_[True, bs[1:] != bs[:-1]]
        return {
            "within_batch": float(np.mean(~new_pair)),
            "across_batches": float(np.mean(first_batch < bs)),
            "any_earlier": float(np.mean(~new_key)),
            "requests": int(k.size),
        }


def _waxman(n: int):
    topology, _ = brite_waxman_graph(
        n, min_degree=3, rng=np.random.default_rng(TOPOLOGY_SEED))
    return topology


def _ids(rng, prefix: str, n: int):
    tags = rng.integers(0, 2 ** 62, size=n).tolist()
    return [f"{prefix}{tag:x}-{i}" for i, tag in enumerate(tags)]


def _payloads(rng, n: int, size: int):
    blob = rng.bytes(n * size)
    return [blob[i * size:(i + 1) * size] for i in range(n)]


class Workload:
    """Defaults for the optional steps of a workload."""

    def prepare(self, state: dict, inputs: dict) -> None:
        """Untimed work between set-up and traffic."""

    def verify(self, state: dict, inputs: dict, rec: Recorder) -> None:
        """Untimed re-read of the final catalog."""

    def cross_region_share(self, state: dict, inputs: dict) -> float:
        return 0.0

    def teardown(self, state: dict) -> None:
        """Undo process-wide changes ``build`` made."""


class UniformBulk(Workload):
    """Distinct random ids placed in fixed-size batches from uniformly
    random entry switches, then all read back from fresh uniformly
    random entries: no (entry, id) key repeats, so route reuse has
    nothing to reuse."""

    name = "uniform-bulk"
    switches = 500
    # At 64 items a call each op makes ~2500 calls a run, so the few
    # that absorb a gen-2 collection stay far inside the top 1% and p99
    # reads the regular tail rather than the edge between the two.
    batch = 64
    copies = 1
    #: Items placed (and read back) per ``--seconds``.
    items_per_second = 8_000
    warm_items = 4_096

    def inputs(self, seed: int, seconds: int) -> dict:
        rng = np.random.default_rng(seed)
        batches = max(1, round(seconds * self.items_per_second
                               / self.batch))
        n = batches * self.batch
        return {
            "ids": _ids(rng, "u", n),
            "payloads": _payloads(rng, n, 16),
            "place_entries": rng.integers(0, self.switches, n).tolist(),
            "read_entries": rng.integers(0, self.switches, n).tolist(),
            "warm_ids": _ids(rng, "w", self.warm_items),
        }

    def build(self, inputs: dict) -> dict:
        topology = _waxman(self.switches)
        net = GredNetwork(
            topology,
            attach_uniform(topology.nodes(), SERVERS_PER_SWITCH),
            cvt_iterations=CVT_ITERATIONS, seed=DEPLOY_SEED)
        return {"net": net}

    def prepare(self, state: dict, inputs: dict) -> None:
        """Untimed warm-up: the first batch calls compile the router
        and fill the per-switch hop-distance cache, a one-time cost per
        control-plane epoch that would otherwise sit in the p99 of a
        run without churn."""
        net = state["net"]
        ids = inputs["warm_ids"]
        entries = [i % self.switches for i in range(len(ids))]
        for lo in range(0, len(ids), self.batch):
            net.place_many(ids[lo:lo + self.batch],
                           entry_switches=entries[lo:lo + self.batch])
        for lo in range(0, len(ids), self.batch):
            net.retrieve_many(ids[lo:lo + self.batch],
                              entry_switches=entries[lo:lo + self.batch])

    def drive(self, state: dict, inputs: dict, rec: Recorder) -> None:
        net = state["net"]
        ids, payloads = inputs["ids"], inputs["payloads"]
        step = self.batch
        all_copies = [range(self.copies)] * step
        for lo in range(0, len(ids), step):
            batch_ids = ids[lo:lo + step]
            entries = inputs["place_entries"][lo:lo + step]
            res = rec.call("place", len(batch_ids), net.place_many,
                           batch_ids, payloads[lo:lo + step],
                           entry_switches=entries)
            rec.check_places(res, batch_ids, self.copies)
            rec.keys(entries, batch_ids, all_copies)
        for lo in range(0, len(ids), step):
            batch_ids = ids[lo:lo + step]
            entries = inputs["read_entries"][lo:lo + step]
            res = rec.call("retrieve", len(batch_ids), net.retrieve_many,
                           batch_ids, entry_switches=entries)
            rec.check_reads(res, batch_ids, payloads[lo:lo + step],
                            entries)

    # ``verify`` is the default no-op: every placed item was read back
    # inside the timed traffic.


class ZipfMixed(Workload):
    """The skewed, access-local serving mix on a rolling catalog:
    reads follow Zipf(1.2) over recency rank from 50 access switches,
    so (entry, item) keys repeat within and across batches, while
    writes and deletes run beside the reads."""

    name = "zipf-mixed"
    switches = 500
    copies = 2
    catalog = 20_000
    access = 50
    reads = 450
    writes = 50
    zipf_s = 1.2
    payload_bytes = 64
    # At --seconds 16 a run makes 1008 rounds: at least 1000 calls of
    # each op, so each op's p99 has ten samples beyond it.
    rounds_per_second = 63

    def inputs(self, seed: int, seconds: int) -> dict:
        rng = np.random.default_rng(seed)
        rounds = max(1, seconds * self.rounds_per_second)
        n = self.catalog + rounds * self.writes
        access = rng.choice(self.switches, self.access,
                            replace=False).tolist()
        weights = np.arange(1, self.catalog + 1,
                            dtype=np.float64) ** -self.zipf_s
        ranks = rng.choice(self.catalog, size=(rounds, self.reads),
                           p=weights / weights.sum())

        def entries(shape):
            return np.asarray(access)[rng.integers(0, self.access,
                                                   shape)].tolist()

        return {
            "rounds": rounds,
            "ids": _ids(rng, "z", n),
            "payloads": _payloads(rng, n, self.payload_bytes),
            "preload_entries": entries(self.catalog),
            "ranks": ranks.tolist(),
            "read_entries": entries((rounds, self.reads)),
            "write_entries": entries((rounds, self.writes)),
            "delete_entries": entries((rounds, self.writes)),
            "access": access,
        }

    def build(self, inputs: dict) -> dict:
        previous = obs.set_default_registry(obs.MetricsRegistry())
        topology = _waxman(self.switches)
        net = GredNetwork(
            topology,
            attach_uniform(topology.nodes(), SERVERS_PER_SWITCH),
            cvt_iterations=CVT_ITERATIONS, seed=DEPLOY_SEED)
        c = self.catalog
        net.place_many(inputs["ids"][:c], inputs["payloads"][:c],
                       entry_switches=inputs["preload_entries"],
                       copies=self.copies)
        return {"net": net, "previous_registry": previous}

    def drive(self, state: dict, inputs: dict, rec: Recorder) -> None:
        net = state["net"]
        ids, payloads = inputs["ids"], inputs["payloads"]
        copies = self.copies
        all_copies = range(copies)
        lo, hi = 0, self.catalog  # live window: ids[lo:hi], newest last
        for r in range(inputs["rounds"]):
            picks = [hi - 1 - k for k in inputs["ranks"][r]]
            read_ids = [ids[i] for i in picks]
            entries = inputs["read_entries"][r]
            res = rec.call("retrieve", len(read_ids), net.retrieve_many,
                           read_ids, entry_switches=entries,
                           copies=copies)
            rec.check_reads(res, read_ids, [payloads[i] for i in picks],
                            entries)

            new_ids = ids[hi:hi + self.writes]
            entries = inputs["write_entries"][r]
            res = rec.call("place", len(new_ids), net.place_many,
                           new_ids, payloads[hi:hi + self.writes],
                           entry_switches=entries, copies=copies)
            rec.check_places(res, new_ids, copies)
            rec.keys(entries, new_ids, [all_copies] * len(new_ids))
            hi += self.writes

            for data_id, entry in zip(ids[lo:lo + self.writes],
                                      inputs["delete_entries"][r]):
                removed = rec.call("delete", 1, net.delete, data_id,
                                   copies=copies, entry_switch=entry)
                if removed is not None and removed != copies:
                    rec.fail(1, f"delete removed {removed} of {copies}")
            lo += self.writes
        state["live"] = (lo, hi)

    def verify(self, state: dict, inputs: dict, rec: Recorder) -> None:
        net = state["net"]
        ids, payloads = inputs["ids"], inputs["payloads"]
        lo, hi = state["live"]
        access = inputs["access"]
        live = ids[lo:hi]
        results = net.retrieve_many(
            live, entry_switches=[access[i % len(access)]
                                  for i in range(len(live))],
            copies=self.copies)
        bad = sum(1 for r, p in zip(results, payloads[lo:hi])
                  if not r.found or r.payload != p)
        if bad:
            rec.fail(bad, f"verify: {bad} live items lost")
        # Every tenth deleted item: a miss probes every copy, so the
        # full set would cost more than the rest of the check.
        gone = ids[0:lo:10]
        results = net.retrieve_many(
            gone, entry_switches=[access[i % len(access)]
                                  for i in range(len(gone))],
            copies=self.copies)
        bad = sum(1 for r in results if r.found)
        if bad:
            rec.fail(bad, f"verify: {bad} deleted items found")

    def teardown(self, state: dict) -> None:
        obs.set_default_registry(state["previous_registry"])


class FederatedChurn(Workload):
    """Single requests through the federation while switches join and
    leave: the single-request engine, cross-region stitching and the
    incremental control plane do the work; the batch router, the route
    cache and telemetry do none."""

    name = "federated-churn"
    switches = 1000
    regions = 4
    catalog = 20_000
    period = 200
    join_links = 3
    payload_bytes = 16
    periods_per_second = 3
    first_joiner = 1_000_000

    def inputs(self, seed: int, seconds: int) -> dict:
        rng = np.random.default_rng(seed)
        periods = max(1, seconds * self.periods_per_second)
        requests = periods * self.period
        places = requests // 2
        n = self.catalog + places
        # Request k (odd k are reads) sees catalog + ceil(k/2) live
        # items; draw a uniform index below that count.
        live_at = self.catalog + (np.arange(requests) + 1) // 2
        picks = (rng.random(requests) * live_at).astype(np.int64)
        return {
            "periods": periods,
            "ids": _ids(rng, "f", n),
            "payloads": _payloads(rng, n, self.payload_bytes),
            "preload_draws": rng.random(self.catalog).tolist(),
            "entries": rng.integers(0, self.switches, requests).tolist(),
            "picks": picks.tolist(),
            "join_regions": rng.integers(0, self.regions,
                                         periods).tolist(),
            "join_draws": rng.random((periods, self.join_links)).tolist(),
        }

    def build(self, inputs: dict) -> dict:
        topology = _waxman(self.switches)
        fed = FederatedNetwork(
            topology, num_regions=self.regions,
            servers_per_switch=SERVERS_PER_SWITCH,
            cvt_iterations=CVT_ITERATIONS, seed=DEPLOY_SEED)
        c = self.catalog
        ids = inputs["ids"][:c]
        fed.place_many(ids, inputs["payloads"][:c],
                       entry_switches=self._local_entries(
                           fed, ids, inputs["preload_draws"]))
        return {"net": fed}

    @staticmethod
    def _local_entries(fed, ids, draws):
        """An entry switch inside each item's home region (picked by
        ``draws``): the catalog is loaded and re-read region-locally,
        leaving cross-region stitching to the timed traffic."""
        members = [sorted(fed.shard(r).net.switch_ids())
                   for r in range(fed.num_regions)]
        entries = []
        for data_id, u in zip(ids, draws):
            pool = members[fed.home_region_of(data_id)]
            entries.append(pool[int(u * len(pool))])
        return entries

    def prepare(self, state: dict, inputs: dict) -> None:
        """Resolve each join's region and link peers (drawn from the
        seed) against the deployment's region members."""
        fed = state["net"]
        members = {r: sorted(fed.shard(r).net.switch_ids())
                   for r in range(fed.num_regions)}
        joins = []
        for region, draws in zip(inputs["join_regions"],
                                 inputs["join_draws"]):
            pool = list(members[region])
            links = []
            for u in draws:
                links.append(pool.pop(int(u * len(pool))))
            joins.append(links)
        state["joins"] = joins

    def drive(self, state: dict, inputs: dict, rec: Recorder) -> None:
        fed = state["net"]
        ids, payloads = inputs["ids"], inputs["payloads"]
        entries, picks = inputs["entries"], inputs["picks"]
        hi = self.catalog
        k = 0
        joined = None
        for p in range(inputs["periods"]):
            for _ in range(self.period // 2):
                entry = entries[k]
                res = rec.call("place", 1, fed.place, ids[hi],
                               payload=payloads[hi], entry_switch=entry)
                if res is not None:
                    rec.check_places([res], [ids[hi]], 1)
                rec.keys([entry], [ids[hi]], [0])
                hi += 1
                k += 1
                i = picks[k]
                entry = entries[k]
                res = rec.call("retrieve", 1, fed.retrieve, ids[i],
                               entry_switch=entry)
                if res is not None:
                    rec.check_reads([res], [ids[i]], [payloads[i]],
                                    [entry])
                k += 1
            switch = self.first_joiner + p
            if rec.call("join", 1, fed.add_switch, switch,
                        state["joins"][p],
                        servers_per_switch=SERVERS_PER_SWITCH) is None:
                continue
            if joined is not None:
                rec.call("leave", 1, fed.remove_switch, joined)
            joined = switch
        state["live"] = hi

    def verify(self, state: dict, inputs: dict, rec: Recorder) -> None:
        fed = state["net"]
        hi = state["live"]
        ids, payloads = inputs["ids"][:hi], inputs["payloads"][:hi]
        draws = inputs["preload_draws"]
        entries = self._local_entries(
            fed, ids, [draws[i % len(draws)] for i in range(hi)])
        results = fed.retrieve_many(ids, entry_switches=entries)
        bad = sum(1 for r, p in zip(results, payloads)
                  if not r.found or r.payload != p)
        if bad:
            rec.fail(bad, f"verify: {bad} live items lost")

    def cross_region_share(self, state: dict, inputs: dict) -> float:
        """Share of timed requests whose home region differs from the
        entry switch's region."""
        fed = state["net"]
        ids, entries, picks = inputs["ids"], inputs["entries"], \
            inputs["picks"]
        crossing = 0
        for k, entry in enumerate(entries):
            data_id = ids[self.catalog + k // 2] if k % 2 == 0 \
                else ids[picks[k]]
            crossing += (fed.home_region_of(data_id)
                         != fed.region_of(entry))
        return crossing / len(entries)


WORKLOADS = {w.name: w for w in (UniformBulk(), ZipfMixed(),
                                 FederatedChurn())}
