"""Throughput microbenchmark of the request fast path.

Backs the ``gred bench`` CLI command and
``benchmarks/bench_throughput.py``: it builds two identical deployments
from one seed, drives the same seeded workload through the scalar
per-request loop on one and the batch fast path
(:meth:`~repro.core.network.GredNetwork.place_many` /
:meth:`~repro.core.network.GredNetwork.retrieve_many`) on the other,
asserts the per-request outcomes are identical, and reports
requests/sec, p50/p99 per-operation latency, control-plane recompute
time and the telemetry-plane overhead (batch path with the metrics
registry enabled vs disabled) in a stable JSON schema
(``format: gred-bench-v1``)
suitable for committing as ``BENCH_micro.json`` and diffing across
runs.

Methodology notes:

* every timed section runs with the GC frozen so collection pauses of
  earlier rounds don't land in later ones;
* each repeat places a fresh namespace of identifiers (placement cost
  is storage-independent, so the network can be reused while the
  streams of both deployments stay in lockstep);
* throughput is the best of ``repeats`` rounds (the usual "min over
  repeats estimates the noise floor" microbenchmark convention);
* scalar p50/p99 come from per-call wall times; batch p50/p99 are
  per-call amortized (call wall time / call size), the per-request
  latency a caller batching at that granularity observes.  The default
  ``chunks = 1`` feeds each round to one ``place_many`` /
  ``retrieve_many`` call — the batch APIs' natural operating point;
  raise ``chunks`` to study smaller batch granularities (small chunks
  fall below the wave router's straggler threshold and degrade toward
  scalar cost).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class BenchConfig:
    """Workload shape for :func:`run_bench`."""

    switches: int = 200
    requests: int = 10_000
    copies: int = 1
    servers_per_switch: int = 4
    min_degree: int = 3
    cvt_iterations: int = 20
    seed: int = 0
    repeats: int = 3
    #: Number of ``place_many``/``retrieve_many`` calls the workload is
    #: split into; the per-call amortized latencies form the batch
    #: latency distribution.
    chunks: int = 1

    @classmethod
    def quick(cls) -> "BenchConfig":
        """CI smoke preset: a tiny topology and workload (~seconds)."""
        return cls(switches=24, requests=400, cvt_iterations=5,
                   repeats=2)


@dataclass
class ScalingConfig:
    """Grid for :func:`run_scaling`: switches x batch sizes x worker
    counts, with replica fan-out (``copies``) exercised throughout."""

    switches: Tuple[int, ...] = (100, 200)
    batches: Tuple[int, ...] = (2_000, 10_000)
    workers: Tuple[int, ...] = (1, 2, 4)
    copies: int = 2
    servers_per_switch: int = 4
    min_degree: int = 3
    cvt_iterations: int = 20
    seed: int = 0
    repeats: int = 2
    #: Cap on the scalar-reference workload (the reference loop is two
    #: orders of magnitude slower; its rps does not depend on how long
    #: it runs).
    reference_requests: int = 2_000

    @classmethod
    def quick(cls) -> "ScalingConfig":
        """CI smoke preset (~seconds)."""
        return cls(switches=(24,), batches=(400,), workers=(1, 2),
                   cvt_iterations=5, repeats=1,
                   reference_requests=400)


def _percentile_us(samples: List[float], q: float) -> float:
    """The ``q``-th percentile of per-op seconds, in microseconds."""
    return float(np.percentile(np.asarray(samples), q) * 1e6)


def _stats(best_seconds: float, requests: int,
           per_op_seconds: List[float]) -> Dict[str, Any]:
    return {
        "seconds": best_seconds,
        "requests_per_sec": requests / best_seconds,
        "p50_us": _percentile_us(per_op_seconds, 50.0),
        "p99_us": _percentile_us(per_op_seconds, 99.0),
    }


def _chunk_bounds(total: int, chunks: int) -> List[range]:
    chunks = max(1, min(chunks, total))
    step = total // chunks
    extra = total % chunks
    bounds = []
    start = 0
    for c in range(chunks):
        size = step + (1 if c < extra else 0)
        bounds.append(range(start, start + size))
        start += size
    return bounds


@dataclass
class _Round:
    seconds: float
    per_op: List[float] = field(default_factory=list)


def run_bench(config: Optional[BenchConfig] = None,
              scaling: Optional[ScalingConfig] = None
              ) -> Dict[str, Any]:
    """Run the fast-path benchmark; returns the report dict
    (``format: gred-bench-v1``).  When ``scaling`` is given, the
    report additionally carries the :func:`run_scaling` sweep under
    ``"scaling"``."""
    from .core.network import GredNetwork
    from .edge import attach_uniform
    from .topology import brite_waxman_graph

    config = config or BenchConfig()
    topology, _ = brite_waxman_graph(
        config.switches, min_degree=config.min_degree,
        rng=np.random.default_rng(config.seed),
    )

    def build() -> GredNetwork:
        return GredNetwork(
            topology,
            attach_uniform(topology.nodes(),
                           servers_per_switch=config.servers_per_switch),
            cvt_iterations=config.cvt_iterations,
            seed=config.seed,
        )

    t0 = time.perf_counter()
    scalar_net = build()
    build_seconds = time.perf_counter() - t0
    batch_net = build()
    t0 = time.perf_counter()
    scalar_net.controller.recompute()
    recompute_seconds = time.perf_counter() - t0
    # Keep both deployments in the same epoch/placement state.
    batch_net.controller.recompute()

    scalar_rng = np.random.default_rng(config.seed + 1)
    batch_rng = np.random.default_rng(config.seed + 1)
    equivalence = {"placement_identical": True,
                   "retrieval_identical": True,
                   "load_vector_identical": True,
                   "dedup_identical": True}
    place_rounds: Dict[str, List[_Round]] = {"scalar": [], "batch": []}
    get_rounds: Dict[str, List[_Round]] = {"scalar": [], "batch": []}
    bounds = _chunk_bounds(config.requests, config.chunks)

    gc_was_enabled = gc.isenabled()
    try:
        for repeat in range(config.repeats):
            ids = [f"bench/{repeat}/{i}" for i in range(config.requests)]
            perf = time.perf_counter

            gc.collect()
            gc.disable()
            per_op = []
            start = perf()
            scalar_placed = []
            for data_id in ids:
                op0 = perf()
                scalar_placed.append(scalar_net.place(
                    data_id, copies=config.copies, rng=scalar_rng))
                per_op.append(perf() - op0)
            place_rounds["scalar"].append(_Round(perf() - start, per_op))

            # The batch arm hashes each replica id exactly once per
            # round: ``prehash`` is timed as part of placement, and
            # the digest array is handed to retrieve_many below (the
            # scalar arm re-hashes per call, as a real per-request
            # caller would).
            per_op = []
            start = perf()
            batch_placed: List[Any] = []
            chunk_digests: List[Any] = []
            for chunk in bounds:
                op0 = perf()
                digests = batch_net.prehash(ids[chunk.start:chunk.stop],
                                            copies=config.copies)
                chunk_digests.append(digests)
                batch_placed.extend(batch_net.place_many(
                    ids[chunk.start:chunk.stop],
                    copies=config.copies, rng=batch_rng,
                    digests=digests))
                per_op.append((perf() - op0) / len(chunk))
            place_rounds["batch"].append(_Round(perf() - start, per_op))

            per_op = []
            start = perf()
            scalar_got = []
            for data_id in ids:
                op0 = perf()
                scalar_got.append(scalar_net.retrieve(
                    data_id, copies=config.copies, rng=scalar_rng))
                per_op.append(perf() - op0)
            get_rounds["scalar"].append(_Round(perf() - start, per_op))

            per_op = []
            start = perf()
            batch_got: List[Any] = []
            for chunk, digests in zip(bounds, chunk_digests):
                op0 = perf()
                batch_got.extend(batch_net.retrieve_many(
                    ids[chunk.start:chunk.stop],
                    copies=config.copies, rng=batch_rng,
                    digests=digests))
                per_op.append((perf() - op0) / len(chunk))
            get_rounds["batch"].append(_Round(perf() - start, per_op))
            gc.enable()

            if scalar_placed != batch_placed:
                equivalence["placement_identical"] = False
            if scalar_got != batch_got:
                equivalence["retrieval_identical"] = False
        if scalar_net.load_vector() != batch_net.load_vector():
            equivalence["load_vector_identical"] = False
        # Repeated keys: every id twice from one fixed entry, so each
        # (entry, copy id) key repeats inside the batch and is routed
        # once; the repeats must still match the scalar loop.
        entry = scalar_net.switch_ids()[0]
        probe = [d for d in ids for _ in range(2)]
        if batch_net.retrieve_many(
                probe, entry_switches=[entry] * len(probe),
                copies=config.copies) != [
                scalar_net.retrieve(d, entry_switch=entry,
                                    copies=config.copies)
                for d in probe]:
            equivalence["dedup_identical"] = False
    finally:
        if gc_was_enabled:
            gc.enable()

    telemetry = _bench_telemetry(batch_net, config)

    def section(rounds: Dict[str, List[_Round]]) -> Dict[str, Any]:
        scalar_best = min(rounds["scalar"], key=lambda r: r.seconds)
        batch_best = min(rounds["batch"], key=lambda r: r.seconds)
        return {
            "scalar": _stats(scalar_best.seconds, config.requests,
                             scalar_best.per_op),
            "batch": _stats(batch_best.seconds, config.requests,
                            batch_best.per_op),
            "batch_speedup": scalar_best.seconds / batch_best.seconds,
        }

    report = {
        "format": "gred-bench-v1",
        "generated_unix": time.time(),
        "config": {
            "switches": config.switches,
            "requests": config.requests,
            "copies": config.copies,
            "servers_per_switch": config.servers_per_switch,
            "min_degree": config.min_degree,
            "cvt_iterations": config.cvt_iterations,
            "seed": config.seed,
            "repeats": config.repeats,
            "chunks": config.chunks,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "control_plane": {
            "build_seconds": build_seconds,
            "recompute_seconds": recompute_seconds,
        },
        "placement": section(place_rounds),
        "retrieval": section(get_rounds),
        "telemetry": telemetry,
        "equivalence": equivalence,
    }
    if scaling is not None:
        report["scaling"] = run_scaling(scaling)
    return report


def run_scaling(config: Optional[ScalingConfig] = None
                ) -> Dict[str, Any]:
    """Scaling sweep of the batch pipeline: switches x batch size x
    worker count, replica fan-out included.

    For every topology size the sweep first measures the scalar
    reference loop and verifies **in-run** that the batch pipeline —
    at every worker count — returns byte-identical outcomes and load
    vectors; the grid rows then time ``place_many`` /
    ``retrieve_many`` (best of ``repeats``) and record the wave count
    as proof the vectorized walker (not the scalar fallback) routed
    the batch.

    ``workers == 1`` runs the in-process wave router; ``workers > 1``
    shards the batch across a :class:`~repro.dataplane.shard
    .ShardPool`.  Worker sharding only pays on multi-core hosts —
    ``summary.host_cpus`` records what this run had, and
    ``speedup_vs_single_worker`` is expected to hover near (or below)
    1.0 on a single-core host while ``speedup_vs_scalar`` reflects
    the vectorization win that needs no extra cores.
    """
    from .core.network import GredNetwork
    from .dataplane import batch_fastpath_blockers
    from .edge import attach_uniform
    from .topology import brite_waxman_graph

    config = config or ScalingConfig()
    perf = time.perf_counter
    rows: List[Dict[str, Any]] = []
    reference: Dict[str, Any] = {}
    equivalence_ok = True
    fanout_vectorized = True
    gc_was_enabled = gc.isenabled()
    try:
        for switches in config.switches:
            topology, _ = brite_waxman_graph(
                switches, min_degree=config.min_degree,
                rng=np.random.default_rng(config.seed),
            )

            def build() -> GredNetwork:
                return GredNetwork(
                    topology,
                    attach_uniform(
                        topology.nodes(),
                        servers_per_switch=config.servers_per_switch),
                    cvt_iterations=config.cvt_iterations,
                    seed=config.seed,
                )

            scalar_net = build()
            net = build()

            # Scalar reference (capped: rps is workload-independent).
            ref_n = min(max(config.batches), config.reference_requests)
            ref_ids = [f"scale/ref/{i}" for i in range(ref_n)]
            rng = np.random.default_rng(config.seed + 1)
            gc.collect()
            gc.disable()
            start = perf()
            expected = [scalar_net.place(d, copies=config.copies,
                                         rng=rng) for d in ref_ids]
            scalar_seconds = perf() - start
            gc.enable()
            reference[str(switches)] = {
                "requests": ref_n,
                "place_rps": ref_n / scalar_seconds,
            }

            # In-run equivalence: every worker count must reproduce
            # the scalar outcomes byte for byte.
            for w in config.workers:
                eq_net = build()
                rng = np.random.default_rng(config.seed + 1)
                got = eq_net.place_many(
                    ref_ids, copies=config.copies, rng=rng,
                    workers=None if w <= 1 else w)
                if (got != expected or eq_net.load_vector()
                        != scalar_net.load_vector()):
                    equivalence_ok = False
                eq_net.close_worker_pools()

            for batch in config.batches:
                for w in config.workers:
                    workers = None if w <= 1 else w
                    best_place = best_get = None
                    waves = 0
                    for repeat in range(config.repeats):
                        ids = [f"scale/{switches}/{batch}/{w}/"
                               f"{repeat}/{i}" for i in range(batch)]
                        rng = np.random.default_rng(config.seed + 2)
                        gc.collect()
                        gc.disable()
                        start = perf()
                        net.place_many(ids, copies=config.copies,
                                       rng=rng, workers=workers)
                        mid = perf()
                        net.retrieve_many(ids, copies=config.copies,
                                          rng=rng, workers=workers)
                        end = perf()
                        gc.enable()
                        place, get = mid - start, end - mid
                        if best_place is None or place < best_place:
                            best_place = place
                        if best_get is None or get < best_get:
                            best_get = get
                        waves = max(
                            waves,
                            net._fastpath.router.last_batch_waves)
                    fallback = (bool(batch_fastpath_blockers(net))
                                or waves <= 0)
                    if fallback:
                        fanout_vectorized = False
                    rows.append({
                        "switches": switches,
                        "batch": batch,
                        "workers": w,
                        "copies": config.copies,
                        "place_rps": batch / best_place,
                        "retrieve_rps": batch / best_get,
                        "batch_waves": int(waves),
                        "scalar_fallback": fallback,
                    })
            net.close_worker_pools()
    finally:
        if gc_was_enabled:
            gc.enable()

    top_switches = max(config.switches)
    top_batch = max(config.batches)
    top_rows = [r for r in rows if r["switches"] == top_switches
                and r["batch"] == top_batch]
    scalar_rps = reference[str(top_switches)]["place_rps"]
    best_place_rps = max(r["place_rps"] for r in top_rows)
    single = next((r for r in top_rows if r["workers"] == 1), None)
    multi = [r for r in top_rows if r["workers"] > 1]
    summary = {
        "speedup_vs_scalar_place": best_place_rps / scalar_rps,
        "speedup_vs_single_worker": (
            max(r["place_rps"] for r in multi) / single["place_rps"]
            if single is not None and multi else None),
        "replica_fanout_vectorized": fanout_vectorized,
        "equivalence_verified": equivalence_ok,
        "host_cpus": os.cpu_count(),
        "note": ("speedup_vs_scalar_place is the vectorization win "
                 "over the per-request reference loop; "
                 "speedup_vs_single_worker only exceeds 1.0 when "
                 "host_cpus gives the shard workers real cores"),
    }
    return {
        "config": {
            "switches": list(config.switches),
            "batches": list(config.batches),
            "workers": list(config.workers),
            "copies": config.copies,
            "servers_per_switch": config.servers_per_switch,
            "min_degree": config.min_degree,
            "cvt_iterations": config.cvt_iterations,
            "seed": config.seed,
            "repeats": config.repeats,
        },
        "scalar_reference": reference,
        "rows": rows,
        "summary": summary,
    }


def _bench_telemetry(net, config: BenchConfig) -> Dict[str, Any]:
    """Cost of the vectorized telemetry plane on the batch fast path.

    Times the same batch place+retrieve workload with the metrics
    registry disabled and enabled (best of ``repeats`` each, fresh
    identifier namespaces so every run stores new items) and
    reports the overhead fractions.  ``batch_waves > 0`` proves the
    telemetry-on run still took the wave router — telemetry alone must
    not force the scalar fallback.
    """
    from . import obs

    perf = time.perf_counter
    best = {"off": {"place": None, "get": None},
            "on": {"place": None, "get": None}}
    batch_waves = 0.0
    gc_was_enabled = gc.isenabled()
    try:
        for repeat in range(config.repeats):
            for mode in ("off", "on"):
                ids = [f"tel/{mode}/{repeat}/{i}"
                       for i in range(config.requests)]
                rng = np.random.default_rng(config.seed + 7)
                registry = obs.MetricsRegistry(enabled=(mode == "on"))
                previous = obs.set_default_registry(registry)
                gc.collect()
                gc.disable()
                try:
                    start = perf()
                    net.place_many(ids, copies=config.copies, rng=rng)
                    mid = perf()
                    net.retrieve_many(ids, copies=config.copies,
                                      rng=rng)
                    end = perf()
                finally:
                    gc.enable()
                    obs.set_default_registry(previous)
                slot = best[mode]
                place, get = mid - start, end - mid
                if slot["place"] is None or place < slot["place"]:
                    slot["place"] = place
                if slot["get"] is None or get < slot["get"]:
                    slot["get"] = get
                if mode == "on":
                    batch_waves = max(
                        batch_waves,
                        registry.counter_values("dataplane.batch.")
                        .get("dataplane.batch.waves", 0.0))
    finally:
        if gc_was_enabled:
            gc.enable()

    def overhead(op: str) -> Dict[str, Any]:
        off, on = best["off"][op], best["on"][op]
        return {
            "off_seconds": off,
            "on_seconds": on,
            "overhead_fraction": (on - off) / off,
        }

    return {
        "placement": overhead("place"),
        "retrieval": overhead("get"),
        "batch_waves": batch_waves,
        "vectorized": batch_waves > 0,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_summary(report: Dict[str, Any]) -> str:
    """Human-readable digest of a ``gred-bench-v1`` report."""
    lines = []
    cfg = report["config"]
    lines.append(
        f"fast-path bench: {cfg['switches']} switches, "
        f"{cfg['requests']} requests x{cfg['repeats']} repeats "
        f"(copies={cfg['copies']})"
    )
    cp = report["control_plane"]
    lines.append(
        f"control plane   : build {cp['build_seconds']:.3f}s, "
        f"recompute {cp['recompute_seconds']:.3f}s"
    )
    for name in ("placement", "retrieval"):
        sec = report[name]
        scalar, batch = sec["scalar"], sec["batch"]
        lines.append(
            f"{name:<16}: scalar {scalar['requests_per_sec']:,.0f} rps "
            f"(p50 {scalar['p50_us']:.1f}us p99 {scalar['p99_us']:.1f}us)"
            f" | batch {batch['requests_per_sec']:,.0f} rps "
            f"(p50 {batch['p50_us']:.1f}us p99 {batch['p99_us']:.1f}us)"
            f" | speedup {sec['batch_speedup']:.2f}x"
        )
    tel = report.get("telemetry")
    if tel is not None:
        lines.append(
            f"telemetry       : place "
            f"{tel['placement']['overhead_fraction']:+.1%}, retrieve "
            f"{tel['retrieval']['overhead_fraction']:+.1%} overhead "
            f"({tel['batch_waves']:.0f} waves, "
            f"{'vectorized' if tel['vectorized'] else 'SCALAR FALLBACK'})"
        )
    eq = report["equivalence"]
    ok = all(eq.values())
    lines.append(f"equivalence     : "
                 f"{'identical outcomes' if ok else 'MISMATCH ' + str(eq)}")
    scaling = report.get("scaling")
    if scaling is not None:
        summary = scaling["summary"]
        lines.append(
            f"scaling         : x{summary['speedup_vs_scalar_place']:.1f}"
            f" vs scalar loop, "
            f"{'vectorized fan-out' if summary['replica_fanout_vectorized'] else 'SCALAR FALLBACK'}, "
            f"{'equivalence verified' if summary['equivalence_verified'] else 'EQUIVALENCE MISMATCH'}"
            f" ({summary['host_cpus']} cpu)"
        )
        for row in scaling["rows"]:
            lines.append(
                f"  {row['switches']:>4} sw | batch {row['batch']:>6}"
                f" | workers {row['workers']} | place "
                f"{row['place_rps']:>9,.0f} rps | retrieve "
                f"{row['retrieve_rps']:>9,.0f} rps | "
                f"{row['batch_waves']} waves"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.bench``)."""
    from .cli import main as cli_main

    return cli_main(["bench"] + list(sys.argv[1:] if argv is None
                                     else argv))


if __name__ == "__main__":
    sys.exit(main())
