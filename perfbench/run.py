"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload uniform-bulk --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/`` beside this directory.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once with every layer's entry points wrapped, and prints the per-layer
metrics and the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  Each run also appends its full
report to ``perfbench/out/history.jsonl``; a traced run writes its
spans to ``perfbench/out/spans-<workload>.npz``.  The exit code is 1
when an output check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per untraced run; ``setup_s`` is their median, so the first
#: build in a fresh process (cold imports and caches) does not set it.
SETUP_REPEATS = 3
#: A traced run drives the workload twice (untraced, then traced), each
#: on this share of the work, so it costs about one untraced run.
TRACE_WORK_SHARE = 0.25
#: Host-speed probes run right before and right after each set-up.
SETUP_PROBES = 50


def probe_median_s(samples: int = 100) -> float:
    """The host-speed probe's median time over ``samples`` runs."""
    speed = hostspeed.HostSpeed()
    speed.probe(samples)
    return speed.median_s()


def host_fingerprint() -> dict:
    uname = os.uname()
    return {
        "node": uname.nodename,
        "system": f"{uname.sysname} {uname.release}",
        "machine": uname.machine,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_pass(workload, inputs, rec, setups: int, tracer=None):
    """Build the deployment ``setups`` times (keeping the last), then
    drive it.  Returns (state, set-up seconds raw, set-up seconds
    normalized to the reference host speed, timed wall seconds)."""
    raw, normalized = [], []
    state = None
    for _ in range(setups):
        if state is not None:
            workload.teardown(state)
            state = None
        gc.collect()
        speed = hostspeed.HostSpeed()
        speed.probe(SETUP_PROBES)
        span = None
        if tracer is not None:
            span = tracer.begin(tracer.name_id("setup"))
        start = perf_counter()
        state = workload.build(inputs)
        raw.append(perf_counter() - start)
        if span is not None:
            tracer.end(span)
        speed.probe(SETUP_PROBES)
        normalized.append(raw[-1] * hostspeed.REFERENCE_S
                          / speed.median_s())
    workload.prepare(state, inputs)
    gc.collect()
    start = perf_counter()
    workload.drive(state, inputs, rec)
    wall = perf_counter() - start
    rec.speed.probe()  # a sample after the last call, for its scale
    return state, raw, normalized, wall


def timings(rec, setups, latencies) -> dict:
    """The timing metrics, ``name -> (value, unit, samples)``, from
    set-up times and ``latencies(op)``, the per-call seconds of an op."""
    m = {"setup_s": (statistics.median(setups), "s", len(setups))}
    for op in ("place", "retrieve", "delete", "join", "leave"):
        lat = latencies(op)
        if not lat.size:
            continue
        if op in ("place", "retrieve", "delete"):
            m[f"{op}_rps"] = (rec.ops[op] / lat.sum(), "ops/s", lat.size)
        quantiles = (50, 99) if op in ("place", "retrieve") else (50,)
        for q in quantiles:
            m[f"{op}_p{q}_ms"] = (float(np.percentile(lat, q)) * 1e3,
                                  "ms", lat.size)
    return m


def end_to_end(rec, state, setups) -> dict:
    """Every end-to-end metric: ``name -> (value, unit, samples)``,
    timings normalized to the reference host speed."""
    loads = state["net"].load_vector()
    m = timings(rec, setups, rec.normalized)
    m["failed_frac"] = (rec.failed / rec.attempted, "ratio",
                        rec.attempted)
    m["rtt_hops_mean"] = (rec.rtt_hops / max(rec.retrievals, 1), "hops",
                          rec.retrievals)
    m["load_max_over_mean"] = (max(loads) / (sum(loads) / len(loads)),
                               "ratio", len(loads))
    # ru_maxrss is in KiB on Linux.
    m["peak_rss_mb"] = (resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return m


def per_layer(tracer, untraced_wall, traced_wall,
              cross_region_share, items) -> dict:
    """Every per-layer metric from the traced pass: ``name -> (value,
    unit)``."""
    self_s = tracer.layer_self_time
    calls = tracer.layer_calls
    counts = tracer.counts
    issued = counts.get("traffic.issued", 0)
    routed = counts.get("traffic.routed", 0)
    m = {
        "hashing.self_s": self_s("hashing"),
        "hashing.ids": counts.get("hashing.ids", 0),
        "dataplane.route_batch.self_s": self_s("dataplane.route_batch"),
        "dataplane.route_batch.requests":
            counts.get("dataplane.route_batch.requests", 0),
        "dataplane.waves": counts.get("dataplane.waves", 0),
        "dataplane.forward.self_s": self_s("dataplane.forward"),
        "dataplane.forward.calls": calls("dataplane.forward"),
        "dataplane.patch.self_s": self_s("dataplane.patch"),
        "core.place_many.self_s": self_s("core.place_many"),
        "core.retrieve_many.self_s": self_s("core.retrieve_many"),
        "core.route_reuse_ratio": (1 - routed / issued) if issued else 0.0,
        "core.delete.self_s": self_s("core.delete"),
        "core.request.self_s": self_s("core.request"),
        "core.migrate.self_s": self_s("core.migrate"),
        "core.migrated_items": counts.get("core.migrated_items", 0),
        "edge.store.self_s": self_s("edge.store"),
        "edge.retrieve.self_s": self_s("edge.retrieve"),
        "edge.items": items,
        "controlplane.closest.self_s": self_s("controlplane.closest"),
        "controlplane.closest.calls": calls("controlplane.closest"),
        "controlplane.add_switch.self_s":
            self_s("controlplane.add_switch"),
        "controlplane.remove_switch.self_s":
            self_s("controlplane.remove_switch"),
        "controlplane.delta_msgs": counts.get("controlplane.delta_msgs",
                                              0),
        "controlplane.recompute.self_s": self_s("controlplane.recompute"),
        "controlplane.federation.self_s":
            self_s("controlplane.federation"),
        "controlplane.federation.cross_region_share": cross_region_share,
        "embedding.mds.self_s": self_s("embedding.mds"),
        "embedding.cvt.self_s": self_s("embedding.cvt"),
        "geometry.delaunay.self_s": self_s("geometry.delaunay"),
        "obs.self_s": self_s("obs"),
        "obs.emissions": calls("obs"),
        "runtime.gc_pause_s": self_s("runtime.gc"),
        "runtime.gc_gen2": counts.get("runtime.gc_gen2", 0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    }
    return {name: (value, layer_unit(name)) for name, value in m.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program under test is missing: no "
              f"src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__))) != SRC:
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_fingerprint(),
              "probe_s_before": probe_median_s()}
    clock = perf_counter()
    work = (max(1, round(args.seconds * TRACE_WORK_SHARE)) if args.trace
            else args.seconds)
    inputs = workload.inputs(args.seed, work)
    phases = {"inputs": perf_counter() - clock}
    rec = workloads.Recorder()
    state, raw_setups, setups, wall = run_pass(
        workload, inputs, rec, 1 if args.trace else SETUP_REPEATS)
    phases["setup"], phases["drive"] = sum(raw_setups), wall
    e2e = end_to_end(rec, state, setups)
    raw = timings(rec, raw_setups,
                  lambda op: np.asarray(rec.latency[op]))
    clock = perf_counter()
    workload.verify(state, inputs, rec)
    phases["verify"] = perf_counter() - clock
    clock = perf_counter()
    props = {
        "repeat_shares": rec.repeat_shares(),
        "cross_region_share": workload.cross_region_share(state, inputs),
        "items_stored": sum(state["net"].load_vector()),
    }
    phases["properties"] = perf_counter() - clock
    workload.teardown(state)
    state = None
    attempted, failed, errors = rec.attempted, rec.failed, rec.errors

    if args.trace:
        tracer = tracing.Tracer()
        traced = workloads.Recorder(tracer)
        tracing.install(tracer)
        try:
            state, _, _, traced_wall = run_pass(workload, inputs, traced,
                                                1, tracer)
        finally:
            tracer.uninstall()
        workload.verify(state, inputs, traced)
        items = sum(state["net"].load_vector())
        workload.teardown(state)
        state = None
        attempted += traced.attempted
        failed += traced.failed
        errors += traced.errors
        # Each pass's wall time at the reference host speed, so the
        # host's drift between the two passes does not read as overhead.
        layer = per_layer(tracer, wall / rec.speed.median_s(),
                          traced_wall / traced.speed.median_s(),
                          props["cross_region_share"], items)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{workload.name}.npz")
        tracer.save(spans_path)
        report["spans"] = {"path": os.path.relpath(spans_path, ROOT),
                           "count": len(tracer.col_start)}
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layer.items()}
        printed = layer
    else:
        printed = {k: (v, u) for k, (v, u, _) in e2e.items()}

    report["end_to_end"] = {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in e2e.items()}
    report["raw_timings"] = {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in raw.items()}
    report["probe_s_during"] = rec.speed.median_s()
    report["probe_s_after"] = probe_median_s()
    report["phases_s"] = phases
    report["properties"] = props
    report["attempted"], report["failed"] = attempted, failed
    report["errors"] = errors

    print(f"workload {workload.name}  seed {args.seed}  "
          f"trace {args.trace}  host {report['host']}")
    print("host-speed probe "
          + ", ".join(f"{when} {report[f'probe_s_{when}'] * 1e6:.1f} us"
                      for when in ("before", "during", "after"))
          + f" (reference {hostspeed.REFERENCE_S * 1e6:.1f} us); phases "
          + ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()))
    for name, (value, unit, n) in e2e.items():
        raw_value = f"  raw {raw[name][0]:.6g}" if name in raw else ""
        print(f"  {name:<22} {value:>14.6g} {unit:<6} (n={n}){raw_value}")
    shares = props["repeat_shares"]
    print(f"  repeat (entry, copy) keys: within batch "
          f"{shares['within_batch']:.3f}, across batches "
          f"{shares['across_batches']:.3f}, any earlier "
          f"{shares['any_earlier']:.3f} of {shares['requests']} requests;"
          f" cross-region share {props['cross_region_share']:.3f};"
          f" items stored {props['items_stored']}")
    if args.trace:
        for name, (value, unit) in layer.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
    for why in errors:
        print(f"  FAILED {why}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(report) + "\n")

    # The result carries the metrics BENCHMARK.json declares.  The
    # end-to-end ones are those every workload has; the workload-only
    # ones (delete_rps, join_p50_ms, leave_p50_ms) and failed_frac are
    # in the lines above and in the history file.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace
                                 else "end_to_end"]
    metrics = {}
    for metric in declared:
        value, unit = printed[metric["name"]]
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']} is measured in {unit}, "
                             f"declared in {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
