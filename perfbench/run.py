"""occtree benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload room_build --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; occtree is imported from ``src/``.
With ``--trace 0`` the run sets up the workload several times (the median is
``setup_s``), then measures it for ``--seconds`` seconds and reports every
end-to-end metric. With ``--trace 1`` it measures the workload untraced for a
share of ``--seconds``, replays exactly the same work with every public
occtree function wrapped (see tracing.py) and reports per-layer metrics.
Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only if every operation succeeded and passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3        # set-ups per run, at least; setup_s is their median
SETUP_MIN_S = 1.0     # cheap set-ups repeat until this much time is spent
TRACE_SHARE = 0.4     # share of --seconds the untraced pass of a traced run gets

# name -> unit, in the order printed
END_TO_END = {
    "setup_s": "s",
    "build.points_per_s": "points/s",
    "map.read_s": "s",
    "map.bytes": "bytes",
    "step.ms_p50": "ms",
    "step.ms_p90": "ms",
    "collision.us_p50": "us",
    "collision.us_p99": "us",
    "line.us_p50": "us",
    "line.us_p99": "us",
    "gain_flat.ms_p50": "ms",
    "gain_exact.ms_p50": "ms",
    "gain_fast.ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# spans whose calls and self time are reported
TRACED_SPANS = [
    "cli.build", "integrate", "integrate.coarse_free_samples",
    "core.update_occupancy", "core.set_coarse", "core.tree_stats",
    "kernels.trace_cells", "kernels.morton_encode",
    "io.read_scan", "io.write_map", "io.read_map",
    "query.region_collision", "query.line_collision",
    "query.info_gain.flat", "query.info_gain.exact", "query.info_gain.fast",
]


def _per_layer_units() -> dict:
    units = {}
    for span in TRACED_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "integrate.total_s": "s",
        "integrate.points": "count",
        "integrate.rays": "count",
        "integrate.free_ops": "count",
        "integrate.hit_ops": "count",
        "integrate.rays_per_point": "ratio",
        "integrate.raytrace_s": "s",
        "integrate.insert_s": "s",
        "core.state_at.calls": "count",
        "core.nodes_total": "count",
        "core.nodes_leaf": "count",
        "kernels.trace_cells.cells": "count",
        "io.write_map.bytes": "bytes",
        "query.region_collision.true_ratio": "ratio",
        "query.region_collision.nodes_per_query": "count",
        "query.line_collision.true_ratio": "ratio",
        "query.info_gain.trace_cells_per_query": "count",
        "volumes.sphere_box_tests": "count",
        "volumes.frustum_box_tests": "count",
        "volumes.frustum_points": "count",
        "volumes.self_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def _quantile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _sample(rec, key: str) -> list:
    values = rec.samples.get(key, [])
    if len(values) < 2:
        raise RuntimeError(f"too few samples of {key}: {len(values)}")
    return values


def end_to_end_metrics(rec, setup_s: list, step_key: str) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    values, counts = {}, {}

    def put(name, samples, value):
        values[name] = value
        counts[name] = len(samples)

    put("setup_s", setup_s, statistics.median(setup_s))
    for name, key in (("build.points_per_s", "build.points_per_s"), ("map.read_s", "map.read_s"),
                      ("map.bytes", "map.bytes")):
        samples = rec.samples[key]
        put(name, samples, statistics.median(samples))
    for prefix, key, pcts in (("step.ms", step_key, (50, 90)),
                              ("collision.us", "collision.us", (50, 99)),
                              ("line.us", "line.us", (50, 99))):
        samples = _sample(rec, key)
        for pct in pcts:
            put(f"{prefix}_p{pct}", samples, _quantile(samples, pct))
    for variant in ("flat", "exact", "fast"):
        samples = rec.samples[f"gain_{variant}.ms"]
        put(f"gain_{variant}.ms_p50", samples, statistics.median(samples))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    put("peak_rss_mb", [usage], usage.ru_maxrss / 1024.0)
    return values, counts


def per_layer_metrics(tr, overhead: float, final_map) -> dict:
    m = {}
    for span in TRACED_SPANS:
        m[f"{span}.calls"] = tr.calls[span]
        m[f"{span}.self_s"] = tr.self_s[span]
    x = tr.extra
    points = x["integrate.points"]
    m.update({
        "integrate.total_s": tr.total_s["integrate"],
        "integrate.points": points,
        "integrate.rays": x["integrate.rays"],
        "integrate.free_ops": x["integrate.free_ops"],
        "integrate.hit_ops": x["integrate.hit_ops"],
        "integrate.rays_per_point": x["integrate.rays"] / points if points else 0.0,
        "integrate.raytrace_s": x["integrate.raytrace_s"],
        "integrate.insert_s": x["integrate.insert_s"],
        "core.state_at.calls": tr.calls["core.state_at"],
        "kernels.trace_cells.cells": x["kernels.trace_cells.cells"],
        "io.write_map.bytes": x["io.write_map.bytes"],
        "volumes.sphere_box_tests": tr.calls["volumes.Sphere.intersects_box"],
        "volumes.frustum_box_tests": tr.calls["volumes.Frustum.intersects_box"],
        "volumes.frustum_points": x["volumes.Frustum.contains_points.points"],
        "volumes.self_s": tr.self_by_prefix("volumes"),
        "trace.overhead_ratio": overhead,
    })
    n_coll = tr.calls["query.region_collision"]
    n_line = tr.calls["query.line_collision"]
    n_gain = sum(tr.calls[f"query.info_gain.{v}"] for v in ("flat", "exact", "fast"))
    m["query.region_collision.true_ratio"] = x["query.region_collision.true"] / n_coll if n_coll else 0.0
    m["query.region_collision.nodes_per_query"] = (
        tr.child_calls[("query.region_collision", "volumes.Sphere.intersects_box")] / n_coll
        if n_coll else 0.0)
    m["query.line_collision.true_ratio"] = x["query.line_collision.true"] / n_line if n_line else 0.0
    m["query.info_gain.trace_cells_per_query"] = (
        tr.child_calls_under("query.info_gain", "kernels.trace_cells") / n_gain if n_gain else 0.0)
    stats = final_map.tree_stats()
    m["core.nodes_total"] = stats.total
    m["core.nodes_leaf"] = stats.leaf
    return {name: m[name] for name in PER_LAYER}


def run_end_to_end(wl, seed: int, seconds: float, work: Path, out: list):
    from perfbench.tracing import NoTracer
    from perfbench.workloads import Recorder, freeze_inputs

    rec = Recorder()
    setup_s = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        t0 = perf_counter()
        ctx = wl.setup(seed, work, rec)
        setup_s.append(perf_counter() - t0)
    freeze_inputs()
    units = wl.measure(ctx, rec, NoTracer(), budget_s=seconds)
    values, counts = end_to_end_metrics(rec, setup_s, wl.step_samples)
    out.append(f"units {units}")
    for name, unit in END_TO_END.items():
        out.append(f"{name:<22} {values[name]:>14.6g} {unit:<9} n={counts[name]}")
    return rec, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_traced(wl, seed: int, seconds: float, work: Path, out: list):
    from perfbench.tracing import NoTracer, Tracer
    from perfbench.workloads import Recorder, freeze_inputs

    setup_rec = Recorder()
    ctx = wl.setup(seed, work, setup_rec)
    freeze_inputs()
    untraced = Recorder()
    units = wl.measure(ctx, untraced, NoTracer(), budget_s=seconds * TRACE_SHARE)
    tr = Tracer()
    traced = Recorder()
    tr.install()
    try:
        wl.measure(ctx, traced, tr, counts=units)
    finally:
        tr.uninstall()
    overhead = traced.busy_s / untraced.busy_s
    out.append(f"units {units}  untraced {untraced.busy_s:.3f} s  traced {traced.busy_s:.3f} s")
    out.append(f"{'span':<40} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for span in sorted(tr.span_names(), key=lambda s: -tr.self_s[s]):
        out.append(f"{span:<40} {tr.calls[span]:>10} {tr.total_s[span]:>10.4f} {tr.self_s[span]:>10.4f}")
    metrics = per_layer_metrics(tr, overhead, ctx["final_map"])
    for name, unit in PER_LAYER.items():
        out.append(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    rec = untraced  # reports the operations of all three passes
    for part in (setup_rec, traced):
        rec.attempted += part.attempted
        rec.failed += part.failed
        rec.failures += part.failures
    rec.map_digest = rec.map_digest or setup_rec.map_digest
    rec.check(traced.map_digest in (None, rec.map_digest), "tracing changed the map built")
    rec.check(traced.answers_sha.digest() == rec.answers_sha.digest(), "tracing changed the answers")
    return rec, {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("room_build", "corridor_explore", "room_query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "occtree" / "__init__.py").is_file():
        print(f"perfbench: no occtree sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy
    import occtree
    from perfbench.workloads import WORKLOADS

    if Path(occtree.__file__).resolve().parent != (SRC / "occtree").resolve():
        print(f"perfbench: imported occtree from {occtree.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    out = [f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
           f"trace={args.trace}",
           f"backend={occtree.kernel_backend()} python={platform.python_version()} "
           f"numpy={numpy.__version__} machine={platform.machine()} cpus={os.cpu_count()} "
           f"platform={platform.platform()}"]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_end_to_end
        rec, metrics = run(wl, args.seed, args.seconds, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    out.append(f"fail_ratio {rec.failed / max(rec.attempted, 1):.6g} "
               f"({rec.failed} of {rec.attempted} operations)")
    out.append(f"map.sha256 {rec.map_digest}")
    out.append(f"answers.sha256 {rec.answers_sha.hexdigest()}")
    print("\n".join(out))
    for failure in rec.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    correct = rec.failed == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
