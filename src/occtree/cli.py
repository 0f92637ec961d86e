"""Benchmark / build / query command line.

Exit codes: 0 success, 1 usage or config error, 2 I/O or parse error,
3 runtime precondition failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import _kernels
from .core import NodeState, OccupancyConfig, OccupancyMap, logit
from .errors import OutOfExtentError, ScanFormatError
from .integrate import IntegratorConfig, _clip_box, integrate
from .io import read_map, read_scan, write_csv_stats, write_map
from .query import info_gain, line_collision, region_collision
from .volumes import Aabb, SensorModel, Sphere, yaw_rotation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_map_config(p: _Parser) -> None:
    p.add_argument("--resolution", type=float, default=0.1, help="leaf voxel size in meters")
    p.add_argument("--levels", type=int, default=16, help="octree depth levels (1..21)")
    p.add_argument("--hit", type=float, default=0.7, help="hit probability")
    p.add_argument("--miss", type=float, default=0.4, help="miss probability")
    p.add_argument("--clamp-min", type=float, default=0.12, help="lower clamp probability")
    p.add_argument("--clamp-max", type=float, default=0.97, help="upper clamp probability")
    p.add_argument("--tf", type=float, default=0.5, help="free-state probability threshold")
    p.add_argument("--to", type=float, default=0.5, help="occupied-state probability threshold")
    p.add_argument("--auto-prune", choices=("on", "off"), default="on")


def _build_parser() -> _Parser:
    parser = _Parser(prog="occtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", parents=[], help="integrate a directory of scans into a map")
    b.add_argument("scan_dir", type=Path)
    _add_map_config(b)
    b.add_argument("--integrator", choices=("simple", "discrete", "fast"), default="discrete")
    b.add_argument("--fast-n", type=int, default=0)
    b.add_argument("--fast-depth", type=int, default=0)
    b.add_argument("--bbox", type=str, default=None,
                   help="integration region 'x0,y0,z0,x1,y1,z1'")
    b.add_argument("--max-range", type=float, default=None)
    b.add_argument("--color", action="store_true", help="store per-voxel color")
    b.add_argument("--map", type=Path, required=True, help="output map file")
    b.add_argument("--csv", type=Path, default=None, help="per-scan stats CSV")

    q = sub.add_parser("bench", help="run a benchmark suite against a map file")
    q.add_argument("map_file", type=Path)
    q.add_argument("suite", choices=("collision", "line", "gain"))
    q.add_argument("--count", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--radius", type=float, default=0.25)
    q.add_argument("--csv", type=Path, default=None)

    g = sub.add_parser("query", help="classify one point of a map file")
    g.add_argument("map_file", type=Path)
    g.add_argument("x", type=float)
    g.add_argument("y", type=float)
    g.add_argument("z", type=float)
    g.add_argument("--depth", type=int, default=0)

    k = sub.add_parser("kernels", help="compare compiled and pure-Python kernels")
    k.add_argument("--count", type=int, default=200_000)
    k.add_argument("--seed", type=int, default=0)
    return parser


def _map_from_args(args) -> OccupancyMap:
    config = OccupancyConfig(
        log_hit=logit(args.hit), log_miss=logit(args.miss),
        clamp_min=logit(args.clamp_min), clamp_max=logit(args.clamp_max),
        t_free=args.tf, t_occ=args.to)
    return OccupancyMap(args.resolution, args.levels, config,
                        auto_prune=args.auto_prune == "on",
                        store_color=getattr(args, "color", False))


def _parse_bbox(text: str) -> Aabb:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 6:
        raise ValueError("bbox needs 6 comma-separated numbers")
    return Aabb((vals[0], vals[1], vals[2]), (vals[3], vals[4], vals[5]))


def cmd_build(args) -> int:
    try:
        map_ = _map_from_args(args)
        region = _parse_bbox(args.bbox) if args.bbox else None
        method = {"fast": "fast_discrete"}.get(args.integrator, args.integrator)
        icfg = IntegratorConfig(method=method, fast_n=args.fast_n,
                                fast_depth=args.fast_depth, region=region,
                                max_range=args.max_range)
        _clip_box(map_.geometry, region)  # a region outside the extent is a config error
    except ValueError as exc:
        print(f"occtree build: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not args.scan_dir.is_dir():
        print(f"occtree build: not a directory: {args.scan_dir}", file=sys.stderr)
        return EXIT_IO

    rows = []
    for scan_path in sorted(p for p in args.scan_dir.iterdir() if p.is_file()):
        try:
            with open(scan_path) as fh:
                scan = read_scan(fh)
        except (OSError, ScanFormatError) as exc:
            print(f"occtree build: {scan_path}: {exc}", file=sys.stderr)
            return EXIT_IO
        try:
            result = integrate(map_, scan, icfg)
        except (OutOfExtentError, ValueError) as exc:
            print(f"occtree build: {scan_path}: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        stats = map_.tree_stats()
        rows.append({
            "scan": scan_path.name,
            "method": method,
            "total_ms": (result.raytrace_s + result.insert_s) * 1e3,
            "raytrace_ms": result.raytrace_s * 1e3,
            "insert_ms": result.insert_s * 1e3,
            "cells_freed": result.cells_freed,
            "cells_occupied": result.cells_occupied,
            "nodes_total": stats.total,
            "nodes_leaf": stats.leaf,
            "bytes_model": stats.bytes_model,
            "points_nonfinite": result.points_nonfinite,
            "inner_refreshed": result.inner_refreshed,
        })

    with open(args.map, "wb") as fh:
        write_map(map_, fh)
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            write_csv_stats(rows, fh)
    return EXIT_OK


def _load_map(path: Path) -> OccupancyMap:
    with open(path, "rb") as fh:
        return read_map(fh)


def _sample_point(rng, half: float) -> np.ndarray:
    return rng.uniform(-half * 0.999, half * 0.999, size=3)


def cmd_bench(args) -> int:
    try:
        map_ = _load_map(args.map_file)
    except (OSError, ValueError) as exc:
        print(f"occtree bench: {args.map_file}: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.count <= 0:
        print("occtree bench: count must be > 0", file=sys.stderr)
        return EXIT_USAGE

    rng = np.random.default_rng(args.seed)
    half = map_.geometry.half_extent
    rows = []

    if args.suite == "collision":
        root = map_.root
        has_free = (map_.state_of(root.value) is NodeState.FREE
                    or (root.children is not None and root.contains_free))
        attempts = 0
        sampled = 0
        hits = 0
        total_us = 0.0
        while sampled < args.count:
            if not has_free or attempts >= 1_000_000:
                print("occtree bench: could not sample a free-center pose",
                      file=sys.stderr)
                return EXIT_PRECONDITION
            center = _sample_point(rng, half)
            attempts += 1
            if map_.state_at(center).state.value != "free":
                continue
            sampled += 1
            sphere = Sphere(tuple(center), args.radius)
            t0 = time.perf_counter()
            conservative = region_collision(map_, sphere, "conservative")
            t1 = time.perf_counter()
            occupied_only = region_collision(map_, sphere, "occupied_only")
            t2 = time.perf_counter()
            hits += conservative
            total_us += (t1 - t0) * 1e6
            rows.append({"idx": sampled - 1, "x": center[0], "y": center[1],
                         "z": center[2], "conservative": int(conservative),
                         "occupied_only": int(occupied_only),
                         "us_conservative": (t1 - t0) * 1e6,
                         "us_occupied_only": (t2 - t1) * 1e6})
        print(f"collision: {total_us / args.count:.2f} us/pose, "
              f"fraction in collision {hits / args.count:.3f}")
    elif args.suite == "line":
        total_us = 0.0
        for i in range(args.count):
            p0 = _sample_point(rng, half)
            p1 = _sample_point(rng, half)
            t0 = time.perf_counter()
            conservative = line_collision(map_, p0, p1, "conservative")
            t1 = time.perf_counter()
            occupied_only = line_collision(map_, p0, p1, "occupied_only")
            t2 = time.perf_counter()
            total_us += (t1 - t0) * 1e6
            rows.append({"idx": i, "conservative": int(conservative),
                         "occupied_only": int(occupied_only),
                         "us_conservative": (t1 - t0) * 1e6,
                         "us_occupied_only": (t2 - t1) * 1e6})
        print(f"line: {total_us / args.count:.2f} us/line")
    else:  # gain
        for i in range(args.count):
            pos = _sample_point(rng, half)
            yaw = rng.uniform(-math.pi, math.pi)
            sensor = SensorModel(tuple(pos), yaw_rotation(yaw))
            row = {"idx": i, "x": pos[0], "y": pos[1], "z": pos[2], "yaw": yaw}
            for variant in ("flat", "exact", "fast"):
                t0 = time.perf_counter()
                row[variant] = info_gain(map_, sensor, variant)
                row[f"us_{variant}"] = (time.perf_counter() - t0) * 1e6
            rows.append(row)
        print(f"gain: {args.count} poses evaluated (flat/exact/fast)")

    if args.csv is not None and rows:
        import csv as _csv
        with open(args.csv, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK


def cmd_query(args) -> int:
    try:
        map_ = _load_map(args.map_file)
    except (OSError, ValueError) as exc:
        print(f"occtree query: {args.map_file}: {exc}", file=sys.stderr)
        return EXIT_IO
    if not (0 <= args.depth <= map_.geometry.depth_levels):
        print(f"occtree query: depth must be in [0, {map_.geometry.depth_levels}]",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        view = map_.state_at((args.x, args.y, args.z), args.depth)
    except OutOfExtentError as exc:
        print(f"occtree query: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"state={view.state} p={view.probability:g} depth={view.depth}")
    return EXIT_OK


def cmd_kernels(args) -> int:
    from . import _kernels_py
    backends = [("python", _kernels_py)]
    try:
        from . import _kernels_cy  # type: ignore[attr-defined]
        backends.append(("compiled", _kernels_cy))
    except ImportError:
        print("compiled kernels not built; benchmarking pure Python only")

    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 1 << 21, size=(3, args.count), dtype=np.uint64)
    segs = rng.uniform(0.0, 256.0, size=(64, 6))
    print(f"active backend: {_kernels.BACKEND}")
    for name, mod in backends:
        t0 = time.perf_counter()
        codes = mod.morton_encode_batch(keys[0], keys[1], keys[2])
        mod.morton_decode_batch(codes)
        t_morton = time.perf_counter() - t0
        t0 = time.perf_counter()
        cells = 0
        for s in segs:
            out = mod.trace_cells(s[0], s[1], s[2], s[3], s[4], s[5],
                                  int(s[0]), int(s[1]), int(s[2]),
                                  int(s[3]), int(s[4]), int(s[5]))
            cells += len(out)
        t_trace = time.perf_counter() - t0
        print(f"{name:>9}: morton {args.count / t_morton / 1e6:8.2f} Mkeys/s   "
              f"trace {cells / t_trace / 1e6:8.3f} Mcells/s")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"build": cmd_build, "bench": cmd_bench,
               "query": cmd_query, "kernels": cmd_kernels}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
