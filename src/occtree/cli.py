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

from .core import OccupancyConfig, OccupancyMap, logit
from .errors import OutOfExtentError, ScanFormatError
from .integrate import IntegratorConfig, _check_fast_depth, _clip_box, integrate
from .io import read_map, read_scan, write_csv_stats, write_map
from .morton import decode_batch
from .query import StateFilter, info_gain, iterate_region, line_collision, region_collision
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
    p.add_argument("--hit", type=_probability, default=0.7, help="hit probability")
    p.add_argument("--miss", type=_probability, default=0.4, help="miss probability")
    p.add_argument("--clamp-min", type=_probability, default=0.12,
                   help="lower clamp probability")
    p.add_argument("--clamp-max", type=_probability, default=0.97,
                   help="upper clamp probability")
    p.add_argument("--tf", type=_probability, default=0.5,
                   help="free-state probability threshold")
    p.add_argument("--to", type=_probability, default=0.5,
                   help="occupied-state probability threshold")
    p.add_argument("--auto-prune", choices=("on", "off"), default="on")


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan  # fails every range check below


def _radius(text: str) -> float:
    value = _number(text)
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _probability(text: str) -> float:
    value = _number(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"must be a number strictly between 0 and 1, "
                                         f"got {text!r}")
    return value


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
    q.add_argument("--radius", type=_radius, default=0.25,
                   help="collision sphere radius in meters (finite, > 0)")
    q.add_argument("--csv", type=Path, default=None)

    g = sub.add_parser("query", help="classify one point of a map file")
    g.add_argument("map_file", type=Path)
    g.add_argument("x", type=float)
    g.add_argument("y", type=float)
    g.add_argument("z", type=float)
    g.add_argument("--depth", type=int, default=0)
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
        # a region outside the extent, or a fast depth not below the
        # levels, is a config error
        _clip_box(map_.geometry, region)
        _check_fast_depth(map_.geometry, icfg)
    except ValueError as exc:
        print(f"occtree build: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not args.scan_dir.is_dir():
        print(f"occtree build: not a directory: {args.scan_dir}", file=sys.stderr)
        return EXIT_IO

    rows = []
    for scan_path in sorted(p for p in args.scan_dir.iterdir() if p.is_file()):
        try:
            with open(scan_path, encoding="utf-8") as fh:
                scan = read_scan(fh)
        except (OSError, ScanFormatError) as exc:
            print(f"occtree build: {scan_path}: {exc}", file=sys.stderr)
            return EXIT_IO
        except UnicodeDecodeError:
            print(f"occtree build: {scan_path}: not a UTF-8 text scan file", file=sys.stderr)
            return EXIT_IO
        try:
            result = integrate(map_, scan, icfg)
        except (OutOfExtentError, ValueError) as exc:
            print(f"occtree build: {scan_path}: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        if args.csv is None:
            continue
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


def _free_leaf_centres(map_: OccupancyMap, rng, n: int) -> np.ndarray | None:
    """``n`` centres of leaf cells, as an (n, 3) array, drawn uniformly from
    the map's free leaf cells; None if it has none. A free node at depth d
    counts with the 8**d leaf cells it covers."""
    geo = map_.geometry
    half = geo.half_extent
    views = list(iterate_region(map_, Aabb((-half,) * 3, (half,) * 3), StateFilter(free=True)))
    if not views:
        return None
    side = np.array([1 << v.depth for v in views])
    weights = side.astype(float) ** 3
    picks = rng.choice(len(views), size=n, p=weights / weights.sum())
    lo = np.stack(decode_batch([views[i].code for i in picks.tolist()]), axis=1)
    keys = lo.astype(np.int64) + (rng.random((n, 3)) * side[picks, None]).astype(np.int64)
    return (keys - (1 << (geo.depth_levels - 1))) * geo.resolution + geo.resolution / 2


def cmd_bench(args) -> int:
    if args.count <= 0:
        print("occtree bench: count must be > 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        map_ = _load_map(args.map_file)
    except (OSError, ValueError) as exc:
        print(f"occtree bench: {args.map_file}: {exc}", file=sys.stderr)
        return EXIT_IO

    rng = np.random.default_rng(args.seed)
    points = _free_leaf_centres(map_, rng, args.count * (2 if args.suite == "line" else 1))
    if points is None:
        print("occtree bench: the map has no free leaf cell", file=sys.stderr)
        return EXIT_PRECONDITION
    rows = []
    hits = total_us = 0

    if args.suite == "collision":
        for i, center in enumerate(points):
            sphere = Sphere(tuple(center), args.radius)
            t0 = time.perf_counter()
            conservative = region_collision(map_, sphere, "conservative")
            t1 = time.perf_counter()
            occupied_only = region_collision(map_, sphere, "occupied_only")
            t2 = time.perf_counter()
            hits += conservative
            total_us += (t1 - t0) * 1e6
            rows.append({"idx": i, "x": center[0], "y": center[1],
                         "z": center[2], "conservative": int(conservative),
                         "occupied_only": int(occupied_only),
                         "us_conservative": (t1 - t0) * 1e6,
                         "us_occupied_only": (t2 - t1) * 1e6})
        print(f"collision: {total_us / args.count:.2f} us/pose, "
              f"fraction in collision {hits / args.count:.3f}")
    elif args.suite == "line":
        for i, (p0, p1) in enumerate(points.reshape(-1, 2, 3)):
            t0 = time.perf_counter()
            conservative = line_collision(map_, p0, p1, "conservative")
            t1 = time.perf_counter()
            occupied_only = line_collision(map_, p0, p1, "occupied_only")
            t2 = time.perf_counter()
            total_us += (t1 - t0) * 1e6
            rows.append({"idx": i, "x0": p0[0], "y0": p0[1], "z0": p0[2],
                         "x1": p1[0], "y1": p1[1], "z1": p1[2],
                         "conservative": int(conservative),
                         "occupied_only": int(occupied_only),
                         "us_conservative": (t1 - t0) * 1e6,
                         "us_occupied_only": (t2 - t1) * 1e6})
        print(f"line: {total_us / args.count:.2f} us/line")
    else:  # gain
        for i, pos in enumerate(points):
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"build": cmd_build, "bench": cmd_bench,
               "query": cmd_query}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
