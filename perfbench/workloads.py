"""The three benchmark workloads, driven through occtree's public API.

Each workload is a closed loop: one client in one process, no threads; the
next operation starts when the previous one returns. ``setup`` builds every
input from the seed before timing starts; the query rounds of room_build and
corridor_explore need the built map, so they are drawn, untimed, after the
first build or episode. ``measure`` runs whole units of work (a build, an
exploration episode, a query round) until its time budget is spent, or
exactly the number of units it is given, so a traced run can replay the
work of an untraced one.

occtree is always reached through module attributes (``occtree.cli.main``,
``occtree.read_map``, ...) at call time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import occtree
import occtree.cli

from . import scene as scn
from .tracing import NoTracer

RESOLUTION = 0.1
LEVELS = 16
SPHERE_RADIUS = 0.25
GAIN_R_MAX = 1.0
VIEW_HEIGHT = 1.5  # m above the floor, above every obstacle
GAIN_VARIANTS = ("flat", "exact", "fast")
MODES = ("conservative", "occupied_only")
MAP_READS = 3             # timed reads of each built map

ROUND_SPHERES = 50        # sphere centres per query round, each checked in both modes
ROUND_LINES = 50          # segments per query round, each checked in both modes
ROUND_VIEWS = 2           # candidate views per query round, scored by each gain variant
ROUND_POOL = 100          # query rounds drawn per run; later rounds reuse them
MIN_ROUNDS = 2            # query rounds always run; their answers are hashed

STEP_CHECKS = 10          # sphere and line checks per planner step, each in both modes
CORRIDOR_MAX_RANGE = 8.0

# Query rounds after each room_build build and each corridor_explore episode,
# about as long as the build or episode itself.
ROUNDS_PER_BUILD = 5
ROUNDS_PER_EPISODE = 8
# corridor_explore's rounds score more views: its flat and exact gains come
# from these rounds alone, and fewer views left their median unsettled.
CORRIDOR_ROUND_VIEWS = 6


class Recorder:
    """Samples, operation counts, failures and digests of one pass."""

    def __init__(self):
        self.samples: defaultdict = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.map_digest = None  # SHA-256 of the first map file seen
        self.answers_sha = hashlib.sha256()
        self.busy_s = 0.0  # wall time of the timed units

    def call(self, what: str, fn, *args):
        """Time one occtree operation; an exception counts it as failed.
        Returns (result or None, seconds)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is reported, not fatal
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None, perf_counter() - t0
        return result, perf_counter() - t0

    def check(self, ok: bool, what: str) -> bool:
        """Output check of an operation that returned; failing it fails the
        operation."""
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check_map(self, data: bytes, what: str) -> None:
        """Every map built from the same inputs must have the same bytes."""
        digest = hashlib.sha256(data).hexdigest()
        if self.map_digest is None:
            self.map_digest = digest
        else:
            self.check(digest == self.map_digest, f"{what}: differs from the first one built")


def freeze_inputs() -> None:
    """Move every object alive now, the benchmark's inputs among them, out
    of the garbage collector's reach (``gc.freeze``), so the collections the
    program triggers do not also walk the benchmark's own objects. Without
    this, a map read slowed by up to half, depending on how many inputs a
    run happened to hold."""
    gc.collect()
    gc.freeze()


def _write_bytes(map_) -> bytes:
    buf = io.BytesIO()
    occtree.write_map(map_, buf)
    return buf.getvalue()


def _round_trip(rec: Recorder, data: bytes, what: str, trace):
    """``MAP_READS`` timed ``read_map`` calls on a map file's bytes, then the
    check that writing the loaded map gives the same bytes. Returns the
    loaded map."""
    for _ in range(MAP_READS):
        map_, dt = rec.call(f"{what}: read_map", occtree.read_map, io.BytesIO(data))
        if map_ is None:
            return None
        rec.samples["map.read_s"].append(dt)
        rec.busy_s += dt
    with trace.suspended():
        rec.check(_write_bytes(map_) == data, f"{what}: write -> read -> write changed the bytes")
    rec.samples["map.bytes"].append(len(data))
    return map_


# -- query rounds -----------------------------------------------------------


def free_leaf_centres(map_, box_lo, box_hi, rng, n: int) -> np.ndarray:
    """``n`` centres of leaf cells drawn uniformly from the free leaf cells
    inside the box, found with ``iterate_region`` (a pruned free node counts
    with the leaf cells it covers inside the box)."""
    geo = map_.geometry
    views = list(occtree.iterate_region(map_, occtree.Aabb(tuple(box_lo), tuple(box_hi)),
                                        occtree.StateFilter(free=True)))
    key_lo = np.array(geo.coord_to_key(box_lo)[:3])
    key_hi = np.array(geo.coord_to_key(box_hi)[:3]) + 1
    lo = np.empty((len(views), 3), dtype=np.int64)
    for i, view in enumerate(views):
        lo[i] = occtree.decode(occtree.MortonCode(view.code, view.depth))[:3]
    size = np.array([1 << v.depth for v in views], dtype=np.int64)[:, None]
    lo, hi = np.maximum(lo, key_lo), np.minimum(lo + size, key_hi)
    weights = np.prod(np.maximum(hi - lo, 0), axis=1).astype(float)
    if not weights.sum() > 0:
        raise RuntimeError(f"no free leaf cells between {box_lo} and {box_hi} to place queries at")
    picks = rng.choice(len(views), size=n, p=weights / weights.sum())
    keys = lo[picks] + np.floor(rng.random((n, 3)) * (hi[picks] - lo[picks])).astype(np.int64)
    return np.array([geo.key_to_coord(occtree.VoxelKey(int(k[0]), int(k[1]), int(k[2]), 0))
                     for k in keys])


def _radical_inverse(i: int, base: int) -> float:
    r, f = 0.0, 1.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def candidate_views(sc: scn.Scene, n: int) -> list:
    """``n`` candidate views, as (position, yaw), from the first points of
    the 3-D Halton sequence: bases 2 and 3 place a view on the floor plan,
    ``scn.CLEARANCE`` from the walls and ``VIEW_HEIGHT`` above the floor,
    and base 5 gives its yaw. Every prefix of the sequence covers the floor
    plan and the headings evenly, and the views do not depend on the seed."""
    lo, hi = sc.lo[:2] + scn.CLEARANCE, sc.hi[:2] - scn.CLEARANCE
    views = []
    for i in range(1, n + 1):
        xy = lo + np.array([_radical_inverse(i, 2), _radical_inverse(i, 3)]) * (hi - lo)
        yaw = 2.0 * math.pi * _radical_inverse(i, 5)
        views.append(((xy[0], xy[1], sc.lo[2] + VIEW_HEIGHT), yaw))
    return views


def draw_rounds(map_, sc: scn.Scene, rng, n_views: int) -> list:
    """Inputs of ``ROUND_POOL`` query rounds: sphere centres at free leaves,
    segments between uniform points of the scene interior, and ``n_views``
    candidate views a next-best-view planner would score. One view's gain
    can cost four times another's, mostly by where it is, so the views are
    fixed and evenly spread (``candidate_views``): a median over the few
    views one run scores then varies little between seeds."""
    centres = free_leaf_centres(map_, sc.lo, sc.hi, rng, ROUND_POOL * ROUND_SPHERES)
    centres = centres.reshape(ROUND_POOL, ROUND_SPHERES, 3)
    views = candidate_views(sc, ROUND_POOL * n_views)
    rounds = []
    for r in range(ROUND_POOL):
        spheres = [occtree.Sphere(tuple(c), SPHERE_RADIUS) for c in centres[r]]
        lines = rng.uniform(sc.lo, sc.hi, size=(ROUND_LINES, 2, 3))
        sensors = [occtree.SensorModel(position, occtree.yaw_rotation(yaw), r_max=GAIN_R_MAX)
                   for position, yaw in views[r * n_views:(r + 1) * n_views]]
        rounds.append((spheres, lines, sensors))
    return rounds


def check_spheres(rec: Recorder, map_, spheres, answers: list) -> None:
    for sphere in spheres:
        hit = {}
        for mode in MODES:
            hit[mode], dt = rec.call("region_collision", occtree.region_collision, map_, sphere, mode)
            rec.samples["collision.us"].append(dt * 1e6)
        if None not in hit.values():
            rec.check(hit["conservative"] or not hit["occupied_only"],
                      f"occupied_only collision without a conservative one at {sphere.center}")
        answers.append(("sphere", hit["conservative"], hit["occupied_only"]))


def check_lines(rec: Recorder, map_, lines, answers: list) -> None:
    for p0, p1 in lines:
        hit = {}
        for mode in MODES:
            hit[mode], dt = rec.call("line_collision", occtree.line_collision, map_, p0, p1, mode)
            rec.samples["line.us"].append(dt * 1e6)
        if None not in hit.values():
            rec.check(hit["conservative"] or not hit["occupied_only"],
                      f"occupied_only line hit without a conservative one {p0} -> {p1}")
        answers.append(("line", hit["conservative"], hit["occupied_only"]))


def check_gain(rec: Recorder, map_, sensors, variant: str, answers: list) -> None:
    for sensor in sensors:
        gain, dt = rec.call(f"info_gain {variant}", occtree.info_gain, map_, sensor, variant)
        rec.samples[f"gain_{variant}.ms"].append(dt * 1e3)
        if gain is not None:
            rec.check(gain >= 0, f"info_gain {variant} = {gain} < 0")
        answers.append(("gain", variant, gain))


def query_round(rec: Recorder, map_, rounds: list, index: int) -> None:
    """Query round ``index``, cycling through the drawn rounds. The answers
    of the first ``MIN_ROUNDS`` rounds go into the answer digest."""
    spheres, lines, sensors = rounds[index % len(rounds)]
    answers: list = []
    t0 = perf_counter()
    check_spheres(rec, map_, spheres, answers)
    check_lines(rec, map_, lines, answers)
    for variant in GAIN_VARIANTS:
        check_gain(rec, map_, sensors, variant, answers)
    dt = perf_counter() - t0
    rec.busy_s += dt
    rec.samples["round.ms"].append(dt * 1e3)
    if index < MIN_ROUNDS:
        rec.answers_sha.update(repr(answers).encode())


def run_interleaved(rec: Recorder, main_unit, rounds_per_unit: int, query_map, rounds,
                    budget_s, units) -> int:
    """Alternate whole main units, each followed by ``rounds_per_unit`` query
    rounds on ``query_map()``, until ``budget_s`` is spent, or run exactly
    ``units`` of them. Interleaving makes both kinds of sample span the whole
    run, so a slow spell of the machine does not fall on one kind only; a
    fixed number of rounds per unit keeps the mix of samples the same
    whatever the machine speed. Returns the number of units run."""
    t_end = perf_counter() + (budget_s or 0.0)
    done = 0
    while (done < units) if units is not None else (done == 0 or perf_counter() < t_end):
        main_unit()
        for i in range(done * rounds_per_unit, (done + 1) * rounds_per_unit):
            query_round(rec, query_map(), rounds(), i)
        done += 1
    return done


# -- workloads ----------------------------------------------------------------

ROOM_BUILD_ARGS = ["--integrator", "discrete"]
ROOM_QUERY_ARGS = ["--integrator", "fast", "--fast-n", "1", "--fast-depth", "3"]


def _room_inputs(seed: int, work: Path):
    """The room scene and its scan files, the input of both room workloads."""
    rng = np.random.default_rng(seed)
    sc = scn.room_scene(rng)
    scn.write_scans(work / "scans", scn.room_scans(rng, sc))
    return rng, sc, scn.ROOM_SCANS * scn.ROOM_POINTS


def _build_room(rec: Recorder, work: Path, n_points: int, integrator: list[str], trace):
    """One timed ``occtree build`` of the scan files. Returns the map bytes
    and the per-scan integration times the build wrote to its CSV."""
    map_path, csv_path = work / "room.map", work / "stats.csv"
    argv = ["build", str(work / "scans"), *integrator, "--resolution", str(RESOLUTION),
            "--levels", str(LEVELS), "--auto-prune", "on", "--map", str(map_path),
            "--csv", str(csv_path)]
    code, wall = rec.call("occtree build", occtree.cli.main, argv)
    rec.busy_s += wall
    if code is None or not rec.check(code == 0, f"occtree build returned {code}"):
        return None, []
    rec.samples["build.points_per_s"].append(n_points / wall)
    with trace.suspended():
        with open(csv_path, newline="") as fh:
            scan_ms = [float(row["total_ms"]) for row in csv.DictReader(fh)]
        data = map_path.read_bytes()
        rec.check_map(data, "room map")
    return data, scan_ms


def _need(ctx, key: str):
    if key not in ctx:
        raise RuntimeError(f"no {key} to query: every build failed")
    return ctx[key]


class RoomBuild:
    """``occtree build`` of a room scan set, run in process, then ``read_map``;
    query rounds on the built map are interleaved."""

    name = "room_build"
    step_samples = "step.ms"  # one scan integrated by the build

    def setup(self, seed: int, work: Path, rec: Recorder):
        rng, sc, n_points = _room_inputs(seed, work)
        return {"rng": rng, "scene": sc, "n_points": n_points, "work": work}

    def measure(self, ctx, rec: Recorder, trace, budget_s=None, counts=None) -> dict:
        def build():
            data, scan_ms = _build_room(rec, ctx["work"], ctx["n_points"], ROOM_BUILD_ARGS, trace)
            if data is None:
                return
            rec.samples["step.ms"].extend(scan_ms)
            map_ = _round_trip(rec, data, "room map", trace)
            if map_ is not None:
                ctx["final_map"] = map_
                with trace.suspended():
                    if "rounds" not in ctx:  # drawn once; a replay reuses them
                        ctx["rounds"] = draw_rounds(map_, ctx["scene"], ctx["rng"], ROUND_VIEWS)
                        freeze_inputs()

        units = run_interleaved(rec, build, ROUNDS_PER_BUILD, lambda: _need(ctx, "final_map"),
                                lambda: _need(ctx, "rounds"), budget_s, counts and counts["units"])
        return {"units": units}


class CorridorExplore:
    """A planner loop down a cluttered corridor: each step integrates one
    coloured scan and checks spheres, segments and one gain pose ahead.
    Query rounds on each episode's final map are interleaved."""

    name = "corridor_explore"
    step_samples = "step.ms"  # one planner step

    def setup(self, seed: int, work: Path, rec: Recorder):
        rng = np.random.default_rng(seed)
        sc = scn.corridor_scene(rng)
        steps = []
        for origin, points, colors, yaw in scn.corridor_scans(rng, sc):
            ahead = np.array([[0.0, -0.8, -0.8], [2.0, 0.8, 0.8]])
            centres = origin + rng.uniform(ahead[0], ahead[1], size=(STEP_CHECKS, 3))
            ends = origin + rng.uniform(ahead[0] + [0.5, 0, 0], ahead[1] + [1.0, 0, 0],
                                        size=(STEP_CHECKS, 3))
            steps.append((occtree.Scan(origin, points, colors),
                          [occtree.Sphere(tuple(c), SPHERE_RADIUS) for c in centres],
                          [(origin, e) for e in ends],
                          occtree.SensorModel(tuple(origin), occtree.yaw_rotation(yaw),
                                              r_max=GAIN_R_MAX)))
        config = occtree.IntegratorConfig(method="fast_discrete", fast_n=1, fast_depth=3,
                                          max_range=CORRIDOR_MAX_RANGE)
        return {"rng": rng, "scene": sc, "steps": steps, "config": config}

    def _episode(self, ctx, rec: Recorder, trace, first: bool) -> None:
        map_ = occtree.create_map(RESOLUTION, LEVELS, auto_prune=False, store_color=True)
        answers: list = []
        points = 0
        integrate_s = 0.0
        for scan, spheres, lines, sensor in ctx["steps"]:
            t0 = perf_counter()
            result, dt = rec.call("integrate", occtree.integrate, map_, scan, ctx["config"])
            if result is not None:
                points += len(scan.points)
                integrate_s += dt
            check_spheres(rec, map_, spheres, answers)
            check_lines(rec, map_, lines, answers)
            check_gain(rec, map_, [sensor], "fast", answers)
            dt = perf_counter() - t0
            rec.busy_s += dt
            rec.samples["step.ms"].append(dt * 1e3)
        if integrate_s > 0.0:
            rec.samples["build.points_per_s"].append(points / integrate_s)
        with trace.suspended():
            data = _write_bytes(map_)
            rec.check_map(data, "corridor map")
            if first:
                rec.answers_sha.update(repr(answers).encode())
            if "rounds" not in ctx:  # drawn once; a replay reuses them
                ctx["rounds"] = draw_rounds(map_, ctx["scene"], ctx["rng"], CORRIDOR_ROUND_VIEWS)
                freeze_inputs()
        _round_trip(rec, data, "corridor map", trace)
        ctx["final_map"] = map_

    def measure(self, ctx, rec: Recorder, trace, budget_s=None, counts=None) -> dict:
        episodes = []

        def episode():
            self._episode(ctx, rec, trace, first=not episodes)
            episodes.append(1)

        units = run_interleaved(rec, episode, ROUNDS_PER_EPISODE, lambda: ctx["final_map"],
                                lambda: ctx["rounds"], budget_s, counts and counts["units"])
        return {"units": units}


class RoomQuery:
    """Read-only query rounds on a room map built with ``occtree build``
    (fast integrator, denser scans) and round-tripped in set-up."""

    name = "room_query"
    step_samples = "round.ms"  # one query round

    def setup(self, seed: int, work: Path, rec: Recorder):
        rng, sc, n_points = _room_inputs(seed, work)
        data, _ = _build_room(rec, work, n_points, ROOM_QUERY_ARGS, NoTracer())
        map_ = None if data is None else _round_trip(rec, data, "room map", NoTracer())
        if map_ is None:
            raise RuntimeError("set-up build failed: " + "; ".join(rec.failures))
        return {"rng": rng, "scene": sc, "final_map": map_,
                "rounds": draw_rounds(map_, sc, rng, ROUND_VIEWS)}

    def measure(self, ctx, rec: Recorder, trace, budget_s=None, counts=None) -> dict:
        t_end = perf_counter() + (budget_s or 0.0)
        n = 0
        while (n < counts["rounds"]) if counts else (n < MIN_ROUNDS or perf_counter() < t_end):
            query_round(rec, ctx["final_map"], ctx["rounds"], n)
            n += 1
        return {"rounds": n}


WORKLOADS = {w.name: w for w in (RoomBuild(), CorridorExplore(), RoomQuery())}
