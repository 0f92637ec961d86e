"""Seeded synthetic scenes, an analytic ray caster and scan-file output.

A scene is the inside of an axis-aligned box (a room or a corridor) holding
axis-aligned box obstacles that stand on the floor. A ray cast from inside
the scene ends at the first surface it meets, so every measured point lies
on a wall, the floor, the ceiling or an obstacle. Everything is drawn from a
``numpy.random.Generator`` so one seed always gives the same scene, poses
and scan files.

Run as a script to write the scan set a workload integrates: ``room`` is
the input of room_build and room_query, ``corridor`` that of
corridor_explore::

    python3 perfbench/scene.py --scene room --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

H_FOV = math.radians(115.0)
V_FOV = math.radians(60.0)
SENSOR_HEIGHT = (1.3, 1.7)  # heights of the room scans above the floor, in metres
CLEARANCE = 0.3             # least distance, m: scan origin to obstacle, gain view to wall

ROOM_GRID = (4, 3)          # one room obstacle per cell of this grid over the floor
ROOM_SCANS = 2              # scans of a room scan set
ROOM_POINTS = 500           # points per room scan
CORRIDOR_CLUTTER = 24       # clutter boxes along the corridor
CORRIDOR_STEPS = 30         # scans of a corridor scan set, one per planner step
CORRIDOR_POINTS = 80        # points per corridor scan


@dataclass(frozen=True)
class Scene:
    lo: np.ndarray        # (3,) interior min corner
    hi: np.ndarray        # (3,) interior max corner
    boxes_lo: np.ndarray  # (B, 3) obstacle min corners
    boxes_hi: np.ndarray  # (B, 3) obstacle max corners

    def clear_of_obstacles(self, p) -> bool:
        """Whether ``p`` is at least ``CLEARANCE`` from every obstacle."""
        p = np.asarray(p, dtype=float)
        inside = np.all((self.boxes_lo - CLEARANCE <= p) & (p <= self.boxes_hi + CLEARANCE),
                        axis=1)
        return not bool(inside.any())


# The interiors are offset from the 0.1 m voxel grid so walls do not lie
# exactly on cell boundaries.
def room_scene(rng: np.random.Generator) -> Scene:
    """An 8 x 6 x 3 m room with one 0.6 x 0.6 x 1.2 m obstacle on the floor
    at a random place in each cell of the ``ROOM_GRID`` (12 obstacles).
    Keeping the obstacles alike and spread over a grid keeps the map size
    and how much the obstacles hide from varying much between seeds."""
    nx, ny = ROOM_GRID
    lo = np.array([-3.97, -2.96, 0.03])
    hi = lo + np.array([8.0, 6.0, 3.0])
    cell = np.array([8.0 / nx, 6.0 / ny])
    size = np.array([0.6, 0.6, 1.2])
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    x = lo[0] + ix * cell[0] + rng.uniform(0.05, cell[0] - 0.05 - size[0], nx * ny)
    y = lo[1] + iy * cell[1] + rng.uniform(0.05, cell[1] - 0.05 - size[1], nx * ny)
    boxes_lo = np.column_stack([x, y, np.full(nx * ny, lo[2])])
    return Scene(lo, hi, boxes_lo, boxes_lo + size)


def corridor_scene(rng: np.random.Generator) -> Scene:
    """A 30 x 2 x 2.5 m corridor along x with ``CORRIDOR_CLUTTER`` 0.6 x 0.3
    x 1.0 m boxes against the side walls: one at a random place in each of
    as many equal stretches of the corridor, on a random side. As in the
    room, alike obstacles spread evenly keep the map from varying much
    between seeds."""
    n_clutter = CORRIDOR_CLUTTER
    lo = np.array([-15.03, -0.98, 0.02])
    hi = lo + np.array([30.0, 2.0, 2.5])
    size = np.array([0.6, 0.3, 1.0])
    stretch = (hi[0] - lo[0] - 1.0) / n_clutter
    x = lo[0] + 0.5 + np.arange(n_clutter) * stretch + rng.uniform(0.0, stretch - size[0], n_clutter)
    y = np.where(rng.random(n_clutter) < 0.5, lo[1], hi[1] - size[1])
    boxes_lo = np.column_stack([x, y, np.full(n_clutter, lo[2])])
    return Scene(lo, hi, boxes_lo, boxes_lo + size)


def fov_directions(rng: np.random.Generator, yaw: float, n: int) -> np.ndarray:
    """``n`` unit directions drawn uniformly in azimuth and elevation inside
    the 115 x 60 degree field of view of a level sensor facing ``yaw``."""
    az = yaw + rng.uniform(-H_FOV / 2.0, H_FOV / 2.0, n)
    el = rng.uniform(-V_FOV / 2.0, V_FOV / 2.0, n)
    return np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


def cast(scene: Scene, origin, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First hit of each ray from ``origin`` (inside the scene, outside every
    obstacle). Returns the hit points (N, 3) and a surface id per ray:
    0-5 for the interior faces, 6 + b for obstacle b."""
    origin = np.asarray(origin, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        # leaving the interior: the far face on each axis
        t_wall_axis = np.where(dirs > 0, (scene.hi - origin) * inv,
                               np.where(dirs < 0, (scene.lo - origin) * inv, np.inf))
        wall_axis = np.argmin(t_wall_axis, axis=1)
        t_best = t_wall_axis[np.arange(len(dirs)), wall_axis]
        surface = 2 * wall_axis + (dirs[np.arange(len(dirs)), wall_axis] > 0)
        # entering an obstacle: slab test, all rays against all boxes
        t1 = (scene.boxes_lo[None, :, :] - origin) * inv[:, None, :]
        t2 = (scene.boxes_hi[None, :, :] - origin) * inv[:, None, :]
        t_near = np.nanmax(np.minimum(t1, t2), axis=2)
        t_far = np.nanmin(np.maximum(t1, t2), axis=2)
    hit = (t_near <= t_far) & (t_near > 0.0)
    t_box = np.where(hit, t_near, np.inf)
    if t_box.shape[1]:
        nearest = np.argmin(t_box, axis=1)
        t_near_box = t_box[np.arange(len(dirs)), nearest]
        closer = t_near_box < t_best
        t_best = np.where(closer, t_near_box, t_best)
        surface = np.where(closer, 6 + nearest, surface)
    return origin + t_best[:, None] * dirs, surface


def surface_colors(surface: np.ndarray) -> np.ndarray:
    """A fixed RGB colour per surface id."""
    s = surface.astype(np.int64)
    return np.column_stack([(s * 53 + 40) % 256, (s * 97 + 90) % 256, (s * 151 + 20) % 256])


def sample_position(rng: np.random.Generator, scene: Scene, lo, hi) -> np.ndarray:
    """A point uniform in the box [lo, hi] at least ``CLEARANCE`` from every
    obstacle."""
    for _ in range(1000):
        p = rng.uniform(lo, hi)
        if scene.clear_of_obstacles(p):
            return p
    raise RuntimeError("no obstacle-free position found in 1000 tries")


def room_scans(rng: np.random.Generator, scene: Scene):
    """``ROOM_SCANS`` uncoloured scans of ``ROOM_POINTS`` points from level
    poses spread around the room: scan i is taken near angle 2*pi*i/n on an
    ellipse about the room centre, looking roughly across the room.
    Spreading the poses this way keeps the total ray length, which sets the
    integration cost, steady between seeds."""
    n_scans, n_points = ROOM_SCANS, ROOM_POINTS
    center = (scene.lo + scene.hi) / 2.0
    half = (scene.hi - scene.lo) / 2.0
    scans = []
    for i in range(n_scans):
        angle = 2.0 * math.pi * i / n_scans + rng.uniform(-0.1, 0.1)
        station = np.array([center[0] + 0.6 * half[0] * math.cos(angle),
                            center[1] + 0.6 * half[1] * math.sin(angle), scene.lo[2]])
        origin = sample_position(rng, scene, station + [-0.2, -0.2, SENSOR_HEIGHT[0]],
                                 station + [0.2, 0.2, SENSOR_HEIGHT[1]])
        yaw = angle + math.pi + rng.uniform(-0.1, 0.1)
        points, _ = cast(scene, origin, fov_directions(rng, yaw, n_points))
        scans.append((origin, points, None))
    return scans


def corridor_scans(rng: np.random.Generator, scene: Scene):
    """``CORRIDOR_STEPS`` coloured scans of ``CORRIDOR_POINTS`` points from a
    robot driving down the corridor centre line, facing roughly forward;
    returns (origin, points, colors, yaw) tuples."""
    xs = np.linspace(scene.lo[0] + 0.8, scene.hi[0] - 0.8, CORRIDOR_STEPS)
    y_mid = (scene.lo[1] + scene.hi[1]) / 2.0
    scans = []
    for x in xs:
        origin = np.array([x, y_mid + rng.uniform(-0.1, 0.1), scene.lo[2] + 1.2])
        yaw = rng.uniform(-0.3, 0.3)
        points, surface = cast(scene, origin, fov_directions(rng, yaw, CORRIDOR_POINTS))
        scans.append((origin, points, surface_colors(surface), yaw))
    return scans


def scan_text(origin, points, colors=None) -> str:
    """A scan in the text format ``occtree.read_scan`` parses."""
    lines = ["ORIGIN {:.6f} {:.6f} {:.6f}".format(*origin)]
    if colors is None:
        lines.extend("{:.6f} {:.6f} {:.6f}".format(*p) for p in points)
    else:
        lines.extend("{:.6f} {:.6f} {:.6f} {} {} {}".format(*p, *c)
                     for p, c in zip(points, colors))
    return "\n".join(lines) + "\n"


def write_scans(out_dir: Path, scans) -> None:
    """Write scans as ``000.txt``, ``001.txt``, ... (the order ``occtree
    build`` integrates them in)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, scan in enumerate(scans):
        (out_dir / f"{i:03d}.txt").write_text(scan_text(*scan[:3]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write a workload's seeded synthetic scan set")
    p.add_argument("--scene", choices=("room", "corridor"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.scene == "room":
        scans = room_scans(rng, room_scene(rng))
    else:
        scans = corridor_scans(rng, corridor_scene(rng))
    write_scans(args.out, scans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
