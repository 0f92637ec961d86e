"""Map serialization, scan-file parsing, and stats CSV output.

Map file layout (little-endian, canonical):

* header: magic ``UFOS1``; resolution f64; depth_levels u8; t_free, t_occ,
  clamp_min, clamp_max f32; flags u8 (bit0 = color present); node_count u64.
* records in preorder (Morton child order 0..7): occupancy f32; flag u8
  (bit0 = has 8 children); 3 color bytes when the color flag is set.

Every record holds its node's occupancy, an inner node's max-of-children
included. Indicators are not stored. The loader recomputes the inner values
and indicators, and warns when a stored inner value disagrees. It turns
auto-prune off exactly when the file holds an inner node whose eight
children are the same, so the loaded map keeps its invariants and writes
back byte-identical.
"""

from __future__ import annotations

import csv
import struct
import warnings
from typing import Optional

import numpy as np

from .core import Node, OccupancyConfig, OccupancyMap, _color_u8, _f32
from .errors import MapFormatError, ScanFormatError
from .integrate import Scan

MAGIC = b"UFOS1"
_HEADER = struct.Struct("<5sdBffffBQ")
_REC = struct.Struct("<fB")
_REC_COLOR = struct.Struct("<fB3B")

CSV_FIELDS = ["scan", "method", "total_ms", "raytrace_ms", "insert_ms",
              "cells_freed", "cells_occupied", "nodes_total", "nodes_leaf",
              "bytes_model", "points_nonfinite", "inner_refreshed"]


def write_map(map_: OccupancyMap, sink) -> int:
    """Serialize the tree in canonical form; returns bytes written."""
    cfg = map_.config
    stats = map_.tree_stats()
    flags = 1 if map_.store_color else 0
    written = sink.write(_HEADER.pack(MAGIC, map_.geometry.resolution,
                                      map_.geometry.depth_levels,
                                      cfg.t_free, cfg.t_occ,
                                      cfg.clamp_min, cfg.clamp_max,
                                      flags, stats.total))
    stack = [map_.root]
    color = map_.store_color
    while stack:
        node = stack.pop()
        has_children = node.children is not None
        if color:
            c = _color_u8(node.color) or (0, 0, 0)
            written += sink.write(_REC_COLOR.pack(node.value, 1 if has_children else 0,
                                                  c[0], c[1], c[2]))
        else:
            written += sink.write(_REC.pack(node.value, 1 if has_children else 0))
        if has_children:
            stack.extend(reversed(node.children))
    return written


def read_map(source) -> OccupancyMap:
    """Rebuild a map from a stream; recomputes max-of-children values and
    all indicators. Raises MapFormatError with the byte offset on bad
    input, including a value that is NaN or outside the clamps and a node
    with children at leaf depth; repairs (with a warning) stored inner
    values that disagree with their children's max. The map has auto-prune
    on unless the file holds an inner node whose children are all the same
    (written with auto-prune off, or a black leaf among uncolored ones,
    which the file stores alike); then it is off, and no node collapses."""
    data = source.read()
    if len(data) < _HEADER.size:
        raise MapFormatError(len(data), "truncated header")
    magic, resolution, depth_levels, t_free, t_occ, clamp_min, clamp_max, \
        flags, node_count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise MapFormatError(0, f"bad magic {magic!r}")
    try:
        config = OccupancyConfig(
            clamp_min=clamp_min, clamp_max=clamp_max, t_free=t_free, t_occ=t_occ,
            prior_log_odds=min(max(0.0, _f32(clamp_min)), _f32(clamp_max)))
        map_ = OccupancyMap(resolution, depth_levels, config,
                            store_color=bool(flags & 1))
    except ValueError as exc:
        raise MapFormatError(5, f"invalid header field: {exc}") from exc

    has_color = bool(flags & 1)
    rec = _REC_COLOR if has_color else _REC
    lo, hi = config.clamp_min, config.clamp_max
    offset = _HEADER.size
    count = 0
    inner: list[Node] = []  # children before parents
    stored: list[float] = []

    def read_node(depth: int) -> Node:
        nonlocal offset, count
        if offset + rec.size > len(data):
            raise MapFormatError(offset, "truncated node record")
        fields = rec.unpack_from(data, offset)
        offset += rec.size
        count += 1
        if count > node_count:
            raise MapFormatError(offset, f"more records than header count {node_count}")
        # every value a map holds, the prior included, lies within the
        # clamps; a value read as f32 needs no further rounding
        value = fields[0]
        if not (lo <= value <= hi):
            raise MapFormatError(offset - rec.size, f"occupancy {value} outside [{lo}, {hi}]")
        node = Node(value)
        if has_color and fields[2:] != (0, 0, 0):
            node.color = (float(fields[2]), float(fields[3]), float(fields[4]))
            node.color_n = 1
        if fields[1] & 1:
            if depth == 0:
                raise MapFormatError(offset - rec.size, "children below leaf depth")
            node.children = [read_node(depth - 1) for _ in range(8)]
            inner.append(node)
            stored.append(value)
        return node

    map_.root = read_node(depth_levels)
    if count != node_count:
        raise MapFormatError(offset, f"header count {node_count}, found {count} records")
    if offset != len(data):
        raise MapFormatError(offset, "trailing bytes after last record")
    map_._propagate(inner, False)
    map_.auto_prune = not any(node.all_same for node in inner)
    if [node.value for node in inner] != stored:
        warnings.warn("stored inner occupancy disagreed with children's max; repaired",
                      stacklevel=2)
    return map_


def read_scan(source) -> Scan:
    """Parse a text scan: an ORIGIN line followed by "x y z" or
    "x y z r g b" point lines. '#' comments and blank lines are skipped."""
    origin = None
    points: list[tuple[float, float, float]] = []
    colors: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if origin is None:
            if fields[0] != "ORIGIN" or len(fields) != 4:
                raise ScanFormatError(lineno, "expected 'ORIGIN x y z'")
            try:
                origin = tuple(float(v) for v in fields[1:])
            except ValueError as exc:
                raise ScanFormatError(lineno, f"bad origin: {exc}") from exc
            continue
        if len(fields) not in (3, 6):
            raise ScanFormatError(lineno, f"expected 3 or 6 fields, got {len(fields)}")
        try:
            xyz = tuple(float(v) for v in fields[:3])
        except ValueError as exc:
            raise ScanFormatError(lineno, f"bad coordinate: {exc}") from exc
        if len(fields) == 6:
            if points and not colors:
                raise ScanFormatError(lineno, "mixed colored and uncolored points")
            try:
                rgb = tuple(int(v) for v in fields[3:])
            except ValueError as exc:
                raise ScanFormatError(lineno, f"bad color: {exc}") from exc
            if any(not (0 <= v <= 255) for v in rgb):
                raise ScanFormatError(lineno, "color components must be in 0..255")
            colors.append(rgb)
        elif colors:
            raise ScanFormatError(lineno, "mixed colored and uncolored points")
        points.append(xyz)
    if origin is None:
        raise ScanFormatError(1, "missing ORIGIN line")
    return Scan(np.array(origin),
                np.array(points, dtype=float).reshape(-1, 3),
                np.array(colors, dtype=np.uint8) if colors else None)


def write_csv_stats(rows, sink) -> None:
    """One row per integrated scan; fixed column order."""
    writer = csv.DictWriter(sink, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in CSV_FIELDS})
