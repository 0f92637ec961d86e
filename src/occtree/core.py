"""The occupancy octree.

Every node carries a clamped log-odds occupancy value. Inner nodes hold the
maximum over their children (conservative for coarse queries) plus three
indicators: subtree contains free space, subtree contains unknown space, and
all eight children identical (prunable). A node has either no children or
exactly eight, so unknown space is represented explicitly.

Every write (a leaf batch, a coarse write, a prune) first changes nodes and
then hands the inner nodes it touched, children before parents, to one
propagation pass that refreshes each of them and collapses the all-same
ones when pruning. Leaf batches and coarse writes made inside one batch
scope share that pass: it runs once, when the scope closes. A map that
stores color with auto-prune on makes each write's collapses at once
instead, since a collapse copies a color into the parent.

Occupancy values are quantized to 32-bit float precision on every write so
the in-memory tree matches its serialized form bit for bit.
"""

from __future__ import annotations

import enum
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import MortonCode, TreeGeometry, VoxelKey
from .morton import encode


def _f32(x: float) -> float:
    return float(np.float32(x))


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def probability(log_odds: float) -> float:
    return 1.0 / (1.0 + math.exp(-log_odds))


class NodeState(enum.Enum):
    OCCUPIED = "occupied"
    FREE = "free"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class OccupancyConfig:
    """Log-odds fusion parameters and the dual classification thresholds.

    Defaults: p_hit = 0.7, p_miss = 0.4, clamps at probabilities 0.12 / 0.97,
    and t_free = t_occ = 0.5 so never-observed space classifies unknown.
    """

    log_hit: float = field(default_factory=lambda: logit(0.7))
    log_miss: float = field(default_factory=lambda: logit(0.4))
    clamp_min: float = field(default_factory=lambda: logit(0.12))
    clamp_max: float = field(default_factory=lambda: logit(0.97))
    t_free: float = 0.5
    t_occ: float = 0.5
    prior_log_odds: float = 0.0

    def __post_init__(self):
        # quantize everything that ends up in the map file header
        for name in ("clamp_min", "clamp_max", "t_free", "t_occ"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        if not (self.log_hit > 0.0 > self.log_miss):
            raise ValueError("log_hit must be > 0 and log_miss < 0")
        if not (self.clamp_min <= self.prior_log_odds <= self.clamp_max):
            raise ValueError("prior_log_odds must lie within the clamp bounds")
        if not (0.0 < self.t_free <= self.t_occ < 1.0):
            raise ValueError("thresholds must satisfy 0 < t_free <= t_occ < 1")
        if logit(self.t_free) < self.clamp_min:
            warnings.warn(
                "logit(t_free) below clamp_min: no node can ever classify free",
                stacklevel=2,
            )


class Node:
    """Tree node. ``children`` is None (leaf / inner-leaf) or a list of 8."""

    __slots__ = ("value", "children", "contains_free", "contains_unknown",
                 "all_same", "color", "color_n")

    def __init__(self, value: float, color=None, color_n: int = 0):
        self.value = value
        self.children: Optional[list[Node]] = None
        self.contains_free = False
        self.contains_unknown = False
        self.all_same = True
        self.color = color  # (r, g, b) floats, running average
        self.color_n = color_n


def _check_colors(count: int, colors) -> None:
    """Scan's rule for the colors of a batch of ``count`` leaves: one color
    or None per leaf, each three finite components in 0..255, else a
    ValueError."""
    if len(colors) != count:
        raise ValueError(f"colors length {len(colors)} != codes length {count}")
    given = [c for c in colors if c is not None]
    if given:
        try:
            rgb = np.asarray(given, dtype=float)
        except (TypeError, ValueError):
            rgb = None  # ragged or not numbers
        if rgb is None or rgb.shape != (len(given), 3) or not np.all((rgb >= 0) & (rgb <= 255)):
            raise ValueError("color components must be three finite values in 0..255")


def _color_u8(color) -> Optional[tuple[int, int, int]]:
    if color is None:
        return None
    return (int(round(color[0])), int(round(color[1])), int(round(color[2])))


def _all_same(children: list[Node]) -> bool:
    """Whether eight children are childless with one value and one 8-bit
    color, so that their parent may collapse."""
    first = children[0]
    v0, c0 = first.value, first.color
    u0 = _color_u8(c0)
    return all(child.children is None and child.value == v0
               and (child.color is c0 or _color_u8(child.color) == u0)
               for child in children)


@dataclass(frozen=True)
class NodeView:
    """Snapshot of one node as seen by a query."""

    code: int
    depth: int
    value: float
    probability: float
    state: NodeState
    color: Optional[tuple[int, int, int]] = None


@dataclass(frozen=True)
class TreeStats:
    inner: int
    inner_leaf: int
    leaf: int

    @property
    def total(self) -> int:
        return self.inner + self.inner_leaf + self.leaf

    @property
    def leaf_fraction(self) -> float:
        return self.leaf / self.total

    @property
    def bytes_model(self) -> int:
        # reporting model: 16 bytes per inner / inner-leaf, 4 per leaf
        return 16 * (self.inner + self.inner_leaf) + 4 * self.leaf


class OccupancyMap:
    """Occupancy octree over a cube of side ``2**depth_levels * resolution``
    centered on the origin.

    Leaf updates go through ``update_occupancy``, which takes one leaf code
    or a batch of them: a batch first applies every delta to its leaf, then
    refreshes each touched inner node once, deepest first.

    Each public write propagates before it returns. ``integrate`` instead
    makes a scan's free pass (its miss batches and coarse writes) inside one
    batch scope, ``_scope``: the inner nodes above the changed ones stay
    pending and are refreshed once, deepest first, when the scope closes,
    also when a write inside it raises. Inside the scope ``set_coarse``
    refreshes the pending nodes within its target cell before it writes,
    and its returned stop depth may be deeper than outside while a
    collapse above the cell is deferred; the map is the same. A map that
    stores color with auto-prune on defers no collapse: each write
    collapses the all-same nodes above it at once, and only the refresh of
    the other inner nodes waits for the scope to close.

    Single writer; concurrent readers are allowed only while ``auto_prune``
    is off and no manual prune is running (the tree is then grow-only and
    readers treat all-same inner nodes as leaves). While a batch update
    runs, or a batch scope is open (a whole free pass of ``integrate``), a
    reader may see an inner node's maximum and indicators from before it;
    every value it sees is still a clamped log-odds value (or the prior)
    classified by that value, at a valid depth.
    """

    def __init__(self, resolution: float, depth_levels: int,
                 config: Optional[OccupancyConfig] = None,
                 auto_prune: bool = True, store_color: bool = False):
        self.geometry = TreeGeometry(resolution, depth_levels)
        self.config = config if config is not None else OccupancyConfig()
        self.auto_prune = auto_prune
        self.store_color = store_color
        self.root = Node(_f32(self.config.prior_log_odds))
        self._lo_free = logit(self.config.t_free)
        self._lo_occ = logit(self.config.t_occ)
        # instrumentation: descents past an all-same inner node by readers
        self.reader_allsame_descents = 0
        # instrumentation: inner-node refreshes made so far
        self.inner_refreshes = 0
        # while a batch scope is open: per depth, the inner nodes whose
        # refresh is deferred to the scope's close
        self._pending: Optional[list[set[Node]]] = None
        # the scope's write trail: _trail[d] is the node at depth d on the
        # latest descent of a leaf or coarse write, toward code _trail_code;
        # the node at _trail_depth is in the tree and every one above it is
        # pending
        self._trail: list[Optional[Node]] = []
        self._trail_code = 0
        self._trail_depth = 0

    # -- classification ---------------------------------------------------

    def state_of(self, log_odds: float) -> NodeState:
        if log_odds > self._lo_occ:
            return NodeState.OCCUPIED
        if log_odds < self._lo_free:
            return NodeState.FREE
        return NodeState.UNKNOWN

    def clamp(self, log_odds: float) -> float:
        cfg = self.config
        return _f32(min(max(log_odds, cfg.clamp_min), cfg.clamp_max))

    # -- lookup -----------------------------------------------------------

    def get_node(self, code: MortonCode | int, depth: int | None = None) -> NodeView:
        """Descend toward the requested node; stops early at childless (or
        all-same) nodes, whose max-occupancy answer covers the subtree.
        A code outside ``[0, 8**depth_levels)`` or a depth outside
        ``[0, depth_levels]`` is a ValueError, and a code or depth that is
        not an integer a TypeError."""
        if isinstance(code, MortonCode):
            raw, target = code
        else:
            raw, target = code, 0
        if depth is not None:
            target = depth
        raw, target = index(raw), index(target)
        self._check_codes(raw, raw)
        levels = self.geometry.depth_levels
        if not 0 <= target <= levels:
            raise ValueError(f"depth {target} outside [0, {levels}]")
        node, reached = self._descend(raw, target)
        return self._view(node, raw, reached)

    def _descend(self, raw_code: int, target_depth: int) -> tuple[Node, int]:
        node = self.root
        depth = self.geometry.depth_levels
        while depth > target_depth:
            children = node.children
            if children is None or node.all_same:
                break
            node = children[(raw_code >> (3 * (depth - 1))) & 7]
            depth -= 1
        return node, depth

    def _view(self, node: Node, raw_code: int, depth: int) -> NodeView:
        v = node.value
        mask = ~((1 << (3 * depth)) - 1)
        return NodeView(raw_code & mask, depth, v, probability(v),
                        self.state_of(v), _color_u8(node.color))

    def state_at(self, coord, depth: int = 0) -> NodeView:
        key = self.geometry.coord_to_key(coord, depth)
        return self.get_node(encode(key))

    # -- mutation ---------------------------------------------------------

    def update_occupancy(self, code: MortonCode | int | Sequence[int], delta: float,
                         color=None) -> Optional[NodeState]:
        """Add ``delta`` to the clamped log-odds value of one leaf or of a
        batch of leaves, and return the state of the last leaf updated
        (None for an empty batch).

        ``code`` is one leaf code (an int, a NumPy integer or a depth-0
        ``MortonCode``) with an optional ``color``, or a sequence of leaf
        codes (ints or NumPy integers, such as an integer array) with an
        optional sequence of colors, one per code. A batch
        applies its deltas to the leaves in order, each clamped and rounded
        to float32 as a single update is, materializing paths as it goes;
        it then refreshes every touched inner node once, deepest first,
        collapsing all-same nodes when auto-prune is on. Every invariant
        holds again when the call returns, unless it runs inside a batch
        scope, which refreshes when it closes. A map that stores color with
        auto-prune on collapses the all-same nodes above each leaf as soon
        as its color is fused, because a collapse copies its first child's
        color and deferring it could change the map. A NaN ``delta``, a
        code outside ``[0, 8**depth_levels)`` and, on a map that stores
        color, a color sequence of another length than the batch or a color
        that is not three finite components in 0..255 are a ValueError, and
        a code, depth or batch element that is not an integer a TypeError,
        raised before any node changes.
        """
        if math.isnan(delta):
            raise ValueError("update_occupancy delta must not be NaN")
        if isinstance(code, MortonCode):
            if index(code.depth) != 0:
                raise ValueError("update_occupancy requires a leaf-depth code")
            code, color = (index(code.code),), (color,)
        elif isinstance(code, (int, np.integer)):
            code, color = (index(code),), (color,)
        elif len(code) == 0:
            return None
        else:
            # NumPy integers become Python ints; any other element is a
            # TypeError here, before a node changes
            code = list(map(index, code))
        self._check_codes(min(code), max(code))
        if self.store_color and color is not None:
            _check_colors(len(code), color)
        with self._scope():
            return self._update_leaves(code, delta, color)

    def _check_codes(self, lo: int, hi: int) -> None:
        levels = self.geometry.depth_levels
        if lo < 0 or hi >= 1 << (3 * levels):
            raise ValueError(f"code {lo if lo < 0 else hi} outside [0, 8**{levels})")

    @contextmanager
    def _scope(self):
        """A batch scope: writes inside it leave the inner nodes above their
        changes pending, and one propagation pass refreshes those, deepest
        first, when the scope closes, even on an exception. A scope opened
        inside another joins it."""
        if self._pending is not None:
            yield
            return
        levels = self.geometry.depth_levels
        self._pending = [set() for _ in range(levels + 1)]
        self._trail = [None] * levels + [self.root]
        self._trail_depth = levels
        try:
            yield
        finally:
            pending, self._pending = self._pending, None
            self._propagate(chain.from_iterable(pending), self.auto_prune)

    def _update_leaves(self, codes, delta: float, colors) -> Optional[NodeState]:
        cfg = self.config
        lo, hi = cfg.clamp_min, cfg.clamp_max
        fuse = self.store_color and colors is not None
        collapse_now = self.store_color and self.auto_prune
        # trail[d]: node at depth d on the scope's latest descent;
        # touched[d]: the scope's pending inner nodes at depth d
        trail = self._trail
        touched = self._pending
        expand = self._expand
        prev, floor = self._trail_code, self._trail_depth
        leaf = None
        for i, raw in enumerate(codes):
            # the descent resumes on the trail at the deepest node shared
            # with the last code that is still in the tree
            d = ((raw ^ prev).bit_length() + 2) // 3
            if d < floor:
                d = floor
            prev = raw
            node = trail[d]
            while d > 0:
                if node.children is None:
                    expand(node)
                touched[d].add(node)
                node = node.children[(raw >> (3 * (d - 1))) & 7]
                d -= 1
                trail[d] = node
            leaf = node
            v = leaf.value + delta
            leaf.value = _f32(lo if v < lo else hi if v > hi else v)
            if fuse and colors[i] is not None:
                self._fuse_color(leaf, colors[i])
            floor = self._collapse_up(0) if collapse_now else 0
        self._trail_code, self._trail_depth = prev, floor
        return None if leaf is None else self.state_of(leaf.value)

    def _collapse_up(self, depth: int) -> int:
        """Collapse the nodes on the trail above the one just written at
        ``depth`` while their children are the same, taking each out of the
        scope's pending nodes; returns the depth of the highest collapse,
        or ``depth`` when there is none."""
        trail, pending = self._trail, self._pending
        while depth < self.geometry.depth_levels and _all_same(trail[depth + 1].children):
            depth += 1
            node = trail[depth]
            self._refresh(node)
            self._collapse(node)
            pending[depth].discard(node)
        return depth

    def set_coarse(self, code: MortonCode, value: float) -> int:
        """Overwrite a coarse cell with ``value`` unless (parts of) it are
        occupied: occupied children are preserved by recursing one level at a
        time down to leaves. Returns the depth at which the write stopped.
        A NaN ``value`` or a code outside ``[0, 8**depth_levels)`` is a
        ValueError, and a ``code`` that is not a ``MortonCode`` of integers
        a TypeError, raised before any node changes. Inside a batch scope
        the root path is refreshed when the scope closes."""
        if not isinstance(code, MortonCode):
            raise TypeError(f"set_coarse requires a MortonCode, got {type(code).__name__}")
        raw, depth = index(code.code), index(code.depth)
        if not (0 < depth <= self.geometry.depth_levels):
            raise ValueError("set_coarse requires depth in (0, depth_levels]")
        if math.isnan(value):
            raise ValueError("set_coarse value must not be NaN")
        self._check_codes(raw, raw)
        v = self.clamp(value)
        if self._pending is not None:  # joins the open scope, skipping the with
            return self._write_coarse(raw, depth, v)
        with self._scope():
            return self._write_coarse(raw, depth, v)

    def _write_coarse(self, raw: int, target: int, v: float) -> int:
        # the descent resumes on the trail at the deepest node shared with
        # the last write that is still in the tree
        trail = self._trail
        shared = ((raw ^ self._trail_code).bit_length() + 2) // 3
        top = max(shared, self._trail_depth, target)
        self._trail_code = raw
        self._trail_depth = top
        node = trail[top]
        depth = top
        while depth > target:
            if node.children is None:
                if self.state_of(node.value) is NodeState.OCCUPIED:
                    return depth  # uniform occupied: rule leaves it untouched
                if node.value == v and node.color is None:
                    return depth  # already holds the target value
                self._expand(node)
            node = node.children[(raw >> (3 * (depth - 1))) & 7]
            depth -= 1
            trail[depth] = node
        # _apply_coarse reads the values inside the cell: refresh what
        # earlier writes of the scope left pending there
        self._propagate(self._settle(node, depth, []), self.auto_prune)
        changed: list[Node] = []
        self._apply_coarse(node, depth, v, changed)
        self._propagate(changed, self.auto_prune)
        pending = self._pending
        for d in range(depth + 1, top + 1):
            pending[d].add(trail[d])
        self._trail_depth = (self._collapse_up(depth) if self.store_color and self.auto_prune
                             else depth)
        return depth

    def _settle(self, node: Node, depth: int, out: list[Node]) -> list[Node]:
        """Take the pending nodes of ``node``'s subtree out of the open
        scope and append them to ``out``, children before parents. A write
        leaves every node above the ones it changed pending, so the pending
        nodes of a subtree hang from its root."""
        pending = self._pending[depth]
        if node in pending:
            pending.remove(node)
            for child in node.children:
                self._settle(child, depth - 1, out)
            out.append(node)
        return out

    def _apply_coarse(self, node: Node, depth: int, v: float, changed: list[Node]) -> None:
        # appends each occupied inner node it recurses through to
        # ``changed``, after that node's children
        if self.state_of(node.value) is not NodeState.OCCUPIED:
            node.children = None
            node.value = v
            node.color = None
            node.color_n = 0
            node.all_same = True
            return
        if depth == 0 or node.children is None:
            return  # occupied leaf or uniform occupied subtree: untouched
        for child in node.children:
            self._apply_coarse(child, depth - 1, v, changed)
        changed.append(node)

    def prune(self) -> int:
        """Collapse every inner node with 8 identical childless children,
        bottom-up until fixpoint. Returns the number of nodes removed."""
        levels = self._inner_levels()
        if self._pending is not None:
            for pending in self._pending:
                pending.clear()  # the pass below refreshes every inner node
            self._trail_depth = self.geometry.depth_levels  # and may collapse any
        return 8 * self._propagate(chain.from_iterable(reversed(levels)), True)

    def _propagate(self, nodes: Iterable[Node], collapse: bool) -> int:
        """Refresh ``nodes``, given children before parents, and collapse the
        all-same ones when ``collapse`` is set; returns how many collapsed."""
        collapsed = 0
        for node in nodes:
            self._refresh(node)
            if collapse and node.all_same:
                self._collapse(node)
                collapsed += 1
        return collapsed

    # -- internals --------------------------------------------------------

    def _expand(self, node: Node) -> None:
        kids = [Node(node.value, node.color, node.color_n) for _ in range(8)]
        st = self.state_of(node.value)
        node.contains_free = st is NodeState.FREE
        node.contains_unknown = st is NodeState.UNKNOWN
        node.all_same = True
        node.children = kids  # assigned last so readers see a complete block

    def _refresh(self, node: Node) -> None:
        self.inner_refreshes += 1
        lo_free, lo_occ = self._lo_free, self._lo_occ  # state_of, inlined
        children = node.children
        best = -math.inf
        cf = cu = False
        for child in children:
            v = child.value
            if v > best:
                best = v
            if child.children is None:
                if v > lo_occ:
                    pass
                elif v < lo_free:
                    cf = True
                else:
                    cu = True
            else:
                cf = cf or child.contains_free
                cu = cu or child.contains_unknown
        node.contains_free = cf
        node.contains_unknown = cu
        node.all_same = _all_same(children)
        node.value = best

    def _collapse(self, node: Node) -> None:
        first = node.children[0]
        node.value = first.value
        node.color = first.color
        node.color_n = first.color_n
        node.children = None
        node.all_same = True

    def _fuse_color(self, node: Node, color) -> None:
        r, g, b = float(color[0]), float(color[1]), float(color[2])
        if node.color is None:
            node.color = (r, g, b)
            node.color_n = 1
        else:
            n = node.color_n
            cr, cg, cb = node.color
            node.color = ((cr * n + r) / (n + 1), (cg * n + g) / (n + 1),
                          (cb * n + b) / (n + 1))
            node.color_n = n + 1

    # -- statistics -------------------------------------------------------

    def _inner_levels(self) -> list[list[Node]]:
        """The inner nodes at each depth, from the root's down to depth 1."""
        level = [] if self.root.children is None else [self.root]
        levels = [level]
        for _ in range(self.geometry.depth_levels - 1):
            level = [child for node in level for child in node.children
                     if child.children is not None]
            levels.append(level)
        return levels

    def tree_stats(self) -> TreeStats:
        levels = self._inner_levels()
        inner = sum(map(len, levels))
        leaf = 8 * len(levels[-1])
        return TreeStats(inner, 1 + 7 * inner - leaf, leaf)


def create_map(resolution: float, depth_levels: int,
               config: Optional[OccupancyConfig] = None,
               auto_prune: bool = True, store_color: bool = False) -> OccupancyMap:
    return OccupancyMap(resolution, depth_levels, config, auto_prune, store_color)
