"""Outside-in tracing of occtree's modules.

``Tracer.install`` replaces the public functions of ``_kernels``,
``integrate``, ``core``, ``io``, ``query``, ``volumes`` and ``cli`` (and the
public methods of their classes) with timing wrappers, in every occtree
module namespace that binds them, so calls between occtree modules are
traced too; ``uninstall`` puts the originals back. The library itself is not
edited.

Each wrapped call is a span. Spans nest through a stack, and a span's self
time is its duration minus the durations of the wrapped spans it directly
encloses. Spans are folded into per-name totals as they close (calls, total
and self seconds, plus counts taken from arguments and results), because a
run makes millions of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# module -> span-name prefix
MODULES = {
    "_kernels": "kernels",
    "integrate": "integrate",
    "core": "core",
    "io": "io",
    "query": "query",
    "volumes": "volumes",
    "cli": "cli",
}

# Per-node scalar helpers, called once per visited node, and the per-ray
# clip: they mark no layer boundary, and wrapping them would multiply the
# tracing overhead; their time is their caller's self time. iterate_region is
# a generator, which a plain wrapper would time only while it is created; the
# benchmark calls it only untraced.
SKIP = {"core.state_of", "core.clamp", "core.logit", "core.probability",
        "integrate.clamp_ray_to_region", "query.iterate_region"}


def _span_name(prefix: str, owner: str | None, attr: str) -> str:
    if owner == "OccupancyMap":  # the map is the core layer
        owner = None
    if attr.startswith("cmd_"):  # cli.cmd_build -> cli.build
        attr = attr[4:]
    if owner is None and attr == prefix:  # integrate.integrate -> integrate
        return prefix
    return ".".join(p for p in (prefix, owner, attr) if p)


def _info_gain_label(name, args, kwargs):
    variant = args[2] if len(args) > 2 else kwargs.get("variant", "exact")
    return f"{name}.{variant}"


def _observe_integrate(args, kwargs, result):
    scan = args[1] if len(args) > 1 else kwargs["scan"]
    return {"points": len(scan.points), "rays": result.rays_traced,
            "free_ops": result.cells_freed, "hit_ops": result.cells_occupied,
            "raytrace_s": result.raytrace_s, "insert_s": result.insert_s}


def _observe_true(args, kwargs, result):
    return {"true": bool(result)}


# span name -> (label, observe); label renames a span from its arguments,
# observe turns arguments and result into counts added under the span name
HOOKS = {
    "query.info_gain": (_info_gain_label, None),
    "integrate": (None, _observe_integrate),
    "kernels.trace_cells": (None, lambda args, kwargs, result: {"cells": len(result)}),
    "io.write_map": (None, lambda args, kwargs, result: {"bytes": result}),
    "query.region_collision": (None, _observe_true),
    "query.line_collision": (None, _observe_true),
    "volumes.Frustum.contains_points": (None, lambda args, kwargs, result: {"points": len(result)}),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()  # (parent span, child span) -> calls
        self.extra: defaultdict = defaultdict(float)
        self._stack: list = []  # open spans: [name, seconds covered by children]
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _close(self, frame, dur: float, count: bool) -> None:
        name = frame[0]
        if count:
            self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            if count:
                self.child_calls[(parent[0], name)] += 1

    def _wrap(self, name: str, fn):
        label, observe = HOOKS.get(name, (None, None))
        stack = self._stack
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if label is None else label(name, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self._close(frame, dur, True)
            if observe is not None:
                for field, value in observe(args, kwargs, result).items():
                    extra[f"{span}.{field}"] += value
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; a no-op when already installed."""
        if self._patches:
            return
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "occtree" or n.startswith("occtree."))]
        for mod_name, prefix in MODULES.items():
            module = importlib.import_module(f"occtree.{mod_name}")
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and (mod_name == "_kernels"
                                                or obj.__module__ == module.__name__):
                    name = _span_name(prefix, None, attr)
                    if name in SKIP:
                        continue
                    wrapper = self._wrap(name, obj)
                    for ns in namespaces:
                        for ns_attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, ns_attr, obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(prefix, obj)

    def _install_methods(self, prefix: str, cls) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = _span_name(prefix, cls.__name__, attr)
            if name in SKIP:
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, raw, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, raw, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrap(name, raw))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run a block untraced (set-up and checks inside a traced run)."""
        was_installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if was_installed:
                self.install()

    # -- results ----------------------------------------------------------

    def span_names(self) -> list[str]:
        return sorted(set(self.calls) | set(self.total_s))

    def self_by_prefix(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))

    def child_calls_under(self, parent_prefix: str, child: str) -> int:
        return sum(v for (p, c), v in self.child_calls.items()
                   if c == child and (p == parent_prefix or p.startswith(parent_prefix + ".")))


class NoTracer:
    """Stand-in used when tracing is off."""

    def suspended(self):
        return nullcontext()
