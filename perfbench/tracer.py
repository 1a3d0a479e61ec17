"""In-memory span tracing of the collapselab modules, installed from outside.

``Tracer.install`` wraps every public function of every collapselab module,
plus ``RadialProfile.at`` and ``cli._write_artifacts``, and rebinds each
module-level name that refers to one of them, including names one module
imported from another (``gluing.sup_norms``, ``charclass.frame_from_riemann``
and so on).  Each call records a span ``(name, parent, start, end)``; spans
stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

# wrapped names outside the "public function of its module" rule
_EXTRA = {
    ("radial", "RadialProfile.at"),
    ("cli", "_write_artifacts"),
}


def _grid_points(args, kwargs) -> int:
    """Lattice points of the field argument of a stencil call (grid, u, ...)."""
    u = args[1] if len(args) > 1 else kwargs["u"]
    return int(getattr(u, "size", 1))


# counters incremented at span entry, keyed by span name
_COUNTS = {
    "conformal.laplacian": ("conformal.stencil_points", _grid_points),
    "conformal.gradient_energy_density": ("conformal.stencil_points", _grid_points),
}
# spans whose return value is kept, to be checked against the artifacts
_KEEP_RESULT = {"conformal.yamabe_quotient"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.results: dict = {}  # span id -> return value, for _KEEP_RESULT
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, counters, results = self.spans, self._stack, self.counters, self.results
        count = _COUNTS.get(name)
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count is not None:
                counters[count[0]] += count[1](args, kwargs)
            t0 = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                if keep:
                    results[idx] = value
                return value
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)

        return traced

    def install(self, modules: list) -> dict:
        """Wrap and rebind; returns counts of wrapped functions and bindings.

        Raises if a wrapped function is still reachable, unwrapped, from a
        module-level dict, list or tuple, where rebinding cannot reach it.
        """
        wrapped = {}  # original function -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or (short, name) in _EXTRA
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    wrapped[obj] = self.wrap(f"{short}.{name.lstrip('_')}", obj)
        bindings = 0
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                    bindings += 1
                elif isinstance(obj, (dict, list, tuple)):
                    values = obj.values() if isinstance(obj, dict) else obj
                    hidden = [v for v in values if inspect.isfunction(v) and v in wrapped]
                    if hidden:
                        raise RuntimeError(f"{mod.__name__}.{name} holds unwrapped {hidden}")
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for owner, attr in _EXTRA:
                if owner == short and "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(f"{short}.{attr}", getattr(cls, meth)))
                    bindings += 1
        return {"functions": len(wrapped), "bindings": bindings}

    def aggregate(self) -> dict:
        """Per span name: calls, total_s and self_s (duration minus the time
        covered by child spans; calls are nested, never overlapping)."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - c
        return out

    def child_calls(self, name: str, parent_prefix: str) -> int:
        """Spans called ``name`` whose direct parent span name starts with
        ``parent_prefix``."""
        spans = self.spans
        return sum(
            1 for n, p, _, _ in spans
            if n == name and p >= 0 and spans[p][0].startswith(parent_prefix)
        )

    def child_results(self, name: str, parent_name: str) -> list:
        """Kept return values of ``name`` spans, one list per direct parent
        span called ``parent_name``, in call order."""
        groups: dict = {}
        for i, (n, p, _, _) in enumerate(self.spans):
            if n == name and p >= 0 and self.spans[p][0] == parent_name:
                groups.setdefault(p, []).append(self.results[i])
        return [groups[p] for p in sorted(groups)]

    def write(self, path) -> None:
        """Dump spans as CSV: id, parent, name, start_s, end_s."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0:.9f},{t1:.9f}\n")
