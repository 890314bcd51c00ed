"""In-memory spans and counters wrapped around the library's public functions.

The benchmark installs these wrappers from its own files; the library itself
carries no tracing code.  A span records (name, start, end, parent) at each
layer boundary; counters record work where timing a call would cost more
than the call (vecmath helpers, `distance`, `SpherePoint` construction).

Each wrapper is installed on every loaded `sphereconvex` module attribute
that is the original function object, so a caller that imported a name with
`from .polygon import boundary_diameter` resolves the wrapper just like a
caller that reads `polygon.boundary_diameter`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import Counter

# Functions timed as spans, by home module.
SPANNED = {
    "polygon": ("convex_hull", "boundary_diameter", "extreme_diameter", "random_polygon"),
    "quad": ("solve_quad", "construct_quad", "check_identities"),
    "lune": ("construct_lune", "equilateral_points", "min_sampled_distance"),
    "campaign": ("wide_trial", "small_trial", "run_verify", "tightness_table"),
}
# Functions only counted: wrapper cost would swamp their time.
COUNTED = {
    "core": ("distance",),
    "vecmath": ("ang", "unit", "reject"),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory until reported."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.hull_sizes: list[int] = []
        self._stack: list[int] = []
        self._undo: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self._close(idx, start, time.perf_counter())
            self._on_result(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_result(self, name: str, result) -> None:
        if name == "polygon.convex_hull":
            self.hull_sizes.append(len(result.vertices))
        elif name == "polygon.boundary_diameter":
            self.counts["polygon.boundary_diameter." + result.attainment.replace("-", "_")] += 1

    def install(self) -> None:
        """Wrap the library's functions; `uninstall` restores them."""
        modules = [m for n, m in sys.modules.items() if n == "sphereconvex" or n.startswith("sphereconvex.")]
        for kinds, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for home, names in kinds.items():
                home_mod = sys.modules["sphereconvex." + home]
                for attr in names:
                    original = getattr(home_mod, attr, None)
                    if original is None:
                        continue
                    wrapped = make(f"{home}.{attr}", original)
                    for mod in modules:
                        if getattr(mod, attr, None) is original:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, original))

        point_cls = sys.modules["sphereconvex.core"].SpherePoint
        post_init = point_cls.__post_init__

        def counted_post_init(obj):
            self.counts["core.SpherePoint.created"] += 1
            post_init(obj)

        point_cls.__post_init__ = counted_post_init
        self._undo.append((point_cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-layer figures: calls, busy and self time, and derived counts."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_time: Counter = Counter()
        durations: dict[str, list[float]] = {}
        attempts = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            self_time[name] += dur - child_time[i]
            durations.setdefault(name, []).append(dur)
            if name == "polygon.convex_hull" and parent >= 0 and self.spans[parent][0] == "polygon.random_polygon":
                attempts += 1
        return {
            "calls": dict(calls),
            "busy_s": dict(busy),
            "self_s": dict(self_time),
            "counts": dict(self.counts),
            "random_polygon_attempts": attempts,
            "hull_vertices_mean": sum(self.hull_sizes) / len(self.hull_sizes) if self.hull_sizes else 0.0,
            "hull_vertices_max": max(self.hull_sizes, default=0),
            "latency_ms": {
                name: {"p50": quantile(d, 0.5) * 1e3, "p90": quantile(d, 0.9) * 1e3}
                for name, d in durations.items()
            },
        }


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)
