"""In-memory span tracer that wraps polyzero's public functions at their call sites.

Every public function defined in a ``polyzero`` module is replaced, in every
``polyzero`` namespace that binds it, by a wrapper that records a span
``(name, start, end, parent)``.  Calls between library functions therefore go
through the wrappers too, so self time (a span's duration minus the time its
child spans cover) can be summed per function and per module.  Nothing is
changed inside the library's source; ``uninstall`` restores every binding.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("poly", "roots", "norms", "zerostats", "geometry", "bounds", "harness")

# SweepResult.to_json / to_csv share this span name.
SERIALIZE = "harness.serialize"

# Root span around the traced phase: its self time is the benchmark's own code.
ROOT = "bench"


@dataclass
class Summary:
    """Aggregates of one span list."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    inclusive_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    wall: float = 0.0

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_s.items():
            out[name.split(".", 1)[0]] += t
        return out


class Tracer:
    """Span store plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        # Exceptions counted once, at the innermost traced function they left.
        self.raised: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not hasattr(exc, "_perfbench_origin"):
                exc._perfbench_origin = name
                self.raised[name][type(exc).__name__] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def run(self, fn, *args, **kwargs):
        """Run ``fn`` inside a root span."""
        return self._span(ROOT, fn, args, kwargs)

    def install(self):
        """Route every public polyzero function through a span wrapper."""
        pkg = sys.modules["polyzero"]
        mods = [sys.modules[f"polyzero.{m}"] for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for ns in (pkg, *mods):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])
        result_cls = sys.modules["polyzero.harness"].SweepResult
        for meth in ("to_json", "to_csv"):
            self._patch(result_cls, meth, self.wrap(SERIALIZE, result_cls.__dict__[meth]))

    def _patch(self, ns, attr, value):
        self._patches.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, value)

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def attribution_errors(self, tol: float = 1e-9) -> list[str]:
        """Spans that do not nest, so self time would be misattributed.

        A span must end after it starts and lie inside its parent's interval,
        and its children must not cover more than its own duration (they
        would if two spans overlapped under one parent, as with threads).
        """
        errors = []
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end < start:
                errors.append(f"{name} ends before it starts")
            if parent >= 0:
                pname, pstart, pend, _ = self.spans[parent]
                covered[parent] += end - start
                if start < pstart or end > pend:
                    errors.append(f"{name} lies outside its parent {pname}")
        for (name, start, end, _), inner in zip(self.spans, covered):
            if inner > end - start + tol:
                errors.append(f"{name}: child spans cover {inner - (end - start):.3g} s more than the span")
        return errors

    def summary(self) -> Summary:
        """Self time, outermost-span inclusive time and call count per name."""
        out = Summary()
        child = [0.0] * len(self.spans)
        # ``inside[i]``: names of span i and all its ancestors.
        inside: list[frozenset] = [frozenset()] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if parent >= 0:
                child[parent] += dur
                above = inside[parent]
            else:
                above = frozenset()
                out.wall += dur
            if name not in above:
                out.inclusive_s[name] += dur
            inside[i] = above | {name}
            out.calls[name] += 1
        for i, (name, start, end, _) in enumerate(self.spans):
            out.self_s[name] += (end - start) - child[i]
        return out


def span_cost_s(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one traced call costs over a plain call, timed on a no-op.

    The median of ``repeats`` batches of each; 0 if the difference is below
    the clock's resolution.
    """

    def noop():
        return None

    def batch(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    plain, traced = [], []
    for _ in range(repeats):
        wrapped = Tracer().wrap("noop", noop)
        plain.append(batch(noop))
        traced.append(batch(wrapped))
    return max(statistics.median(traced) - statistics.median(plain), 0.0) / calls
