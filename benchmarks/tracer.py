"""Layer tracing from outside the package.

:class:`Tracer` wraps the public functions of the traced ``latent_ising``
modules and patches each wrapper into every ``latent_ising`` namespace that
holds the original function, so calls between modules go through it too.
Nothing under ``src/`` knows about the tracer.

Each call of a wrapped function becomes a span (name, start, end, parent,
trial).  The functions in ``HOT`` are called thousands of times per trial
(``quartet_gap`` about 8k times at n=20 and 86k at n=32), so they keep only
a call count and total time; they still count as children of the span that
called them.  A function's self time is its busy time minus the time its
children cover.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional

PACKAGE = "latent_ising"

#: modules whose public functions are wrapped, by their short names
LAYERS = (
    "distribution",
    "estimation",
    "solvers",
    "learn_known",
    "reconstruct",
    "learn_unknown",
    "trees",
    "interpolate",
    "identity",
    "newick",
    "cli",
)

#: not wrapped: a one-line edge canonicalizer called ~90k times per trial,
#: whose wrapper would cost more than the call; its time stays in its callers
SKIP = frozenset({"trees.edge_key"})

#: leaf functions that keep a count and a total instead of one span per call
HOT = frozenset(
    {
        "distribution.marginalize_prob",
        "trees.path",
        "trees.path_nodes",
        "trees.component_nodes",
        "trees.component_leaves",
        "trees.quartet_gap",
        "trees.quartet_split",
    }
)


class _Frame:
    __slots__ = ("span", "child_time")

    def __init__(self, span: Optional[int]):
        self.span = span
        self.child_time = 0.0


class Stat:
    """Totals for one wrapped function."""

    __slots__ = ("calls", "busy_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


def layer_functions(module) -> Dict[str, Callable]:
    """Public functions defined in ``module``, keyed by their span name.

    The CLI's subcommand handlers are private, so they are named after the
    subcommand they serve (``cli._cmd_learn_known`` becomes ``cli.learn-known``).
    """
    short = module.__name__.rsplit(".", 1)[1]
    out = {}
    for attr, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if attr.startswith("_cmd_"):
            out[f"{short}.{attr[5:].replace('_', '-')}"] = obj
        elif not attr.startswith("_"):
            out[f"{short}.{attr}"] = obj
    return out


class Tracer:
    """Spans and per-function totals for one traced run.

    ``hooks`` maps a span name to ``hook(tracer, stat, args, result)``, called
    after every call (``result`` is None when the call raised); hooks add
    work counts such as LP constraints or bytes read.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None):
        self.hooks = dict(hooks or {})
        self.spans: List[tuple] = []
        self.stats: Dict[str, Stat] = {}
        self.trial: Optional[int] = None
        self.paused = False  # while set, wrappers call straight through
        self.prefix: Optional[Dict[str, dict]] = None  # totals after the count trials
        self.top_level_s = 0.0
        self._stack: List[_Frame] = []
        self._depth: Dict[str, int] = {}
        self._patches: List[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short in LAYERS:
            # import_module, not attribute access: the package re-exports the
            # functions `interpolate` and `learn_unknown` under module names
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for name, func in layer_functions(module).items():
                if name in SKIP:
                    continue
                self.stats[name] = Stat()
                wrapper = self._wrap(name, func)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is func:
                            self._patches.append((ns, attr, func))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, func in reversed(self._patches):
            setattr(ns, attr, func)
        self._patches.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        stat = self.stats[name]
        hook = self.hooks.get(name)
        hot = name in HOT
        stack = self._stack
        depth = self._depth
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.paused:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = None
            if not hot:
                span = len(spans)
                spans.append(None)
            frame = _Frame(span)
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                stat.calls += 1
                stat.self_s += elapsed - frame.child_time
                if depth[name] == 0:  # recursion is busy time only once
                    stat.busy_s += elapsed
                if parent is None:
                    self.top_level_s += elapsed
                else:
                    parent.child_time += elapsed
                if span is not None:
                    spans[span] = (name, start, end, _enclosing_span(stack), self.trial)
                if hook is not None:
                    hook(self, stat, args, result)

        return wrapper

    # -- queries -----------------------------------------------------------

    def inside(self, name: str) -> bool:
        """True while a call of ``name`` is on the stack."""
        return self._depth.get(name, 0) > 0

    def snapshot(self) -> Dict[str, dict]:
        return {
            name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s, **s.counts}
            for name, s in self.stats.items()
        }

    def write(self, path, extra: dict) -> None:
        """Spans and totals as one JSON document."""
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "trial": t}
            for n, s, e, p, t in self.spans
        ]
        payload["totals"] = self.snapshot()
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _enclosing_span(stack: List[_Frame]) -> Optional[int]:
    for frame in reversed(stack):
        if frame.span is not None:
            return frame.span
    return None
