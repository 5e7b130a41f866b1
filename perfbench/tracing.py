"""Per-layer tracing, installed from outside the package by wrapping its
public functions and methods.

Each wrapped call becomes a span (name, start, end, parent span, query id).
Functions called O(n^2) times per query (``line_through``, containment,
``ChowClass.__init__`` ...) are counted but get no span, so their time is the
self time of the span around them.  A layer's self time is the time of its
spans minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "criteria", "chains", "chow", "finite_geometry")

COUNT_ONLY = {
    "finite_geometry.line_through", "finite_geometry.line_in_variety",
    "finite_geometry.eval_poly", "finite_geometry.on_variety",
    "finite_geometry.normalize_point", "finite_geometry.format_point",
    "finite_geometry.line_points", "finite_geometry.ChainGraph.line_ok",
    "chow.ChowClass.__init__",
}

METHODS = {
    "chow": ("ChowClass", ("__init__", "__mul__", "__pow__", "__str__", "__add__",
                           "__neg__", "__sub__", "coefficient", "top_coefficient")),
    "finite_geometry": ("ChainGraph", ("__init__", "line_ok", "neighbors",
                                       "contained_lines_through", "distances",
                                       "shortest_chain")),
}

FG = "finite_geometry."
NEIGHBORS = FG + "ChainGraph.neighbors"
BFS = (FG + "ChainGraph.distances", FG + "ChainGraph.shortest_chain")
MUL = "chow.ChowClass.__mul__"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.next_id = 0
        self.qid = None
        self.start_pass()

    def start_pass(self) -> None:
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of each name
        self.self_time = defaultdict(float)
        self.depth = defaultdict(int)
        self.stack: list[list] = []  # [name, child time, pairs examined at entry, id]

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            if name == NEIGHBORS and parent and parent[0] in BFS:
                self.count["bfs_visited"] += 1
            frame = [name, 0.0, self.count["pairs_examined"], self.next_id]
            self.next_id += 1
            stack.append(frame)
            self.depth[name] += 1
            self.calls[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.depth[name] -= 1
                took = end - start
                self.self_time[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if not self.depth[name]:
                    self.inclusive[name] += took
                self.spans.append(
                    (frame[3], name, start, end, parent[3] if parent else None, self.qid))
            if hook:
                hook(self, args, result, frame)
            return result

        return wrapper

    def counter(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if name == FG + "line_through":
                if self.depth[NEIGHBORS]:
                    self.count["pairs_examined"] += 1
                if self.depth[FG + "lines_through"]:
                    self.count["sweep_points"] += 1
            elif name == FG + "line_in_variety" and self.depth[FG + "ChainGraph.line_ok"]:
                self.count["containment_misses"] += 1
            self.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.depth[name] -= 1
            if hook:
                hook(self, args, result, None)
            return result

        return wrapper

    def wrap(self, name, fn):
        return (self.counter if name in COUNT_ONLY else self.span)(name, fn)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the pass since ``start_pass``."""
        calls, count, incl = self.calls, self.count, self.inclusive

        def layer_self(layer):
            return sum(t for n, t in self.self_time.items() if n.startswith(layer + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        line_ok = calls[FG + "ChainGraph.line_ok"]
        return {
            "cli.calls": calls["cli.main"],
            "cli.self_s": layer_self("cli"),
            "criteria.calls": sum(c for n, c in calls.items() if n.startswith("criteria.")),
            "criteria.self_s": layer_self("criteria"),
            "chains.factors_built": count["factors_built"],
            "chains.counting_factors_s": incl["chains.counting_factors"],
            "chains.chain_count_s": incl["chains.chain_count"],
            "chains.counting_class_s": incl["chains.counting_class"],
            "chains.existence_class_s": incl["chains.existence_class"],
            "chains.self_s": layer_self("chains"),
            "chow.mul_calls": calls[MUL],
            "chow.mul_s": incl[MUL],
            "chow.term_pairs": count["term_pairs"],
            "chow.terms_out_ratio": ratio(count["terms_out"], count["term_pairs"]),
            "chow.classes_built": calls["chow.ChowClass.__init__"],
            "chow.terms_peak": count["terms_peak"],
            "chow.pow_calls": calls["chow.ChowClass.__pow__"],
            "chow.pow_s": incl["chow.ChowClass.__pow__"],
            "chow.str_s": incl["chow.ChowClass.__str__"],
            FG + "line_through_calls": calls[FG + "line_through"],
            FG + "containment_checks": calls[FG + "line_in_variety"],
            FG + "containment_cache_hit_ratio":
                ratio(line_ok - count["containment_misses"], line_ok),
            FG + "adjacency_ratio": ratio(count["neighbors_found"], count["pairs_examined"]),
            FG + "neighbors_s": incl[NEIGHBORS],
            FG + "bfs_s": sum(self.self_time[n] for n in BFS),
            FG + "parse_s": incl[FG + "parse_variety"],
            FG + "graph_builds": calls[FG + "ChainGraph.__init__"],
            FG + "enumerate_s": incl[FG + "enumerate_points"],
            FG + "sweep_points": count["sweep_points"],
            FG + "points": count["points"],
            FG + "lines_through_s": incl[FG + "lines_through"],
            FG + "bfs_visited": count["bfs_visited"],
            FG + "self_s": layer_self("finite_geometry"),
        }

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- hooks that turn a call's arguments and result into counts -------------------

def _terms(obj):
    return len(getattr(obj, "terms", ())) if obj is not NotImplemented else 0


def _mul(tracer, args, result, frame):
    if result is NotImplemented:
        return
    a, b = args
    tracer.count["term_pairs"] += _terms(a) * (1 if isinstance(b, int) else _terms(b))
    tracer.count["terms_out"] += _terms(result)


def _class_built(tracer, args, result, frame):
    tracer.count["terms_peak"] = max(tracer.count["terms_peak"], _terms(args[0]))


def _factors(tracer, args, result, frame):
    tracer.count["factors_built"] += len(result.all())


def _points(tracer, args, result, frame):
    tracer.count["points"] += len(result)


def _neighbors(tracer, args, result, frame):
    if tracer.count["pairs_examined"] > frame[2]:  # computed, not a cache hit
        tracer.count["neighbors_found"] += len(result)


HOOKS = {
    MUL: _mul,
    "chow.ChowClass.__init__": _class_built,
    "chains.counting_factors": _factors,
    FG + "enumerate_points": _points,
    NEIGHBORS: _neighbors,
}


def install(tracer: Tracer):
    """Wrap every layer's public functions and listed methods; returns an undo list.

    A function is replaced in every ``chainlines`` module that holds it, so
    calls between layers made through ``from .x import f`` are traced too.
    """
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "chainlines"]
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"chainlines.{layer}")
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", obj)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is obj:
                        setattr(m, k, wrapped)
                        undo.append((m, k, obj))
        cls_name, methods = METHODS.get(layer, (None, ()))
        cls = getattr(mod, cls_name, None) if cls_name else None
        for meth in methods:
            orig = cls.__dict__.get(meth) if cls is not None else None
            if orig is not None:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", orig))
                undo.append((cls, meth, orig))
    return undo


def uninstall(undo) -> None:
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)
