"""Span tracing of entnmf from outside the package.

Each traced function is replaced, in the module whose code calls it, by a
wrapper that records a span: (id, name, start, end, parent). Callers look
these names up in their module globals at call time, so the wrappers see
every call without any change to the package. Dataclass validation is
counted by wrapping `__post_init__` on the class, which the generated
`__init__` also resolves at call time.

Spans stay in memory while the program runs and are written out once at the
end. A span's self time is its duration minus the part of its interval that
its child spans cover; children from pool threads are attributed to the
outermost open span, so overlapping children are merged before subtracting.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

# (module whose globals hold the name, name, span name "<layer>.<function>")
TRACED_NAMES = (
    ("experiment", "realize_dataset", "data.realize_dataset"),
    ("experiment", "inject_outlier_vectors", "data.inject_outlier_vectors"),
    ("experiment", "init_factors", "solvers.init_factors"),
    ("experiment", "extend_factors", "solvers.extend_factors"),
    ("experiment", "fit", "solvers.fit"),
    ("experiment", "knn_graph", "graph.knn_graph"),
    ("experiment", "accuracy", "metrics.accuracy"),
    ("experiment", "nmi", "metrics.nmi"),
    ("experiment", "residual_matrix", "core.residual_matrix"),
    ("solvers", "init_factors", "solvers.init_factors"),
    ("solvers", "residual_matrix", "core.residual_matrix"),
    ("solvers", "update_basis", "core.update_basis"),
    ("solvers", "update_coeff", "core.update_coeff"),
    ("solvers", "entropy_weights", "losses.entropy_weights"),
    ("solvers", "entropy_objective", "losses.entropy_objective"),
    ("solvers", "normalize_graph", "graph.normalize_graph"),
    ("solvers", "gemmf_update_coeff", "graph.gemmf_update_coeff"),
    ("losses", "residual_matrix", "core.residual_matrix"),
)
# (module, class) whose __post_init__ validation is traced as "<layer>.<class>"
TRACED_CLASSES = (("core", "FactorPair"), ("core", "ResidualWeights"))
# graph builders whose result's S matrix is sized for graph.S_bytes
SIZED = ("graph.knn_graph", "graph.normalize_graph")
LAYERS = ("experiment", "data", "solvers", "core", "losses", "graph", "metrics")
ROOT_SPAN = "experiment.run_experiment"


def _nbytes(S) -> int:
    """Bytes held by a dense array or a scipy sparse matrix."""
    if hasattr(S, "indptr"):
        return int(S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)
    return int(S.nbytes)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent)
        self.graph_bytes = defaultdict(int)  # span name -> largest S seen
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def wrap(self, name, func):
        sized = name in SIZED

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                self.spans.append((sid, name, start, end, parent))
            if sized and getattr(result, "S", None) is not None:
                with self._lock:
                    self.graph_bytes[name] = max(self.graph_bytes[name], _nbytes(result.S))
            return result

        return traced

    def install(self, package="entnmf"):
        """Wrap every traced name the package still has."""
        for mod_name, attr, span in TRACED_NAMES:
            mod = importlib.import_module(f"{package}.{mod_name}")
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
        for mod_name, cls_name in TRACED_CLASSES:
            cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name, None)
            if cls is not None and "__post_init__" in vars(cls):
                cls.__post_init__ = self.wrap(f"{mod_name}.{cls_name}", cls.__post_init__)

    def finish(self, path) -> dict:
        """Write the spans to a CSV at path; return the span-derived metrics."""
        spans = list(self.spans)
        own_times = self_times(spans)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "self_s"])
            for span, own in zip(spans, own_times):
                out.writerow([*span[:4], span[4] or "", own])
        return self._metrics(spans, own_times)

    def _metrics(self, spans, own_times) -> dict:
        calls = defaultdict(int)
        own = defaultdict(float)
        durations = defaultdict(list)
        for span, self_s in zip(spans, own_times):
            name = span[1]
            calls[name] += 1
            own[name] += self_s
            durations[name].append(span[3] - span[2])
        m = {}
        for name in ("core.residual_matrix", "core.update_basis", "core.update_coeff",
                     "losses.entropy_weights", "losses.entropy_objective",
                     "graph.gemmf_update_coeff"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = own[name]
        m["core.FactorPair.count"] = calls["core.FactorPair"]
        m["core.ResidualWeights.count"] = calls["core.ResidualWeights"]
        for name in ("solvers.init_factors", "data.realize_dataset", "data.inject_outlier_vectors",
                     "metrics.accuracy", "metrics.nmi"):
            m[f"{name}.s"] = own[name]
        m["graph.knn_graph_s"] = own["graph.knn_graph"]
        m["graph.normalize_graph_s"] = own["graph.normalize_graph"]
        m["graph.S_bytes"] = sum(self.graph_bytes.values())
        fits = durations["solvers.fit"]
        m["solvers.fit.calls"] = len(fits)
        m["solvers.fit.self_s"] = own["solvers.fit"]
        m["solvers.fit.p50_ms"] = 1e3 * _quantile(fits, 0.5)
        m["solvers.fit.p90_ms"] = 1e3 * _quantile(fits, 0.9)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        wall = sum(durations[ROOT_SPAN])
        m["experiment.parallelism"] = sum(fits) / wall if wall > 0 else 0.0
        return m


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, _, start, end, _ in spans:
        covered = 0.0
        lo = hi = start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if s > hi:
                covered += hi - lo
                lo = s
            hi = max(hi, e)
        covered += hi - lo
        out.append((end - start) - covered)
    return out
