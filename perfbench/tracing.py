"""Span tracing of kgpaths from outside the package.

``Tracer.install()`` rebinds the public functions of each kgpaths module
where their callers look them up (``kgpaths.loop.enumerate_paths``,
``kgpaths.pathenum.edge_costs``, ``kgpaths.scoring.path_score``, ...) to
wrappers that record one span per call; ``uninstall()`` puts the originals
back. The embedding provider and the reasoner are wrapped in counting
proxies. Nothing in ``src/`` changes.

A span records name, start, end, parent span and episode id. Spans stay in
memory and ``save()`` writes them out at the end. Embedding lookups are too
frequent to store one span each: their time is added to the enclosing
span's ``leaf`` total and counted as embedding-layer time.

The self time of a span is its duration minus the time its child spans and
leaf calls cover (``self_times``). A span's layer is its name up to the
first dot.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

import kgpaths.evaluation
import kgpaths.graph
import kgpaths.loop
import kgpaths.pathenum
import kgpaths.scoring

perf_counter = time.perf_counter

ROOT = "evaluation.run_benchmark"
EPISODE = "loop.run_loop"
BOOKKEEPING = "trace.bookkeeping"
LAYERS = ("graph", "embeddings", "weights", "pathenum", "scoring",
          "injection", "loop", "evaluation", "trace")

# (module, attribute, span name): each attribute is rebound where its
# caller looks it up
WRAPPED = [
    (kgpaths.evaluation, "run_loop", EPISODE),
    (kgpaths.evaluation, "evaluate_episode", "evaluation.evaluate"),
    (kgpaths.loop, "expand_neighborhood", "graph.expand"),
    (kgpaths.loop, "apply_edits", "graph.apply_edits"),
    (kgpaths.loop, "query_embedding", "embeddings.query"),
    (kgpaths.loop, "enumerate_paths", "pathenum.enumerate"),
    (kgpaths.pathenum, "edge_costs", "weights.edge_costs"),
    (kgpaths.pathenum, "k_shortest_weighted", "pathenum.kshortest"),
    (kgpaths.pathenum, "beam_expand", "pathenum.beam"),
    (kgpaths.pathenum, "random_walk_proposals", "pathenum.walks"),
    (kgpaths.pathenum, "path_score", "weights.path_score"),
    (kgpaths.scoring, "path_score", "weights.path_score"),
    (kgpaths.loop, "score_candidates", "scoring.score"),
    (kgpaths.loop, "gumbel_soft_weights", "scoring.gumbel"),
    (kgpaths.loop, "verify", "scoring.verify"),
    (kgpaths.loop, "select_and_inject", "scoring.select"),
    (kgpaths.loop, "encode_path", "injection.encode"),
    (kgpaths.loop, "context_mixture", "injection.mixture"),
    (kgpaths.loop, "attention_mass", "injection.attention"),
    (kgpaths.loop, "alignment_loss", "injection.attention"),
    (kgpaths.loop, "parse_diagnostic", "loop.diagnose"),
    (kgpaths.loop, "map_diagnostic", "loop.diagnose"),
    (kgpaths.loop, "soft_mask", "loop.mask"),
    (kgpaths.loop, "path_mask", "loop.mask"),
    (kgpaths.loop, "discretize_topk", "loop.mask"),
]


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# one span = these fields, stored as consecutive doubles in ``Tracer.data``
FIELDS = ("index", "name", "start", "end", "parent", "episode", "leaf")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.data = array("d")  # spans in closing order, FIELDS each
        self._stack: list[int] = []
        self._next = 0
        self._leaf = 0.0  # leaf time under the innermost open span
        self.episode = -1
        self.counts: Counter = Counter()
        self.embed_calls = 0
        self.embed_misses = 0
        self.seen_labels: set[str] = set()
        self._proposed: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def next_episode(self) -> None:
        self.episode += 1

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped to record a span. ``before()`` runs first;
        ``after(args, kwargs, result)`` runs once the span has closed,
        inside a bookkeeping span of its own."""
        nid = self.name_id(name)
        hook = self.span(BOOKKEEPING, after) if after is not None else None
        stack = self._stack
        extend = self.data.extend

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = self._next
            self._next = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_leaf, self._leaf = self._leaf, 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                extend((idx, nid, start, end, parent, self.episode, self._leaf))
                self._leaf = outer_leaf
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception:  # a count is lost, the episode goes on
                    self.counts["trace.hook_errors"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every target in ``WRAPPED`` that the package defines."""
        hooks = self._hooks()
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            before, after = hooks.get(attr, (None, None))
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, before, after))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _hooks(self) -> dict:
        """attribute -> (before, after) for the wrapped functions whose
        calls carry work counts."""
        counts = self.counts

        def run_loop(args, kwargs, result):
            counts["loop.rounds"] += len(result.rounds)
            counts["loop.forced_expands"] += sum(
                1 for r in result.rounds if r.forced_expand)

        def expand(args, kwargs, result):
            counts["graph.subgraph_edges"] += len(result.edges)

        def apply_edits(args, kwargs, result):
            edits = _arguments(kgpaths.graph.apply_edits, args, kwargs)["edits"]
            counts["graph.edits_applied"] += len(edits)

        def edge_costs(args, kwargs, result):
            counts["weights.edges_weighted"] += len(result)

        def generator(counter):
            def after(args, kwargs, result):
                counts[counter] += len(result)
                self._proposed.extend(result)
            return after

        def start_pool():
            self._proposed = []

        def enumerate_paths(args, kwargs, result):
            proposed, self._proposed = self._proposed, []
            pool = {p.key(): p for p in proposed}
            call = _arguments(kgpaths.pathenum.enumerate_paths, args, kwargs)
            eligible = list(pool.values())
            if call.get("pair_mode"):
                seeds = set(call["seeds"])
                eligible = [p for p in eligible
                            if p.terminal in seeds and p.terminal != p.nodes[0]]
            counts["pathenum.proposed"] += len(proposed)
            counts["pathenum.pooled"] += len(pool)
            counts["pathenum.truncated_rounds"] += (
                len(eligible) > call["budget"].max_candidates)

        def select(args, kwargs, result):
            counts["scoring.selected"] += len(result)

        return {
            "run_loop": (None, run_loop),
            "expand_neighborhood": (None, expand),
            "apply_edits": (None, apply_edits),
            "enumerate_paths": (start_pool, enumerate_paths),
            "edge_costs": (None, edge_costs),
            "k_shortest_weighted": (None, generator("pathenum.kshortest_paths")),
            "beam_expand": (None, generator("pathenum.beam_paths")),
            "random_walk_proposals": (None, generator("pathenum.walk_paths")),
            "select_and_inject": (None, select),
        }

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The closed spans as columns, row ``i`` holding span ``i``."""
        table = np.frombuffer(self.data, dtype=np.float64).reshape(-1, len(FIELDS))
        table = table[np.argsort(table[:, 0], kind="stable")]
        cols = dict(zip(FIELDS, table.T))
        for key in ("index", "name", "parent", "episode"):
            cols[key] = cols[key].astype(np.int64)
        return cols

    def save(self, path) -> None:
        """Write the spans as one ``.npz``: the arrays above plus ``names``
        (a JSON list that ``name`` indexes) and ``counts`` (JSON)."""
        counts = dict(self.counts, **{
            "embeddings.embed_calls": self.embed_calls,
            "embeddings.embed_misses": self.embed_misses})
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(counts)), **self.arrays())


class CountingEmbeddings:
    """Embedding provider proxy that times and counts ``embed`` calls. A
    miss is the first request for a label in the traced run."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._embed = inner.embed
        self._tracer = tracer

    def embed(self, label):
        t0 = perf_counter()
        vec = self._embed(label)
        tracer = self._tracer
        tracer._leaf += perf_counter() - t0
        tracer.embed_calls += 1
        if label not in tracer.seen_labels:
            tracer.seen_labels.add(label)
            tracer.embed_misses += 1
        return vec

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class CountingReasoner:
    """Reasoner proxy recording one ``loop.reason`` span per call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.reason = tracer.span("loop.reason", inner.reason)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# --- analysis ------------------------------------------------------------------


def self_times(start, end, parent, leaf) -> np.ndarray:
    """Per-span self time: duration minus the durations of its direct
    children and its leaf time. Spans come from one thread, so children
    nest inside their parent without overlapping each other."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child - np.asarray(leaf, dtype=float)


# per-episode inclusive milliseconds: metric -> span name
INCLUSIVE_MS = {
    "graph.expand_ms": "graph.expand",
    "graph.apply_edits_ms": "graph.apply_edits",
    "embeddings.query_ms": "embeddings.query",
    "weights.edge_costs_ms": "weights.edge_costs",
    "weights.path_score_ms": "weights.path_score",
    "pathenum.kshortest_ms": "pathenum.kshortest",
    "pathenum.beam_ms": "pathenum.beam",
    "pathenum.walks_ms": "pathenum.walks",
    "scoring.score_ms": "scoring.score",
    "scoring.gumbel_ms": "scoring.gumbel",
    "scoring.verify_ms": "scoring.verify",
    "scoring.select_ms": "scoring.select",
    "injection.encode_ms": "injection.encode",
    "injection.mixture_ms": "injection.mixture",
    "injection.attention_ms": "injection.attention",
    "loop.reason_ms": "loop.reason",
    "loop.diagnose_ms": "loop.diagnose",
    "loop.mask_ms": "loop.mask",
    "evaluation.evaluate_ms": "evaluation.evaluate",
}
# per-episode self milliseconds: metric -> span name
SELF_MS = {
    "pathenum.enumerate_self_ms": "pathenum.enumerate",
    "loop.self_ms": EPISODE,
    "evaluation.self_ms": ROOT,
}
# per-episode span counts: metric -> span name
CALLS = {
    "weights.path_score_calls": "weights.path_score",
    "scoring.verify_calls": "scoring.verify",
    "loop.reason_calls": "loop.reason",
}
# per-episode work counts kept by the hooks and proxies
COUNTS = (
    "graph.subgraph_edges", "graph.edits_applied",
    "embeddings.embed_calls", "embeddings.embed_misses",
    "weights.edges_weighted",
    "pathenum.kshortest_paths", "pathenum.beam_paths", "pathenum.walk_paths",
    "pathenum.truncated_rounds",
    "scoring.selected",
    "loop.rounds", "loop.forced_expands",
)


def layer_metrics(tracer: Tracer, episodes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run of ``episodes`` episodes, as
    name -> (value, unit). Times and counts are per-episode means;
    ``<layer>.share`` is the layer's self time over all traced time."""
    if episodes < 1:
        raise ValueError("no traced episodes")
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"],
                     spans["leaf"])
    size = len(tracer.names)
    by_name = {
        "dur": np.bincount(spans["name"], weights=dur, minlength=size),
        "own": np.bincount(spans["name"], weights=own, minlength=size),
        "calls": np.bincount(spans["name"], minlength=size),
    }
    ids = {n: i for i, n in enumerate(tracer.names)}

    def total(kind, span_name):
        return float(by_name[kind][ids[span_name]]) if span_name in ids else 0.0

    out: dict[str, tuple[float, str]] = {}
    for metric, span_name in INCLUSIVE_MS.items():
        out[metric] = (1000 * total("dur", span_name) / episodes, "ms")
    for metric, span_name in SELF_MS.items():
        out[metric] = (1000 * total("own", span_name) / episodes, "ms")
    for metric, span_name in CALLS.items():
        out[metric] = (total("calls", span_name) / episodes, "count")
    counts = dict(tracer.counts, **{
        "embeddings.embed_calls": tracer.embed_calls,
        "embeddings.embed_misses": tracer.embed_misses})
    for metric in COUNTS:
        out[metric] = (counts.get(metric, 0) / episodes, "count")
    embed_s = float(spans["leaf"].sum())
    out["embeddings.embed_ms"] = (1000 * embed_s / episodes, "ms")

    pooled = counts.get("pathenum.pooled", 0)
    score_calls = total("calls", "weights.path_score")
    out["weights.score_passes_per_path"] = (
        score_calls / pooled if pooled else 0.0, "ratio")
    proposed = counts.get("pathenum.proposed", 0)
    out["pathenum.unique_ratio"] = (
        pooled / proposed if proposed else 0.0, "ratio")

    traced = total("dur", ROOT)
    out["trace.episode_ms"] = (1000 * traced / episodes, "ms")
    layer_self = Counter()
    for i, name in enumerate(tracer.names):
        layer_self[name.split(".", 1)[0]] += float(by_name["own"][i])
    layer_self["embeddings"] += embed_s
    for layer in LAYERS:
        out[f"{layer}.share"] = (
            layer_self[layer] / traced if traced else 0.0, "ratio")
    return out
