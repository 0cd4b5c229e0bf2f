"""Candidate scoring, Gumbel soft selection, verifier gating, and
injection coefficients.

The default scorer is the path score itself; the default verifier is a
semantic-match heuristic hard-gated by episode refutations. Both defaults
read the round's ``ScoreTable``, so a path scored during enumeration is not
scored again. Both are pluggable, with file-loadable linear models as the
trained option.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import EmptySelectionError, KgError, ParseError
from .graph import Triple
from .paths import Path
from .weights import DEFAULT_TAU, ScoreTable, effective_cost, semantic_match
from .weights import path_score  # noqa: F401  perfbench/tracing.py wraps it here


@dataclass
class ScoredCandidate:
    path: Path
    u: float = 0.0
    soft_weight: float = 0.0
    verifier: float = 0.0
    injection: float = 0.0
    adjusted_injection: float = 0.0


@dataclass(frozen=True)
class GumbelConfig:
    temperature: float = DEFAULT_TAU
    rng_seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature (tau) must be > 0")


def _path_features(path, query_embedding, coeffs, embeddings, graph, subgraph):
    cost = sum(
        effective_cost(e, coeffs, embeddings, graph, subgraph)
        for e in path.edges
    )
    return {
        "bias": 1.0,
        "length": float(len(path)),
        "cost": cost,
        "sem": semantic_match(path, query_embedding, embeddings, graph),
    }


def _load_weight_tsv(source) -> dict[str, float]:
    weights: dict[str, float] = {}
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, encoding="utf-8")
        close = True
    else:
        fh, close = source, False
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError("expected feature<TAB>weight", lineno)
            weights[fields[0]] = float(fields[1])
    finally:
        if close:
            fh.close()
    return weights


class LinearScorer:
    """u = w . features(path); weights from a feature->weight TSV."""

    def __init__(self, weights: dict[str, float]):
        self.weights = dict(weights)

    @classmethod
    def load(cls, source) -> "LinearScorer":
        return cls(_load_weight_tsv(source))

    def __call__(self, path, query_embedding, coeffs, embeddings, graph,
                 subgraph=None) -> float:
        feats = _path_features(path, query_embedding, coeffs, embeddings,
                               graph, subgraph)
        return sum(w * feats.get(name, 0.0) for name, w in self.weights.items())


class LinearVerifier:
    """v = sigmoid(w . features(path)); same TSV format as LinearScorer."""

    def __init__(self, weights: dict[str, float]):
        self.weights = dict(weights)

    @classmethod
    def load(cls, source) -> "LinearVerifier":
        return cls(_load_weight_tsv(source))

    def __call__(self, path, query_embedding, coeffs, embeddings, graph,
                 subgraph=None) -> float:
        feats = _path_features(path, query_embedding, coeffs, embeddings,
                               graph, subgraph)
        logit = sum(w * feats.get(name, 0.0) for name, w in self.weights.items())
        return 1.0 / (1.0 + math.exp(-logit))


def score_candidates(
    paths: list[Path],
    table: ScoreTable,
    scorer=None,
) -> list[ScoredCandidate]:
    """Fill the scorer output u for every candidate (default: path score)."""
    if not paths:
        raise ValueError("paths must be nonempty")
    out = []
    for path in paths:
        if scorer is None:
            u = table.score(path)
        else:
            try:
                u = float(scorer(path, table.query_embedding, table.coeffs,
                                 table.embeddings, table.graph,
                                 table.subgraph))
            except Exception as exc:
                raise KgError(f"scorer failed on {path!r}: {exc}") from exc
        if not math.isfinite(u):
            raise KgError(f"scorer produced non-finite u for {path!r}")
        out.append(ScoredCandidate(path=path, u=u))
    return out


def gumbel_soft_weights(
    candidates: list[ScoredCandidate], config: GumbelConfig
) -> list[ScoredCandidate]:
    """Soft selection weights: softmax((u + g) / tau) over the candidate set.

    g ~ Gumbel(0,1) sampled as -ln(-ln(U)); the deterministic flag forces
    g = 0, reducing to a plain softmax(u / tau).
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    u = np.array([c.u for c in candidates], dtype=float)
    if config.deterministic:
        g = np.zeros_like(u)
    else:
        rng = random.Random(config.rng_seed)
        uniforms = np.array([rng.random() for _ in candidates])
        # avoid log(0) at the open-interval ends
        uniforms = np.clip(uniforms, 1e-300, 1.0 - 1e-16)
        g = -np.log(-np.log(uniforms))
    z = (u + g) / config.temperature
    z -= z.max()  # shift invariance keeps the exp stable
    w = np.exp(z)
    w /= w.sum()
    for c, weight in zip(candidates, w):
        c.soft_weight = float(weight)
    return candidates


def verify(
    path: Path,
    table: ScoreTable,
    refuted: set[Triple] = frozenset(),
    verifier=None,
) -> float:
    """Path utility in [0, 1].

    The default heuristic maps semantic match into [0, 1]. Episode
    refutations hard-gate to 0: either a refuted edge lies on the path, or
    the path terminates at the subject entity of a refuted fact (the
    refutation then concerns the candidate answer itself).
    """
    refuted_heads = {t.head for t in refuted}
    if any(e in refuted for e in path.edges) or path.terminal in refuted_heads:
        return 0.0
    if verifier is not None:
        v = float(verifier(path, table.query_embedding, table.coeffs,
                           table.embeddings, table.graph, table.subgraph))
        return min(max(v, 0.0), 1.0)
    return min(max((table.sem(path) + 1.0) / 2.0, 0.0), 1.0)


def select_and_inject(
    candidates: list[ScoredCandidate],
    top_k: int = 8,
    threshold: float = 0.0,
    seed_confidence: dict[int, float] | None = None,
    rho: float = 1.0,
) -> list[ScoredCandidate]:
    """Select candidates by gated weight and assign injection coefficients.

    Selection keeps candidates with soft_weight * verifier >= threshold,
    truncated to ``top_k`` by that product. Injection coefficients are the
    products renormalized to sum 1, then attenuated per entity-link
    confidence (non-seed entities count as 1.0) and renormalized again.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    gated = [(c.soft_weight * c.verifier, c) for c in candidates]
    passing = [(g, c) for g, c in gated if g >= threshold]
    passing.sort(key=lambda gc: (-gc[0], gc[1].path.nodes, gc[1].path.relations))
    selected = [c for _, c in passing[:top_k]]
    if not selected:
        raise EmptySelectionError("no candidate passed the selection gate")

    raw = np.array([c.soft_weight * c.verifier for c in selected], dtype=float)
    total = raw.sum()
    alphas = raw / total if total > 0 else np.full(len(selected), 1.0 / len(selected))

    conf = seed_confidence or {}
    adjusted = np.array([
        a * math.prod(conf.get(n, 1.0) ** rho for n in c.path.nodes)
        for a, c in zip(alphas, selected)
    ])
    total_adj = adjusted.sum()
    if total_adj > 0:
        adjusted /= total_adj
    else:
        adjusted = np.full(len(selected), 1.0 / len(selected))

    for c, a, aa in zip(selected, alphas, adjusted):
        c.injection = float(a)
        c.adjusted_injection = float(aa)
    return selected
