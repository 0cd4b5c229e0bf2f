"""Edge-weight and path-score computation.

An edge's weight combines a structural cost, the semantic gap between its
endpoint embeddings, and a relation prior:

    total = alpha * structural + beta * (1 - cos(head, tail)) + gamma * prior

A path's score is the negated sum of effective edge costs plus a weighted
semantic match between the pooled path embedding and the query embedding.
Soft multipliers lower effective traversal cost multiplicatively
(``total / (1 + multiplier)``), so boosted edges are preferred by the
shortest-path search.

``ScoreTable`` holds one round's values: each edge's effective cost and each
path's pooled vector, semantic match and score, each computed once, when
first read. Path enumeration, candidate scoring, the verifier and latent
injection all read the same table. ``effective_cost``, ``semantic_match``
and ``path_score`` are the uncached reference forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import cosine
from .errors import EmptyPathError
from .graph import KnowledgeGraph, Subgraph, Triple
from .paths import Path, pool_path_vector

DEFAULT_LAMBDA_SEM = 0.70
DEFAULT_TAU = 0.2


@dataclass(frozen=True)
class WeightCoefficients:
    alpha: float = 0.4
    beta: float = 0.4
    gamma: float = 0.2
    lambda_sem: float = DEFAULT_LAMBDA_SEM
    struct_mode: str = "uniform"  # "uniform" | "degree"

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "lambda_sem"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.struct_mode not in ("uniform", "degree"):
            raise ValueError(f"unknown struct_mode: {self.struct_mode!r}")


@dataclass(frozen=True)
class EdgeWeightBreakdown:
    structural: float
    semantic_gap: float
    relation_prior: float
    total: float


def edge_weight(
    edge: Triple,
    coeffs: WeightCoefficients,
    embeddings,
    graph: KnowledgeGraph,
) -> EdgeWeightBreakdown:
    if coeffs.struct_mode == "degree":
        structural = math.log1p(graph.out_degree(edge.head))
    else:
        structural = 1.0
    head_vec = embeddings.embed(graph.entity_labels[edge.head])
    tail_vec = embeddings.embed(graph.entity_labels[edge.tail])
    semantic_gap = 1.0 - cosine(head_vec, tail_vec)
    relation_prior = graph.prior_cost(edge.relation)
    total = (
        coeffs.alpha * structural
        + coeffs.beta * semantic_gap
        + coeffs.gamma * relation_prior
    )
    return EdgeWeightBreakdown(structural, semantic_gap, relation_prior, total)


def effective_cost(
    edge: Triple,
    coeffs: WeightCoefficients,
    embeddings,
    graph: KnowledgeGraph,
    subgraph: Subgraph | None = None,
) -> float:
    """Traversal cost after the soft multiplier: total / (1 + multiplier)."""
    total = edge_weight(edge, coeffs, embeddings, graph).total
    multiplier = subgraph.multiplier(edge) if subgraph is not None else 0.0
    return total / (1.0 + multiplier)


def semantic_match(
    path: Path,
    query_embedding: np.ndarray,
    embeddings,
    graph: KnowledgeGraph,
) -> float:
    """Cosine between the pooled path embedding and the query embedding."""
    return cosine(pool_path_vector(path, embeddings, graph), query_embedding)


def path_score(
    path: Path,
    query_embedding: np.ndarray,
    coeffs: WeightCoefficients,
    embeddings,
    graph: KnowledgeGraph,
    subgraph: Subgraph | None = None,
) -> float:
    """Eq.-style ranking score: higher is better."""
    if len(path) == 0:  # Path() already forbids this; belt and braces
        raise EmptyPathError("cannot score an empty path")
    cost = 0.0
    for e in path.edges:
        cost += effective_cost(e, coeffs, embeddings, graph, subgraph)
    sem = semantic_match(path, query_embedding, embeddings, graph)
    return -cost + coeffs.lambda_sem * sem


class ScoreTable(dict):
    """One round's weighting values, each computed once, when first read.

    As a mapping it takes an edge to its effective traversal cost. The
    methods ``vector``, ``sem`` and ``score`` give a path's pooled vector,
    semantic match and score, keyed by ``path.key()``; they repeat the
    float operations of ``pool_path_vector``, ``semantic_match`` and
    ``path_score`` in the same order, so they return the same values. A
    table built without a query embedding serves costs and vectors only.
    The values hold while the subgraph's edges and soft multipliers stay
    as they were, so build a new table after every edit.
    """

    def __init__(self, subgraph: Subgraph, coeffs: WeightCoefficients,
                 embeddings, query_embedding: np.ndarray | None = None):
        super().__init__()
        self.subgraph = subgraph
        self.graph = subgraph.graph
        self.coeffs = coeffs
        self.embeddings = embeddings
        self.query_embedding = query_embedding
        self._vectors: dict[tuple, np.ndarray] = {}
        self._sems: dict[tuple, float] = {}
        self._scores: dict[tuple, float] = {}

    def __missing__(self, edge: Triple) -> float:
        cost = self[edge] = effective_cost(
            edge, self.coeffs, self.embeddings, self.graph, self.subgraph)
        return cost

    def vector(self, path: Path) -> np.ndarray:
        key = path.key()
        vec = self._vectors.get(key)
        if vec is None:
            vec = self._vectors[key] = pool_path_vector(
                path, self.embeddings, self.graph)
        return vec

    def sem(self, path: Path) -> float:
        key = path.key()
        sem = self._sems.get(key)
        if sem is None:
            sem = self._sems[key] = cosine(self.vector(path),
                                           self.query_embedding)
        return sem

    def score(self, path: Path) -> float:
        key = path.key()
        score = self._scores.get(key)
        if score is None:
            cost = 0.0
            for e in path.edges:
                cost += self[e]
            score = self._scores[key] = (
                -cost + self.coeffs.lambda_sem * self.sem(path))
        return score
