"""Edge-weight and path-score computation.

An edge's weight combines a structural cost, the semantic gap between its
endpoint embeddings, and a relation prior:

    total = alpha * structural + beta * (1 - cos(head, tail)) + gamma * prior

A path's score is the negated sum of effective edge costs plus a weighted
semantic match between the pooled path embedding and the query embedding.
Soft multipliers lower effective traversal cost multiplicatively
(``total / (1 + multiplier)``), so boosted edges are preferred by the
shortest-path search.

``ScoreTable`` holds one episode's values, each computed once, when first
read. What depends only on a label, edge or path (a label's vector, an
edge's weight, a path's pooled vector and semantic match) is kept for the
whole episode; what a round's soft multipliers change (effective costs and
path scores) is dropped by ``new_round``. Path enumeration, candidate
scoring, the verifier and latent injection all read the same table.
``edge_weight``, ``effective_cost``, ``semantic_match`` and ``path_score``
are the uncached reference forms; they and the table share the kernels
``edge_terms``, ``pool_vectors`` and ``normed_cosine``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import cosine, normed_cosine
from .errors import EmptyPathError
from .graph import KnowledgeGraph, Subgraph, Triple
from .paths import Path, pool_path_vector, pool_vectors

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


def edge_terms(
    edge: Triple,
    coeffs: WeightCoefficients,
    graph: KnowledgeGraph,
    cos: float,
) -> tuple[float, float, float, float]:
    """(structural, semantic_gap, relation_prior, total) of ``edge``, whose
    endpoint embeddings have cosine ``cos``: the weight formula's one home."""
    if coeffs.struct_mode == "degree":
        structural = math.log1p(graph.out_degree(edge.head))
    else:
        structural = 1.0
    semantic_gap = 1.0 - cos
    relation_prior = graph.prior_cost(edge.relation)
    total = (
        coeffs.alpha * structural
        + coeffs.beta * semantic_gap
        + coeffs.gamma * relation_prior
    )
    return structural, semantic_gap, relation_prior, total


def edge_weight(
    edge: Triple,
    coeffs: WeightCoefficients,
    embeddings,
    graph: KnowledgeGraph,
) -> EdgeWeightBreakdown:
    head_vec = embeddings.embed(graph.entity_labels[edge.head])
    tail_vec = embeddings.embed(graph.entity_labels[edge.tail])
    return EdgeWeightBreakdown(
        *edge_terms(edge, coeffs, graph, cosine(head_vec, tail_vec)))


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


class _Memo(dict):
    """``key -> make(key)``, computed on the first read of ``key`` and kept;
    a ``make`` that raises stores nothing."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class ScoreTable(dict):
    """One episode's weighting values, each computed once, when first read.

    As a mapping it takes an edge to its effective traversal cost. The
    methods ``vector``, ``sem`` and ``score`` give a path's pooled vector,
    semantic match and score, keyed by ``path.key()``. A table built
    without a query embedding serves costs and vectors only.

    Each label is embedded once per table: the table keeps the provider's
    entity and relation vectors by id, each entity's float view and norm,
    and the query's. The values equal the reference functions'
    (``effective_cost``, ``pool_path_vector``, ``semantic_match``,
    ``path_score``) because both call the same kernels on the same
    vectors: ``edge_terms`` for a weight, ``pool_vectors`` for a pooled
    vector and ``normed_cosine`` for a cosine, whose shape check,
    zero-vector error and clamp come with it.

    An edge's weight total and a path's vector and semantic match depend
    only on the edge or path, the graph, the provider, the coefficients and
    the query, so they hold for the table's life. Effective costs and
    scores hold while the soft multipliers stay as they are: call
    ``new_round`` after edits. A lookup that raises stores nothing.
    """

    def __init__(self, subgraph: Subgraph, coeffs: WeightCoefficients,
                 embeddings, query_embedding: np.ndarray | None = None):
        super().__init__()
        self.subgraph = subgraph
        self.graph = graph = subgraph.graph
        self.coeffs = coeffs
        self.embeddings = embeddings
        self.query_embedding = query_embedding
        # the memos' functions hold no reference to the table, so a table
        # is freed when its episode ends rather than by the cycle collector
        embed = embeddings.embed
        entities = self._entity_vectors = _Memo(
            lambda n: embed(graph.entity_labels[n]))
        self._relation_vectors = _Memo(
            lambda r: embed(graph.relation_labels[r]))

        def float_and_norm(n: int) -> tuple[np.ndarray, float]:
            vec = np.asarray(entities[n], dtype=float)
            return vec, math.sqrt(vec.dot(vec))

        self._normed = _Memo(float_and_norm)
        # as ``cosine`` reads it; with no query, ``sem`` raises as
        # ``cosine(vector, None)`` does
        self._query = np.asarray(query_embedding, dtype=float)
        self._query_norm = math.sqrt(self._query.dot(self._query))
        self._totals: dict[Triple, float] = {}
        self._vectors: dict[tuple, np.ndarray] = {}
        self._sems: dict[tuple, float] = {}
        self._scores: dict[tuple, float] = {}

    def new_round(self) -> None:
        """Drop the effective costs and scores, which the soft multipliers
        set; keep the vectors, weight totals and semantic matches."""
        self.clear()
        self._scores.clear()

    def __missing__(self, edge: Triple) -> float:
        total = self._totals.get(edge)
        if total is None:
            head, head_norm = self._normed[edge.head]
            tail, tail_norm = self._normed[edge.tail]
            total = self._totals[edge] = edge_terms(
                edge, self.coeffs, self.graph,
                normed_cosine(head, tail, head_norm, tail_norm))[3]
        cost = self[edge] = total / (1.0 + self.subgraph.multiplier(edge))
        return cost

    def vector(self, path: Path) -> np.ndarray:
        key = path.key()
        vec = self._vectors.get(key)
        if vec is None:
            entities = self._entity_vectors
            relations = self._relation_vectors
            vec = self._vectors[key] = pool_vectors(
                [entities[n] for n in path.nodes]
                + [relations[r] for r in path.relations], path)
        return vec

    def sem(self, path: Path) -> float:
        key = path.key()
        sem = self._sems.get(key)
        if sem is None:
            vec = np.asarray(self.vector(path), dtype=float)
            sem = self._sems[key] = normed_cosine(
                vec, self._query, math.sqrt(vec.dot(vec)), self._query_norm)
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
