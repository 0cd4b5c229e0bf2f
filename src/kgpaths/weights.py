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
read (paths are also pooled and matched in batches). What no question
changes (a label's vector, an entity's norm, an edge's weight total) lives
in the graph's ``WeightStore`` and is kept across episodes, for as long as
the graph keeps the same provider, coefficients α, β, γ, triples and
priors. What depends on the query (a path's pooled vector and semantic
match) is kept for the whole episode; what a round's soft multipliers
change (effective costs and path scores) is dropped by ``new_round``.
Path enumeration, candidate scoring, the verifier and latent injection
all read the same table.
``edge_weight``, ``effective_cost``, ``semantic_match`` and ``path_score``
are the uncached reference forms; they and the table share the kernels
``edge_terms``, ``pool_vectors`` and ``normed_cosine``, and every dot
product goes through ``row_dot`` or ``row_dots``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import (
    cosine,
    normed_cosine,
    normed_cosines,
    pool_vector_stack,
    pool_vectors,
    row_dot,
    row_dots,
)
from .errors import EmptyPathError, KgError
from .graph import KnowledgeGraph, Subgraph, Triple
from .paths import Path, pool_path_vector

DEFAULT_LAMBDA_SEM = 0.70
DEFAULT_TAU = 0.2
# the fewest paths ``ScoreTable.match`` pools and matches in one kernel
# call; smaller batches are left to the one-path forms, which cost less
# there
BATCH_ROWS = 8


@dataclass(frozen=True)
class WeightCoefficients:
    alpha: float = 0.4
    beta: float = 0.4
    gamma: float = 0.2
    lambda_sem: float = DEFAULT_LAMBDA_SEM

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "lambda_sem"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


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
    endpoint embeddings have cosine ``cos``: the weight formula's one home.
    The structural cost is 1.0 for every edge."""
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


class WeightStore:
    """What no question changes about a graph's weighting, for one
    embedding provider and one set of coefficients α, β, γ: the entity and
    relation vectors by id, each entity's float view and norm, and each
    edge's weight total. Each value is computed when first read and kept
    until the store is dropped; a read that raises stores nothing. A
    ``ScoreTable`` reaches the store through its subgraph, whose graph is
    finalized, so the labels and triples read by id no longer change; a
    prior does (``set_prior_cost``, the one change a finalized graph
    takes), and it drops the store.

    A graph holds one store, ``KnowledgeGraph.weighting``, which every
    ``ScoreTable`` on it takes its memos from (``of``), and which holds the
    provider. The memos' functions hold the graph's label lists, not the
    graph, so graph and store form no reference cycle; the weight totals
    are filled by the tables, which read the graph's priors.
    """

    def __init__(self, graph: KnowledgeGraph, embeddings,
                 coeffs: WeightCoefficients):
        self.embeddings = embeddings
        self.coefficients = (coeffs.alpha, coeffs.beta, coeffs.gamma)
        embed = embeddings.embed
        entity_labels = graph.entity_labels
        relation_labels = graph.relation_labels
        entities = self.entities = _Memo(lambda n: embed(entity_labels[n]))
        self.relations = _Memo(lambda r: embed(relation_labels[r]))

        def float_and_norm(n: int) -> tuple[np.ndarray, float]:
            vec = np.asarray(entities[n], dtype=float)
            return vec, math.sqrt(row_dot(vec, vec))

        self.normed = _Memo(float_and_norm)
        self.totals: dict[Triple, float] = {}

    @classmethod
    def of(cls, graph: KnowledgeGraph, embeddings,
           coeffs: WeightCoefficients) -> WeightStore:
        """``graph``'s store if it serves ``embeddings`` (compared with
        ``is``) and ``coeffs``' α, β, γ; else a new, empty one, which
        replaces it on the graph."""
        store = graph.weighting
        if (store is None or store.embeddings is not embeddings
                or store.coefficients != (coeffs.alpha, coeffs.beta,
                                          coeffs.gamma)):
            store = graph.weighting = cls(graph, embeddings, coeffs)
        return store


class ScoreTable(dict):
    """One episode's weighting values, each computed once, when first read.

    As a mapping it takes an edge to its effective traversal cost. The
    methods ``vector``, ``sem`` and ``score`` give a path's pooled vector,
    semantic match and score, keyed by ``path.key()``. A table built
    without a query embedding serves costs and vectors only.

    Each label is embedded once per graph: the table reads the entity and
    relation vectors by id, each entity's float view and norm, and each
    edge's weight total from the graph's ``WeightStore``, and fills it, so
    the episodes on one graph share them. It keeps the query's norm, and
    the pooled vectors, semantic matches, costs and scores, itself. The
    values equal the reference functions'
    (``effective_cost``, ``pool_path_vector``, ``semantic_match``,
    ``path_score``) because both call the same kernels on the same
    vectors: ``edge_terms`` for a weight, ``pool_vectors`` for a pooled
    vector and ``normed_cosine`` for a cosine, whose shape check,
    zero-vector error and clamp come with it. Every dot product, norms
    included, is a ``row_dot`` or ``row_dots`` call, whose bits do not
    depend on the batch a row is in.

    An edge's weight total is made one edge at a time, when first read,
    and the store keeps it for every later episode. ``match`` fills the
    vectors and semantic matches of many paths at once, with one
    ``row_dots`` call per step (``normed_cosines``, ``pool_vector_stack``),
    so a value is the same bits whichever way it was computed.
    ``pathenum``'s one rank-and-cut, which serves each beam depth and the
    final ranking, calls it on the paths it is about to rank; batches of
    fewer than ``BATCH_ROWS`` paths are left to the one-path forms.
    Pooled vectors are kept per episode, so each episode pools afresh.

    A path's vector and semantic match depend only on the path, the graph,
    the provider and the query, so they hold for the table's life.
    Effective costs and scores hold while the soft multipliers stay as
    they are: call ``new_round`` after edits. A lookup that raises stores
    nothing.
    """

    def __init__(self, subgraph: Subgraph, coeffs: WeightCoefficients,
                 embeddings, query_embedding: np.ndarray | None = None):
        super().__init__()
        self.subgraph = subgraph
        self.graph = graph = subgraph.graph
        self.coeffs = coeffs
        self.embeddings = embeddings
        self.query_embedding = query_embedding
        # the store holds no reference to the table, so a table is freed
        # when its episode ends rather than by the cycle collector
        store = WeightStore.of(graph, embeddings, coeffs)
        self._entity_vectors = store.entities
        self._relation_vectors = store.relations
        self._normed = store.normed
        self._totals = store.totals
        # as ``cosine`` reads it; with no query, ``sem`` raises as
        # ``cosine(vector, None)`` does, and no norm of the 0-d array is
        # taken
        query = self._query = np.asarray(query_embedding, dtype=float)
        self._query_norm = (math.sqrt(row_dot(query, query))
                            if query.ndim == 1 else math.nan)
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

    def match(self, paths) -> None:
        """Pool ``paths`` and match them against the query as batches, one
        per path length: fill the vectors and semantic matches that
        ``vector`` and ``sem`` read for the paths the table holds no vector
        for.

        A batch stacks each path's node vectors, then its relation vectors,
        as ``vector`` orders them, pools them with ``pool_vector_stack``
        and matches them with ``normed_cosines``. A batch of fewer than
        ``BATCH_ROWS`` paths, one with d = 1 vectors, which
        ``pool_vector_stack`` does not pool as ``pool_vectors`` does, and
        one that meets a provider error, a shape mismatch or a zero vector
        store nothing: those paths are left to ``vector`` and ``sem``,
        which raise the same error when the path is read. A table without
        a query matches nothing.
        """
        query = self._query
        if len(paths) < BATCH_ROWS or query.ndim != 1 or len(query) < 2:
            return
        held = self._vectors
        groups: dict[int, dict[tuple, Path]] = {}
        for p in paths:
            key = p.key()
            if key not in held:
                groups.setdefault(len(p.edges), {})[key] = p
        for group in groups.values():
            if len(group) >= BATCH_ROWS:
                self._match_batch(group)

    def _match_batch(self, group: dict[tuple, Path]) -> None:
        """``match`` for paths of one length, keyed by ``path.key()``."""
        entity = self._entity_vectors.__getitem__
        relation = self._relation_vectors.__getitem__
        query = self._query
        paths = list(group.values())
        rows = []
        try:
            for p in paths:
                rows += map(entity, p.nodes)
                rows += map(relation, p.relations)
            rows = np.array(rows)
            if rows.shape[1:] != query.shape or rows.dtype != np.float64:
                return
            vectors = pool_vector_stack(
                rows.reshape(len(paths), -1, len(query)), paths)
            sems = normed_cosines(vectors, query,
                                  np.sqrt(row_dots(vectors, vectors)),
                                  self._query_norm)
        except (KgError, ValueError):
            return
        self._vectors.update(zip(group, vectors))
        self._sems.update(zip(group, sems.tolist()))

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
                vec, self._query, math.sqrt(row_dot(vec, vec)),
                self._query_norm)
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
