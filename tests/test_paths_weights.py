import gc
import math
import random
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import FileEmbeddings, HashEmbeddings, cosine
from kgpaths.errors import EmptyPathError, ZeroVectorError
from kgpaths.graph import Triple
from kgpaths.paths import Path, pool_path_vector
from kgpaths.weights import (
    ScoreTable,
    WeightCoefficients,
    edge_weight,
    effective_cost,
    path_score,
    semantic_match,
)

from conftest import build_graph, full_subgraph, pool_oracle, random_graph


def test_path_validation():
    p = Path([Triple(0, 0, 1), Triple(1, 1, 2)])
    assert p.nodes == (0, 1, 2)
    assert p.relations == (0, 1)
    assert p.terminal == 2
    assert len(p) == 2
    with pytest.raises(EmptyPathError):
        Path([])
    with pytest.raises(ValueError):
        Path([Triple(0, 0, 1), Triple(2, 0, 3)])  # non-contiguous
    with pytest.raises(ValueError):
        Path([Triple(0, 0, 1), Triple(1, 0, 0)])  # revisits node 0


def test_path_identity_keeps_parallel_relations_distinct():
    a = Path([Triple(0, 0, 1)])
    b = Path([Triple(0, 1, 1)])
    assert a != b and hash(a) != hash(b)
    assert a == Path([Triple(0, 0, 1)])


def test_verbalize(chain_graph):
    p = Path([Triple(0, 0, 1), Triple(1, 1, 2)])
    assert p.verbalize(chain_graph) == "a -> r1 -> b -> r2 -> c"


def test_pool_path_vector_is_order_insensitive_mean():
    g = build_graph([("a", "r", "b")])
    emb = FileEmbeddings({"a": np.array([1.0, 0.0]),
                          "b": np.array([0.0, 1.0]),
                          "r": np.array([1.0, 0.0])})
    v = pool_path_vector(Path([Triple(0, 0, 1)]), emb, g)
    expected = np.array([2.0, 1.0]) / 3
    assert np.allclose(v, expected / np.linalg.norm(expected))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=128),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.integers(min_value=-150, max_value=150),
                min_size=1, max_size=9))
@example(1, 0, [0] * 9)  # d = 1, 9 rows: numpy sums the stack pairwise
@example(1, 0, [150, -150, -150, -150, -150, -150, -150, -150, -150])
def test_pool_path_vector_equals_numpy_formula_bit_for_bit(d, seed, exponents):
    """Row ``i`` has magnitude ``10**exponents[i]``. The path is a stand-in
    with the labels' node/relation split, so the count runs over 1..9 and
    not only over a real path's odd 2L+1."""
    rng = np.random.default_rng(seed)
    n = len(exponents)
    path = SimpleNamespace(nodes=tuple(range((n + 1) // 2)),
                           relations=tuple(range(n // 2)))
    graph = SimpleNamespace(entity_labels=[f"e{i}" for i in path.nodes],
                            relation_labels=[f"r{j}" for j in path.relations])
    labels = graph.entity_labels + graph.relation_labels
    emb = FileEmbeddings({label: rng.standard_normal(d) * 10.0 ** e
                          for label, e in zip(labels, exponents)})
    assert np.array_equal(pool_path_vector(path, emb, graph),
                          pool_oracle(path, emb, graph))


def test_pool_path_vector_errors():
    g = build_graph([("a", "r", "b")])
    p = Path([Triple(0, 0, 1)])
    vectors = {"a": np.ones(2), "r": np.ones(3), "b": np.ones(2)}
    ragged = SimpleNamespace(embed=vectors.__getitem__)
    for pool in (pool_path_vector, pool_oracle):
        with pytest.raises(ValueError):
            pool(p, ragged, g)
    cancelling = FileEmbeddings({"a": [1.0, 2.0], "r": [0.0, 0.0],
                                 "b": [-1.0, -2.0]})
    for pool in (pool_path_vector, pool_oracle):
        with pytest.raises(ZeroVectorError):
            pool(p, cancelling, g)


def test_edge_weight_components():
    g = build_graph([("a", "r", "b"), ("a", "s", "c")])
    emb = FileEmbeddings({"a": np.array([1.0, 0.0]),
                          "b": np.array([0.0, 1.0]),
                          "c": np.array([1.0, 0.0])})
    g.set_prior_cost(g.relation_id("r"), 0.25)
    coeffs = WeightCoefficients(alpha=0.4, beta=0.4, gamma=0.2)
    bd = edge_weight(Triple(0, 0, 1), coeffs, emb, g)
    assert bd.structural == 1.0
    assert bd.semantic_gap == pytest.approx(1.0)  # orthogonal endpoints
    assert bd.relation_prior == 0.25
    assert bd.total == pytest.approx(0.4 + 0.4 + 0.05)


def test_edge_weight_degree_mode():
    g = build_graph([("a", "r", "b"), ("a", "s", "c")])
    emb = FileEmbeddings({l: np.array([1.0, 0.0]) for l in ("a", "b", "c")})
    coeffs = WeightCoefficients(alpha=1.0, beta=0.0, gamma=0.0,
                                struct_mode="degree")
    bd = edge_weight(Triple(0, 0, 1), coeffs, emb, g)
    assert bd.structural == pytest.approx(math.log1p(2))


def test_effective_cost_soft_multiplier():
    g = build_graph([("a", "r", "b")])
    emb = FileEmbeddings({"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0])})
    coeffs = WeightCoefficients(alpha=1.0, beta=0.0, gamma=0.0)
    e = Triple(0, 0, 1)
    sub = full_subgraph(g)
    assert effective_cost(e, coeffs, emb, g) == pytest.approx(1.0)
    sub.soft[e] = 1.0
    assert effective_cost(e, coeffs, emb, g, sub) == pytest.approx(0.5)


def test_path_score_formula():
    g = build_graph([("a", "r", "b"), ("b", "r", "c")])
    emb = FileEmbeddings({l: np.array([1.0, 0.0])
                          for l in ("a", "b", "c", "r", "q")})
    coeffs = WeightCoefficients(alpha=1.0, beta=0.0, gamma=0.0, lambda_sem=0.7)
    p = Path([Triple(0, 0, 1), Triple(1, 0, 2)])
    q = emb.embed("q")
    assert semantic_match(p, q, emb, g) == pytest.approx(1.0)
    assert path_score(p, q, coeffs, emb, g) == pytest.approx(-2.0 + 0.7)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["uniform", "degree"]),
       st.floats(min_value=0.0, max_value=2.0),
       st.sampled_from([1, 2, 8, 64]))
def test_score_table_matches_reference(graph_seed, struct_mode, lambda_sem,
                                       dimension):
    rng = random.Random(graph_seed)
    g = random_graph(rng)
    sub = full_subgraph(g)
    for e in sorted(sub.edges)[::3]:  # soft multipliers change costs
        sub.soft[e] = rng.random()
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    coeffs = WeightCoefficients(struct_mode=struct_mode, lambda_sem=lambda_sem)
    q = emb.embed("q")
    table = ScoreTable(sub, coeffs, emb, q)
    paths = [Path(edges) for edges in _simple_edge_paths(sub, 3)]
    for _ in range(2):  # the second pass reads cached values
        for p in paths:
            assert np.array_equal(table.vector(p), pool_path_vector(p, emb, g))
            assert table.sem(p) == semantic_match(p, q, emb, g)
            assert table.score(p) == path_score(p, q, coeffs, emb, g, sub)
            for e in p.edges:
                assert table[e] == effective_cost(e, coeffs, emb, g, sub)
    assert len(table) == len({e for p in paths for e in p.edges})


class _CountingVectors:
    """Embedding provider over a dict of vectors that counts lookups."""

    def __init__(self, vectors):
        self.vectors = vectors
        self.calls = 0

    def embed(self, label):
        self.calls += 1
        return self.vectors[label]


def test_score_table_embeds_each_label_once():
    g = build_graph([("a", "r", "b"), ("b", "r", "c"), ("a", "s", "c")])
    rng = np.random.default_rng(0)
    emb = _CountingVectors({label: rng.standard_normal(4)
                            for label in ("a", "b", "c", "r", "s")})
    table = ScoreTable(full_subgraph(g), WeightCoefficients(), emb,
                       rng.standard_normal(4))
    paths = [Path(edges) for edges in _simple_edge_paths(table.subgraph, 2)]
    for _ in range(2):
        for p in paths:
            table.score(p)
        table.new_round()
    assert emb.calls == 5


@pytest.mark.parametrize("vectors, query, error", [
    # an endpoint of another dimension: cosine's shape check
    ({"a": [1.0, 0.0], "b": [0.0, 1.0, 0.0], "r": [1.0, 1.0]}, [1.0, 0.0],
     ValueError),
    # a zero endpoint
    ({"a": [0.0, 0.0], "b": [0.0, 1.0], "r": [1.0, 1.0]}, [1.0, 0.0],
     ZeroVectorError),
    # the pooled vector cancels to zero
    ({"a": [1.0, 2.0], "b": [-1.0, -2.0], "r": [0.0, 0.0]}, [1.0, 0.0],
     ZeroVectorError),
    # a zero query
    ({"a": [1.0, 0.0], "b": [0.0, 1.0], "r": [1.0, 1.0]}, [0.0, 0.0],
     ZeroVectorError),
    # a query of another dimension
    ({"a": [1.0, 0.0], "b": [0.0, 1.0], "r": [1.0, 1.0]}, [1.0, 0.0, 0.0],
     ValueError),
])
def test_score_table_raises_as_the_reference_does(vectors, query, error):
    g = build_graph([("a", "r", "b")])
    sub = full_subgraph(g)
    emb = SimpleNamespace(embed=lambda label: np.asarray(vectors[label]))
    q = np.asarray(query)
    coeffs = WeightCoefficients()
    table = ScoreTable(sub, coeffs, emb, q)
    p = Path([Triple(0, 0, 1)])
    e = p.edges[0]

    def outcome(read):
        try:
            return np.asarray(read()).tolist()
        except (ValueError, ZeroVectorError) as exc:
            return type(exc)

    got = [outcome(read) for read in (
        lambda: table[e], lambda: table.vector(p), lambda: table.sem(p),
        lambda: table.score(p))]
    assert got == [outcome(read) for read in (
        lambda: effective_cost(e, coeffs, emb, g, sub),
        lambda: pool_path_vector(p, emb, g),
        lambda: semantic_match(p, q, emb, g),
        lambda: path_score(p, q, coeffs, emb, g, sub))]
    assert got[-1] is error
    # a lookup that raises stores nothing
    assert (e in table) == isinstance(got[0], float)


def _simple_edge_paths(sub, max_length):
    """Every simple path of at most ``max_length`` edges, as edge tuples."""
    adj = {}
    for e in sorted(sub.edges):
        adj.setdefault(e.head, []).append(e)
    out = []

    def grow(edges, nodes):
        out.append(edges)
        if len(edges) < max_length:
            for e in adj.get(edges[-1].tail, []):
                if e.tail not in nodes:
                    grow(edges + (e,), nodes | {e.tail})

    for e in sorted(sub.edges):
        grow((e,), {e.head, e.tail})
    return out


def test_coefficients_validation():
    with pytest.raises(ValueError):
        WeightCoefficients(alpha=-0.1)
    with pytest.raises(ValueError):
        WeightCoefficients(struct_mode="bogus")


def test_score_table_is_freed_without_the_cycle_collector(chain_graph):
    emb = HashEmbeddings(dimension=8, seed=0)
    table = ScoreTable(full_subgraph(chain_graph), WeightCoefficients(), emb,
                       emb.embed("q"))
    for edges in _simple_edge_paths(table.subgraph, 3):
        table.score(Path(edges))
    ref = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert ref() is None
    finally:
        gc.enable()
