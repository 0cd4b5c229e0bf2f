import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import FileEmbeddings, HashEmbeddings, cosine
from kgpaths.errors import EmptyPathError
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

from conftest import build_graph, full_subgraph, random_graph


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
       st.floats(min_value=0.0, max_value=2.0))
def test_score_table_matches_reference(graph_seed, struct_mode, lambda_sem):
    rng = random.Random(graph_seed)
    g = random_graph(rng)
    sub = full_subgraph(g)
    for e in sorted(sub.edges)[::3]:  # soft multipliers change costs
        sub.soft[e] = rng.random()
    emb = HashEmbeddings(dimension=8, seed=graph_seed)
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
