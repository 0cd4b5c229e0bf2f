import gc
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgpaths.weights
from kgpaths.embeddings import FileEmbeddings, HashEmbeddings, cosine
from kgpaths.errors import (
    EmptyPathError,
    KgError,
    UnknownItemError,
    ZeroVectorError,
)
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

from conftest import (
    build_graph,
    full_subgraph,
    pool_oracle,
    random_graph,
    simple_edge_paths,
)


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
       st.floats(min_value=0.0, max_value=2.0),
       st.sampled_from([1, 2, 8, 64]))
def test_score_table_matches_reference(graph_seed, lambda_sem, dimension):
    rng = random.Random(graph_seed)
    g = random_graph(rng)
    sub = full_subgraph(g)
    for e in sorted(sub.edges)[::3]:  # soft multipliers change costs
        sub.soft[e] = rng.random()
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    coeffs = WeightCoefficients(lambda_sem=lambda_sem)
    q = emb.embed("q")
    table = ScoreTable(sub, coeffs, emb, q)
    paths = [Path(edges) for edges in simple_edge_paths(sub, 3)]
    for _ in range(2):  # the second pass reads cached values
        for p in paths:
            assert np.array_equal(table.vector(p), pool_path_vector(p, emb, g))
            assert table.sem(p) == semantic_match(p, q, emb, g)
            assert table.score(p) == path_score(p, q, coeffs, emb, g, sub)
            for e in p.edges:
                assert table[e] == effective_cost(e, coeffs, emb, g, sub)
    assert len(table) == len({e for p in paths for e in p.edges})


def _count_batch_rows(mp):
    """Counters of the rows that ``match`` batches from now on: the paths
    pooled, and those matched against the query, in one kernel call each."""
    rows = Counter()
    cosines_ref = kgpaths.weights.normed_cosines
    stack_ref = kgpaths.weights.pool_vector_stack

    def cosines(vectors, b, *args):
        rows["cosines"] += len(vectors)
        return cosines_ref(vectors, b, *args)

    def stack(vectors, paths):
        rows["pooled"] += len(paths)
        return stack_ref(vectors, paths)

    mp.setattr(kgpaths.weights, "normed_cosines", cosines)
    mp.setattr(kgpaths.weights, "pool_vector_stack", stack)
    return rows


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 2, 3, 8, 64]), st.sampled_from([1, 3, None]))
def test_batched_fills_match_reference(graph_seed, dimension, cutoff):
    """``match`` on the simple paths of up to 4 edges (the first 600)
    fills the values that the reference functions give, by ``==``, with
    the cut-off at 1 (every batch), 3 or its own value (most batches left
    to the one-value forms); every edge cost, made one edge at a time, is
    the reference's too. A 4-edge path pools 9 vectors, where numpy's
    pairwise summation would part from the row order. At d = 1, ``match``
    pools nothing."""
    rng = random.Random(graph_seed)
    g = random_graph(rng, max_nodes=12, max_edges=60)
    sub = full_subgraph(g)
    for e in sorted(sub.edges)[::3]:  # soft multipliers change costs
        sub.soft[e] = rng.random()
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    coeffs = WeightCoefficients()
    q = emb.embed("q")
    table = ScoreTable(sub, coeffs, emb, q)
    paths = [Path(edges) for edges in simple_edge_paths(sub, 4)[:600]]
    with pytest.MonkeyPatch.context() as mp:
        if cutoff is not None:
            mp.setattr(kgpaths.weights, "BATCH_ROWS", cutoff)
        rows = _count_batch_rows(mp)
        table.match(paths)
        cutoff = kgpaths.weights.BATCH_ROWS
    lengths = Counter(len(p) for p in paths)
    assert rows["pooled"] == (0 if dimension == 1 else sum(
        n for n in lengths.values() if n >= cutoff))
    assert rows["cosines"] == rows["pooled"]
    for e in sub.edges:
        assert table[e] == effective_cost(e, coeffs, emb, g, sub)
    for p in paths:
        assert np.array_equal(table.vector(p), pool_path_vector(p, emb, g))
        assert table.sem(p) == semantic_match(p, q, emb, g)
        assert table.score(p) == path_score(p, q, coeffs, emb, g, sub)


@pytest.mark.parametrize("bad, kind, error", [
    (None, None, None),
    ("t3", "zero", ZeroVectorError),  # a zero tail
    ("s", "zero", ZeroVectorError),  # a zero head
    ("t4", "cancel", ZeroVectorError),  # s -r0-> t4 pools to zero
    ("r1", "ragged", ValueError),  # a relation of another dimension
    ("t5", "missing", UnknownItemError),  # the provider has no vector
])
def test_a_batch_that_meets_an_error_stores_nothing(bad, kind, error):
    """A star of nine edges and its nine paths, above the cut-off. A batch
    that meets an error stores nothing, so the one-value forms make what
    it would have, and each value read afterwards is the reference value,
    or the reference's error."""
    tails = [f"t{i}" for i in range(9)]
    g = build_graph([("s", f"r{i % 2}", t) for i, t in enumerate(tails)])
    rng = np.random.default_rng(0)
    vectors = {label: rng.standard_normal(4)
               for label in ["s", "r0", "r1", "q"] + tails}
    if kind == "zero":
        vectors[bad] = np.zeros(4)
    elif kind == "cancel":
        vectors["s"], vectors["r0"] = np.array([1.0, 2, 0, 0]), np.eye(4)[2]
        vectors[bad] = -vectors["s"] - vectors["r0"]
    elif kind == "ragged":
        vectors[bad] = np.ones(3)
    elif kind == "missing":
        del vectors[bad]
    emb = _Vectors(vectors)
    sub = full_subgraph(g)
    coeffs = WeightCoefficients()
    q = vectors["q"]
    table = ScoreTable(sub, coeffs, emb, q)
    edges = sub.out_edges[g.entity_id("s")]
    paths = [Path([e]) for e in edges]
    with pytest.MonkeyPatch.context() as mp:
        rows = _count_batch_rows(mp)
        table.match(paths)
    if error is None:
        assert rows == Counter(cosines=9, pooled=9)

    def outcome(read):
        try:
            return np.asarray(read()).tolist()
        except (KgError, ValueError) as exc:
            return type(exc)

    one_value = Counter()  # weights and pools made by the one-value forms
    with pytest.MonkeyPatch.context() as mp:
        for name in ("edge_terms", "pool_vectors"):
            def counted(*args, _name=name, _ref=getattr(kgpaths.weights,
                                                        name)):
                one_value[_name] += 1
                return _ref(*args)
            mp.setattr(kgpaths.weights, name, counted)
        got = [[outcome(read) for read in (
            lambda: table[e], lambda: table.vector(p), lambda: table.sem(p),
            lambda: table.score(p))] for e, p in zip(edges, paths)]
    # every weight is made one edge at a time, except where a zero or
    # missing endpoint leaves none to make (with a zero head, no edge has
    # one); ``match`` meets what is wrong with any vector or with a pooled
    # one
    assert one_value["edge_terms"] == (
        0 if bad == "s" else 8 if kind in ("zero", "missing") else 9)
    assert bool(one_value["pool_vectors"]) == (
        kind in ("cancel", "ragged", "missing"))
    for e, p, values in zip(edges, paths, got):
        assert values == [outcome(read) for read in (
            lambda: effective_cost(e, coeffs, emb, g, sub),
            lambda: pool_path_vector(p, emb, g),
            lambda: semantic_match(p, q, emb, g),
            lambda: path_score(p, q, coeffs, emb, g, sub))]
        if error is not None and bad in (g.entity_labels[e.head],
                                         g.entity_labels[e.tail],
                                         g.relation_labels[e.relation]):
            assert values[-1] is error


class _Vectors:
    """Embedding provider over a dict of vectors; an unknown label is an
    ``UnknownItemError``, as ``FileEmbeddings`` raises."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, label):
        try:
            return self.vectors[label]
        except KeyError:
            raise UnknownItemError(f"no embedding for {label!r}") from None


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
    paths = [Path(edges) for edges in simple_edge_paths(table.subgraph, 2)]
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


def test_coefficients_validation():
    with pytest.raises(ValueError):
        WeightCoefficients(alpha=-0.1)


def test_score_table_is_freed_without_the_cycle_collector(chain_graph):
    emb = HashEmbeddings(dimension=8, seed=0)
    table = ScoreTable(full_subgraph(chain_graph), WeightCoefficients(), emb,
                       emb.embed("q"))
    for edges in simple_edge_paths(table.subgraph, 3):
        table.score(Path(edges))
    ref = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert ref() is None
    finally:
        gc.enable()
