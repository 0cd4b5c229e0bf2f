"""The graph's weighting store: what no question changes is shared by the
episodes on one graph, and never outlives the provider, coefficients,
triples or priors it was computed for."""

import gc
import json
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgpaths.weights
from kgpaths.embeddings import HashEmbeddings
from kgpaths.errors import ServiceError, UnknownRelationError
from kgpaths.evaluation import run_benchmark
from kgpaths.loop import ScriptedReasoner
from kgpaths.paths import Path, pool_path_vector
from kgpaths.synthetic import FIXTURES, adversarial_fixture, argo_fixture
from kgpaths.weights import (
    ScoreTable,
    WeightCoefficients,
    WeightStore,
    effective_cost,
    semantic_match,
)

from conftest import build_graph, full_subgraph, random_graph, simple_edge_paths


def _report(fx, config=None, embeddings=None, records=None):
    config = config or fx.config
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=config.conf_threshold,
                                probes=fx.probes)
    return run_benchmark(records or fx.records, fx.graph, config, reasoner,
                         embeddings or fx.embeddings)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_second_run_on_one_graph_weighs_no_edge(name, monkeypatch):
    """The store keeps every edge weight the first run made, so a second
    run of the same questions on the same graph makes none and reports
    the same bytes: a batch fill of edge weights would have nothing to do
    after a graph's first episodes."""
    fx = FIXTURES[name]()
    made = Counter()
    edge_terms = kgpaths.weights.edge_terms

    def counted(*args):
        made["weights"] += 1
        return edge_terms(*args)

    monkeypatch.setattr(kgpaths.weights, "edge_terms", counted)
    reports, weights = [], []
    for _ in range(2):
        reports.append(json.dumps(_report(fx), sort_keys=True, indent=2))
        weights.append(made.pop("weights", 0))
    assert weights[0] > 0 and weights[1] == 0
    assert reports[1] == reports[0]


def test_a_prior_changed_between_runs_gives_a_fresh_graphs_report():
    fx = adversarial_fixture()
    before = _report(fx)
    assert fx.graph.weighting is not None
    rel = fx.graph.relation_id("rel_dist_b")
    fx.graph.set_prior_cost(rel, 0.0)
    assert fx.graph.weighting is None
    fresh = adversarial_fixture()
    fresh.graph.set_prior_cost(rel, 0.0)
    after = _report(fx)
    assert after == _report(fresh)
    assert after != before  # the prior moves the report


def test_providers_and_coefficients_in_turn_never_share_a_value():
    fx = adversarial_fixture()
    records = fx.records[::3]
    providers = [fx.embeddings, HashEmbeddings(dimension=4, seed=1)]
    configs = [fx.config, fx.config.with_overrides(alpha=0.1, beta=0.8,
                                                   gamma=0.1)]
    turns = [(0, 0), (1, 0), (0, 0), (0, 1), (1, 1), (0, 0)]
    reports = {}
    for p, c in turns:
        report = _report(fx, configs[c], providers[p], records)
        fresh = adversarial_fixture()
        assert report == _report(fresh, configs[c], providers[p], records)
        reports.setdefault((p, c), report)
        assert reports[(p, c)] == report
    # every setting gives its own report, so a shared value would show
    assert len({repr(r) for r in reports.values()}) == len(reports)


def test_store_is_kept_for_one_provider_and_alpha_beta_gamma():
    g = build_graph([("a", "r", "b"), ("b", "s", "c")])
    emb = HashEmbeddings(dimension=8, seed=0)
    coeffs = WeightCoefficients()
    store = WeightStore.of(g, emb, coeffs)
    assert g.weighting is store
    # lambda_sem enters no stored value
    assert WeightStore.of(g, emb, WeightCoefficients(lambda_sem=0.1)) is store
    twin = HashEmbeddings(dimension=8, seed=0)  # equal, but not the same
    for provider, other_coeffs in [(twin, coeffs),
                                   (emb, WeightCoefficients(gamma=0.3))]:
        other = WeightStore.of(g, provider, other_coeffs)
        assert other is not store and g.weighting is other
        store = other


@pytest.mark.parametrize("change", [
    lambda g: g.set_prior_cost(0, 0.5),
    lambda g: pytest.raises(ValueError, g.add_triple, "c", "r", "a"),
    lambda g: pytest.raises(ValueError, g.finalize),
])
def test_graph_changes_drop_the_store(change):
    """A prior, the one change a finalized graph takes, drops the store; a
    triple or a second ``finalize()`` is refused and leaves it in place."""
    g = build_graph([("a", "r", "b"), ("b", "s", "c")])
    ScoreTable(full_subgraph(g), WeightCoefficients(),
               HashEmbeddings(dimension=8, seed=0))
    store = g.weighting
    assert store is not None
    refused = change(g) is not None  # pytest.raises returns what it caught
    assert g.weighting is (store if refused else None)


class _FailsOnce:
    """Provider that raises ``ServiceError`` on the first ``embed`` of
    ``label`` and answers every other call."""

    def __init__(self, inner, label):
        self.inner = inner
        self.label = label

    def embed(self, label):
        if label == self.label:
            self.label = None
            raise ServiceError("embedding unavailable")
        return self.inner.embed(label)


def test_after_a_provider_failure_the_next_episode_reads_as_a_fresh_run():
    fx = argo_fixture()
    flaky = _FailsOnce(fx.embeddings, "Chris_Terrio")
    rows = _report(fx, embeddings=flaky, records=fx.records * 2)["per_question"]
    assert [r["failed"] for r in rows] == [1, 0]
    assert rows[1] == _report(argo_fixture())["per_question"][0]


def test_a_graph_that_ran_an_episode_is_freed_without_the_cycle_collector():
    fx = argo_fixture()
    graph = fx.graph
    _report(fx)
    assert graph.weighting is not None
    ref = weakref.ref(graph)
    gc.disable()
    try:
        del fx, graph
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 2, 8]), st.booleans(),
       st.sampled_from([1, None]))
def test_two_tables_over_one_store_match_the_reference(
        graph_seed, dimension, change_prior, cutoff):
    """Two episodes' tables on one graph, each with its own subgraph, soft
    multipliers and query, the second reading what the first stored
    (unless a prior changed in between): every cost, made one edge at a
    time or read from the store, and every vector and semantic match,
    whether ``match`` filled it in a batch (cut-off 1) or one at a time,
    equals the reference functions' by ``==``."""
    rng = random.Random(graph_seed)
    g = random_graph(rng, max_nodes=10, max_edges=40)
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    coeffs = WeightCoefficients(gamma=0.5)
    paths = [Path(edges)
             for edges in simple_edge_paths(full_subgraph(g), 3)[:300]]
    change_prior = change_prior and g.num_relations > 0
    stores = []
    for episode in range(2):
        if episode and change_prior:
            g.set_prior_cost(rng.randrange(g.num_relations), rng.random())
        sub = full_subgraph(g)
        for e in sorted(sub.edges):
            if rng.random() < 0.3:
                sub.soft[e] = rng.random()
        q = emb.embed(f"q{episode}")
        table = ScoreTable(sub, coeffs, emb, q)
        stores.append(g.weighting)
        with pytest.MonkeyPatch.context() as mp:
            if cutoff is not None:
                mp.setattr(kgpaths.weights, "BATCH_ROWS", cutoff)
            table.match(paths)
        for e in sub.edges:
            assert table[e] == effective_cost(e, coeffs, emb, g, sub)
        for p in paths:
            assert np.array_equal(table.vector(p), pool_path_vector(p, emb, g))
            assert table.sem(p) == semantic_match(p, q, emb, g)
    assert (stores[0] is stores[1]) is not change_prior


@pytest.mark.parametrize("relation", [-1, 2, True, False])
def test_set_prior_cost_refuses_an_unknown_relation_id(relation):
    g = build_graph([("a", "r", "b"), ("b", "s", "c")])
    priors = [g.prior_cost(0), g.prior_cost(1)]
    with pytest.raises(UnknownRelationError):
        g.set_prior_cost(relation, 0.25)
    assert [g.prior_cost(0), g.prior_cost(1)] == priors
