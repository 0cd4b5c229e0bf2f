import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import HashEmbeddings
from kgpaths.graph import PruneEdge, Subgraph, Triple, apply_edits
from kgpaths.pathenum import (
    EnumerationBudget,
    beam_expand,
    edge_costs,
    enumerate_paths,
    k_shortest_weighted,
    random_walk_proposals,
)
from kgpaths.paths import Path
from kgpaths.weights import ScoreTable, WeightCoefficients, path_score

from conftest import build_graph, full_subgraph, random_graph

EMB = HashEmbeddings(dimension=8, seed=0)
COEFFS = WeightCoefficients()


def brute_force(subgraph, seed, k, max_length, costs, target=None):
    """Oracle: all bounded simple paths, sorted by (cost, nodes, relations)."""
    adj = {}
    for e in subgraph.edges:
        adj.setdefault(e.head, []).append(e)
    found = []

    def dfs(node, edges, nodes, cost):
        for e in adj.get(node, []):
            if e.tail in nodes:
                continue
            entry = (cost + costs[e], nodes + (e.tail,),
                     tuple(x.relation for x in edges) + (e.relation,),
                     edges + (e,))
            found.append(entry)
            if len(edges) + 1 < max_length:
                dfs(e.tail, edges + (e,), nodes + (e.tail,), cost + costs[e])

    dfs(seed, (), (seed,), 0.0)
    found.sort(key=lambda f: f[:3])
    if target is not None:
        found = [f for f in found if f[1][-1] == target]
    return found[:k]


def test_budget_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(max_length=0)
    with pytest.raises(ValueError):
        EnumerationBudget(restart_prob=1.0)


def test_k_shortest_simple_chain(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=4)
    costs = edge_costs(sub, COEFFS, EMB)
    paths = k_shortest_weighted(costs, 0, 100, budget)
    # simple paths from a: a-b, a-b-c, a-b-c-d, a-c, a-c-d
    assert len(paths) == 5
    totals = [sum(costs[e] for e in p.edges) for p in paths]
    assert totals == sorted(totals)


def test_k_shortest_pair_mode(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=4)
    target = chain_graph.entity_id("c")
    paths = k_shortest_weighted(edge_costs(sub, COEFFS, EMB), 0, 100, budget,
                                target=target)
    assert {p.terminal for p in paths} == {target}
    assert len(paths) == 2


def test_k_shortest_respects_length_cap(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=1)
    paths = k_shortest_weighted(edge_costs(sub, COEFFS, EMB), 0, 100, budget)
    assert all(len(p) == 1 for p in paths)


def test_k_shortest_matches_brute_force_on_random_graphs():
    budget = EnumerationBudget(max_length=4)
    for i in range(30):
        rng = random.Random(i)
        g = random_graph(rng)
        sub = full_subgraph(g)
        costs = edge_costs(sub, COEFFS, EMB)
        seed = rng.randrange(g.num_entities)
        k = rng.randint(1, 10)
        got = k_shortest_weighted(costs, seed, k, budget)
        want = brute_force(sub, seed, k, 4, costs)
        assert [(p.nodes, p.relations) for p in got] == \
            [(nodes, rels) for _, nodes, rels, _ in want], f"graph {i}"


def partial_subgraph(graph, rng, seed, prune):
    """Working view holding ``seed`` and about 70% of the other nodes, with
    about 30% of its edges pruned when ``prune`` is set."""
    sub = Subgraph(graph=graph)
    sub.add_nodes([n for n in range(graph.num_entities)
                   if n == seed or rng.random() < 0.7], 0)
    if prune:
        apply_edits(sub, [PruneEdge(e) for e in sorted(sub.edges)
                          if rng.random() < 0.3])
    return sub


@settings(max_examples=90, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 8),
       st.one_of(st.none(), st.integers(0, 11)),
       st.sampled_from(["full", "partial", "pruned"]))
def test_k_shortest_brute_force_property(graph_seed, k, target, view):
    rng = random.Random(graph_seed)
    g = random_graph(rng)
    seed = rng.randrange(g.num_entities)
    sub = (full_subgraph(g) if view == "full"
           else partial_subgraph(g, rng, seed, prune=view == "pruned"))
    costs = edge_costs(sub, COEFFS, EMB)
    budget = EnumerationBudget(max_length=3)
    got = k_shortest_weighted(costs, seed, k, budget, target=target)
    want = brute_force(sub, seed, k, 3, costs, target=target)
    assert [(p.nodes, p.relations) for p in got] == \
        [(nodes, rels) for _, nodes, rels, _ in want]


def test_beam_expand_respects_beam_size():
    triples = [("s", "r", f"t{i}") for i in range(10)]
    g = build_graph(triples)
    sub = full_subgraph(g)
    budget = EnumerationBudget(max_length=2, beam_size=3)
    q = EMB.embed("q")
    paths = beam_expand(ScoreTable(sub, COEFFS, EMB, q), [g.entity_id("s")],
                        budget)
    assert len(paths) == 3  # only depth-1 paths exist; truncated to B


def test_beam_keeps_highest_scoring_prefixes(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=4, beam_size=32)
    q = EMB.embed("q")
    paths = beam_expand(ScoreTable(sub, COEFFS, EMB, q), [0], budget)
    # with a wide beam every prefix is retained
    assert len({p.key() for p in paths}) == 5


def test_random_walks_deterministic_and_simple(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=4, walks=50, restart_prob=0.3)
    a = random_walk_proposals(edge_costs(sub, COEFFS, EMB), [0], budget, 42)
    b = random_walk_proposals(edge_costs(sub, COEFFS, EMB), [0], budget, 42)
    assert [p.key() for p in a] == [p.key() for p in b]
    c = random_walk_proposals(edge_costs(sub, COEFFS, EMB), [0], budget, 43)
    assert len(a) <= 50
    for p in a + c:
        assert len(set(p.nodes)) == len(p.nodes)


def test_enumerate_paths_dedups_and_truncates(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=4, max_candidates=3, walks=20)
    q = EMB.embed("q")
    paths = enumerate_paths(ScoreTable(sub, COEFFS, EMB, q), [0], budget,
                            rng_seed=1)
    assert len(paths) == 3
    assert len({p.key() for p in paths}) == 3


def test_enumerate_paths_ranked_by_score(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget(max_length=4, walks=0)
    q = EMB.embed("q")
    paths = enumerate_paths(ScoreTable(sub, COEFFS, EMB, q), [0], budget)
    scores = [path_score(p, q, COEFFS, EMB, chain_graph, sub) for p in paths]
    assert scores == sorted(scores, reverse=True)


def test_enumerate_paths_seed_handling(chain_graph):
    sub = full_subgraph(chain_graph)
    budget = EnumerationBudget()
    q = EMB.embed("q")
    table = ScoreTable(sub, COEFFS, EMB, q)
    with pytest.raises(ValueError):
        enumerate_paths(table, [], budget)
    # seeds outside the subgraph are skipped; none left -> empty result
    assert enumerate_paths(table, [99], budget) == []


def test_enumerate_paths_pair_mode():
    g = build_graph([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")])
    sub = full_subgraph(g)
    budget = EnumerationBudget(max_length=4, walks=0)
    q = EMB.embed("q")
    seeds = [g.entity_id("a"), g.entity_id("c")]
    paths = enumerate_paths(ScoreTable(sub, COEFFS, EMB, q), seeds, budget,
                            pair_mode=True)
    assert all(p.nodes[0] in seeds and p.terminal in seeds for p in paths)
    assert [p.nodes for p in paths] == [(0, 1, 2)]


def pair_mode_reference(sub, seeds, budget, q, rng_seed):
    """Pair mode with every generator run: the pooled k-shortest, beam and
    walk proposals, filtered to seed-to-seed paths, ranked by the uncached
    ``path_score`` and cut to K."""
    table = ScoreTable(sub, COEFFS, EMB, q)
    present = sorted({s for s in seeds if s in sub.nodes})
    pool = {}
    proposals = [
        p
        for s in present for t in present if t != s
        for p in k_shortest_weighted(table, s, budget.max_candidates, budget,
                                     target=t)
    ]
    proposals += beam_expand(table, present, budget)
    proposals += random_walk_proposals(table, present, budget, rng_seed)
    for p in proposals:
        if p.terminal in present and p.terminal != p.nodes[0]:
            pool.setdefault(p.key(), p)
    ranked = sorted(pool.values(), key=lambda p: (
        -path_score(p, q, COEFFS, EMB, sub.graph, sub),
        p.nodes, p.relations))
    return [p.key() for p in ranked[:budget.max_candidates]]


@settings(max_examples=60, deadline=None)
@example(101, 2, 3, [0, 10])  # K saturated; beam adds a better-scoring path
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([1, 2, 3, 200]), st.integers(1, 4),
       st.lists(st.integers(0, 11), min_size=1, max_size=3))
def test_enumerate_paths_pair_mode_matches_reference(graph_seed, k, length,
                                                      seeds):
    g = random_graph(random.Random(graph_seed))
    sub = full_subgraph(g)
    budget = EnumerationBudget(max_length=length, max_candidates=k,
                               beam_size=4, walks=30)
    q = EMB.embed(f"q{graph_seed}")
    got = enumerate_paths(ScoreTable(sub, COEFFS, EMB, q), seeds, budget,
                          rng_seed=graph_seed, pair_mode=True)
    assert [p.key() for p in got] == \
        pair_mode_reference(sub, seeds, budget, q, graph_seed)


def walks_reference(costs, seeds, budget, rng_seed):
    """``random_walk_proposals`` drawing each step from a freshly filtered
    option list, as it did before it kept step tables."""
    if budget.walks == 0 or not seeds:
        return []
    sub = costs.subgraph
    rng = random.Random(rng_seed)
    seeds = sorted(set(seeds))
    out = []
    for i in range(budget.walks):
        start = seeds[i % len(seeds)]
        edges, visited, node = [], {start}, start
        while len(edges) < budget.max_length:
            if rng.random() < budget.restart_prob:
                break
            options = [e for e in sub.graph.out_adj[node]
                       if e in sub.edges and e.tail not in visited]
            if not options:
                break
            inv = [1.0 / max(costs[e], 1e-9) for e in options]
            chosen = rng.choices(options, weights=inv, k=1)[0]
            edges.append(chosen)
            visited.add(chosen.tail)
            node = chosen.tail
        if edges:
            out.append(Path(edges))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.integers(0, 11), min_size=1, max_size=3),
       st.integers(1, 5), st.sampled_from([0.05, 0.15, 0.6]),
       st.dictionaries(st.integers(0, 29), st.floats(0.0, 50.0), max_size=10),
       st.sets(st.integers(0, 29), max_size=4))
def test_walk_step_tables_match_the_per_step_filter(
        graph_seed, rng_seed, seeds, length, restart, soft, pruned):
    g = random_graph(random.Random(graph_seed))
    sub = full_subgraph(g)
    edges = sorted(sub.edges)
    if edges:
        apply_edits(sub, [PruneEdge(edges[i % len(edges)]) for i in pruned])
        for i, multiplier in soft.items():
            sub.soft[edges[i % len(edges)]] = multiplier
    seeds = [s for s in seeds if s in sub.nodes]
    budget = EnumerationBudget(max_length=length, walks=40,
                               restart_prob=restart)
    got = random_walk_proposals(edge_costs(sub, COEFFS, EMB), seeds, budget,
                                rng_seed)
    want = walks_reference(edge_costs(sub, COEFFS, EMB), seeds, budget,
                           rng_seed)
    assert [p.key() for p in got] == [p.key() for p in want]
