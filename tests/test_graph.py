import io
import json
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import HashEmbeddings, cosine
from kgpaths.errors import EditError, ParseError, UnknownEntityError
from kgpaths.graph import (
    ConfirmTriple,
    ExpandSeed,
    PruneEdge,
    RefuteTriple,
    SeedCandidate,
    Subgraph,
    SwapSeed,
    Triple,
    apply_edits,
    expand_neighborhood,
    load_prior_overrides,
    load_triples,
    open_text,
)

from conftest import (
    build_graph,
    full_subgraph,
    random_graph,
    random_multigraph,
)


def test_load_triples_interns_in_first_come_order():
    g = load_triples(io.StringIO("a\tr\tb\nb\ts\tc\n"))
    assert g.entity_labels == ["a", "b", "c"]
    assert g.relation_labels == ["r", "s"]
    assert Triple(0, 0, 1) in g.triples
    assert g.entity_id("c") == 2


def test_load_triples_rejects_malformed_line_with_lineno():
    with pytest.raises(ParseError, match="line 2"):
        load_triples(io.StringIO("a\tr\tb\na\tr\n"))


def test_duplicate_triples_stored_once_but_counted():
    g = load_triples(io.StringIO("a\tr\tb\na\tr\tb\na\ts\tc\n"))
    assert len(g.triples) == 2
    assert g.relation_frequency == [2, 1]
    # rarity prior: frequent relation is cheap, rare one expensive
    assert g.prior_cost(g.relation_id("r")) == 0.0
    assert g.prior_cost(g.relation_id("s")) == pytest.approx(0.5)


def test_add_inverse_materializes_reverse_edges():
    g = load_triples(io.StringIO("a\tr\tb\n"), add_inverse=True)
    assert g.has_relation("r⁻¹")
    assert Triple(g.entity_id("b"), g.relation_id("r⁻¹"), g.entity_id("a")) in g.triples


def test_prior_overrides(tmp_path):
    g = load_triples(io.StringIO("a\tr\tb\n"))
    p = tmp_path / "priors.tsv"
    p.write_text("r\t0.7\n")
    load_prior_overrides(g, p)
    assert g.prior_cost(g.relation_id("r")) == 0.7
    with pytest.raises(ValueError):
        g.set_prior_cost(0, 1.5)


def test_open_text_closes_only_the_files_it_opens(tmp_path):
    p = tmp_path / "triples.tsv"
    p.write_text("a\tr\tb\n", encoding="utf-8")
    for source in (p, str(p)):
        with open_text(source) as fh:
            assert list(fh) == ["a\tr\tb\n"]
        assert fh.closed
    handle = io.StringIO("a\tr\tb\n")
    with open_text(handle) as fh:
        assert fh is handle
    assert not handle.closed
    lines = ["a\tr\tb\n"]
    with open_text(lines) as fh:
        assert fh is lines


def test_unknown_lookups_raise():
    g = build_graph([("a", "r", "b")])
    with pytest.raises(UnknownEntityError):
        g.entity_id("zzz")


def test_seed_candidate_confidence_range():
    SeedCandidate(0, 0.5)
    with pytest.raises(ValueError):
        SeedCandidate(0, 1.5)


def test_expand_neighborhood_radius(chain_graph):
    seeds = [SeedCandidate(chain_graph.entity_id("a"))]
    sub1 = expand_neighborhood(chain_graph, seeds, radius=1)
    labels1 = {chain_graph.entity_labels[n] for n in sub1.nodes}
    assert labels1 == {"a", "b", "c"}
    sub2 = expand_neighborhood(chain_graph, seeds, radius=2)
    labels2 = {chain_graph.entity_labels[n] for n in sub2.nodes}
    assert labels2 == {"a", "b", "c", "d"}
    # the b->c edge is there even though b was a frontier node
    assert Triple(1, 1, 2) in sub2.edges


def test_expand_neighborhood_knn_adds_disconnected_entities(hash_embeddings):
    g = build_graph([("a", "r", "b"), ("x", "r", "y")])
    seeds = [SeedCandidate(g.entity_id("a"))]
    sub = expand_neighborhood(g, seeds, radius=1, knn=3,
                              embeddings=hash_embeddings)
    # 3 nearest of the remaining 3 entities -> everything joins
    assert len(sub.nodes) == 4


# --- node-at-a-time reference for Subgraph.add_nodes ---------------------------


class ReferenceSubgraph:
    """Nodes and edges, each mapped to the round it entered, both stored:
    the subgraph as it was kept before edges were derived from nodes."""

    def __init__(self, graph):
        self.graph = graph
        self.nodes, self.edges, self.pruned = {}, {}, set()

    def remove_node(self, entity):
        if self.nodes.pop(entity, None) is None:
            return
        for e in self.graph.out_adj[entity] + self.graph.in_adj[entity]:
            self.edges.pop(e, None)

    def prune(self, triple):
        if self.edges.pop(triple, None) is not None:
            self.pruned.add(triple)


def add_node_reference(ref, entity, round_index):
    """Add one node the way ``Subgraph.add_node`` did before batches: its
    out-edges to present nodes and its in-edges from them, both scanned and
    stored."""
    nodes, edges = ref.nodes, ref.edges
    if entity in nodes:
        return
    nodes[entity] = round_index
    for e in ref.graph.out_adj[entity]:
        if e.tail in nodes and e not in ref.pruned:
            edges[e] = round_index
    for e in ref.graph.in_adj[entity]:
        if e.head in nodes and e not in ref.pruned:
            edges[e] = round_index


def bfs_add_reference(sub, start, radius, round_index):
    """Breadth-first expansion adding each node as it is found."""
    add_node_reference(sub, start, round_index)
    frontier = deque([(start, 0)])
    seen = {start}
    while frontier:
        node, depth = frontier.popleft()
        if depth == radius:
            continue
        for e in sub.graph.out_adj[node]:
            if e.tail not in seen:
                seen.add(e.tail)
                add_node_reference(sub, e.tail, round_index)
                frontier.append((e.tail, depth + 1))


def expand_reference(g, seeds, radius, knn, emb):
    """``expand_neighborhood`` one node at a time."""
    ref = ReferenceSubgraph(g)
    for seed in seeds:
        bfs_add_reference(ref, seed, radius, 0)
    if knn:
        vecs = [emb.embed(label) for label in g.entity_labels]
        for seed in seeds:
            ranked = sorted((-cosine(vecs[seed], vecs[e]), e)
                            for e in range(g.num_entities) if e != seed)
            for _, e in ranked[:knn]:
                add_node_reference(ref, e, 0)
    return ref


_BATCH_STEPS = st.sampled_from(["add", "expand", "swap", "prune"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([random_graph, random_multigraph]),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(0, 11), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(0, 3),
       st.lists(st.tuples(_BATCH_STEPS,
                          st.lists(st.integers(0, 11), max_size=5),
                          st.integers(0, 11), st.integers(1, 2)),
                max_size=8),
       st.lists(st.tuples(st.integers(0, 11), st.integers(1, 4)),
                min_size=1, max_size=3))
def test_batched_adds_match_one_node_at_a_time(make_graph, graph_seed,
                                               seed_ids, radius, knn, steps,
                                               queries):
    """``add_nodes`` and everything built on it (first expansion with
    ``knn``, ExpandSeed, SwapSeed) leave the same nodes, in the same order,
    the same edges, entry rounds included, the same edge count, the same
    hop tables and the same kept out-edge lists as adding one node at a
    time and storing each edge, after every step of a random sequence that
    also prunes, on graphs with and without self-loops and parallel edges.
    Every entity's out-edge list is read before each step, so a step that
    leaves one stale fails."""
    g = make_graph(random.Random(graph_seed))
    n = g.num_entities
    seeds = [x % n for x in seed_ids]
    emb = HashEmbeddings(dimension=4, seed=graph_seed)
    sub = expand_neighborhood(g, [SeedCandidate(x) for x in seeds], radius,
                              knn=knn, embeddings=emb)
    ref = expand_reference(g, seeds, radius, knn, emb)
    queries = [(t % n, max_hops) for t, max_hops in queries]

    def check():
        assert list(sub.nodes.items()) == list(ref.nodes.items())
        assert sub.edges == ref.edges
        assert sub.num_edges == len(ref.edges)
        for target, max_hops in queries:
            assert sub.hops_to(target, max_hops) == hops_oracle(ref, target,
                                                                max_hops)
        for v in range(n):  # a non-node's list is empty
            assert sub.out_edges[v] == [e for e in g.out_adj[v]
                                        if e in ref.edges]

    check()
    for round_index, (kind, batch, a, radius) in enumerate(steps, start=1):
        for v in range(n):
            sub.out_edges[v]  # kept from here on, unless the step drops it
        batch = [x % n for x in batch]
        a = a % n
        if kind == "add":
            sub.add_nodes(batch, round_index)
            for x in batch:
                add_node_reference(ref, x, round_index)
        elif kind == "expand":
            apply_edits(sub, [ExpandSeed(a, radius)], round_index)
            bfs_add_reference(ref, a, radius, round_index)
        elif kind == "swap":
            new = batch[0] if batch else (a + 1) % n
            apply_edits(sub, [SwapSeed(a, new, radius)], round_index)
            ref.remove_node(a)
            bfs_add_reference(ref, new, radius, round_index)
        elif ref.edges:
            edge = sorted(ref.edges)[a % len(ref.edges)]
            apply_edits(sub, [PruneEdge(edge)], round_index)
            ref.prune(edge)
        check()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 5),
       st.sampled_from([1, 2, 8]), st.sets(st.integers(0, 11), min_size=1,
                                          max_size=3))
def test_knn_expansion_keeps_the_sorted_selection(graph_seed, knn, dimension,
                                                  seed_ids):
    """At d = 1 every cosine is +-1, so the id tie-break decides most picks."""
    g = random_graph(random.Random(graph_seed))
    seeds = sorted({x % g.num_entities for x in seed_ids})
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    sub = expand_neighborhood(g, [SeedCandidate(x) for x in seeds], radius=1,
                              knn=knn, embeddings=emb)
    ref = expand_reference(g, seeds, 1, knn, emb)  # a full sort per seed
    assert list(sub.nodes.items()) == list(ref.nodes.items())
    assert sub.edges == ref.edges
    assert sub.num_edges == len(ref.edges)


def test_expand_neighborhood_validates():
    g = build_graph([("a", "r", "b")])
    with pytest.raises(UnknownEntityError):
        expand_neighborhood(g, [SeedCandidate(99)], radius=1)
    with pytest.raises(ValueError):
        expand_neighborhood(g, [SeedCandidate(0)], radius=0)
    with pytest.raises(ValueError):
        expand_neighborhood(g, [SeedCandidate(0)], radius=1, knn=2)


def test_apply_edits_confirm_refute_multipliers(chain_graph):
    sub = full_subgraph(chain_graph)
    e = Triple(0, 0, 1)
    apply_edits(sub, [ConfirmTriple(e)])
    assert sub.multiplier(e) == pytest.approx(1 / (1 + math.exp(-4)))
    assert e not in sub.refuted
    apply_edits(sub, [RefuteTriple(e)])
    assert sub.multiplier(e) == pytest.approx(1 / (1 + math.exp(4)))
    assert e in sub.refuted


def test_prune_removes_edge_and_blocks_reinduction(chain_graph):
    sub = full_subgraph(chain_graph)
    e = Triple(0, 0, 1)
    apply_edits(sub, [PruneEdge(e)])
    assert e not in sub.edges
    # a later expansion must not resurrect the pruned edge
    apply_edits(sub, [ExpandSeed(0, radius=2)])
    assert e not in sub.edges


def test_prune_absent_edge_warns_not_raises(chain_graph):
    sub = full_subgraph(chain_graph)
    ghost = Triple(0, 1, 3)
    apply_edits(sub, [PruneEdge(ghost)])
    assert sub.warnings


def test_prunes_that_are_no_edge_warn_and_count_nothing(chain_graph):
    sub = full_subgraph(chain_graph)
    edges = dict(sub.edges)
    assert sub.num_edges == len(edges) == 4
    ghost = Triple(0, 1, 1)  # a -r2-> b: both ends are nodes, no base triple
    apply_edits(sub, [PruneEdge(ghost)])
    assert len(sub.warnings) == 1 and ghost not in sub.pruned
    assert sub.num_edges == 4 and sub.edges == edges
    e = Triple(0, 0, 1)
    apply_edits(sub, [PruneEdge(e), PruneEdge(e)])  # the second is absent
    assert len(sub.warnings) == 2 and sub.pruned == {e}
    assert sub.num_edges == 3 and sub.edges.keys() == edges.keys() - {e}


def test_pruned_edge_stays_out_when_its_ends_come_back(chain_graph):
    sub = full_subgraph(chain_graph)
    e = Triple(0, 0, 1)
    apply_edits(sub, [PruneEdge(e)])
    for end, round_index in ((e.head, 1), (e.tail, 2)):
        sub.remove_node(end)
        assert sub.num_edges == len(sub.edges) == len(scratch_edges(sub))
        sub.add_nodes([end], round_index)
        assert e not in sub.edges and not sub.has_edge(e)
        assert sub.num_edges == len(sub.edges) == 3


def test_swap_seed_replaces_node_and_edges(chain_graph):
    sub = full_subgraph(chain_graph)
    a, d = chain_graph.entity_id("a"), chain_graph.entity_id("d")
    apply_edits(sub, [SwapSeed(a, d)])
    assert a not in sub.nodes and d in sub.nodes
    assert all(e.head != a and e.tail != a for e in sub.edges)


def test_edit_unknown_entity_raises(chain_graph):
    sub = full_subgraph(chain_graph)
    with pytest.raises(EditError):
        apply_edits(sub, [ExpandSeed(99)])
    with pytest.raises(EditError):
        apply_edits(sub, [object()])


def test_subgraph_json_dump(chain_graph):
    sub = full_subgraph(chain_graph)
    payload = json.loads(sub.to_json())
    assert {n["label"] for n in payload["nodes"]} == {"a", "b", "c", "d"}
    assert all({"head", "relation", "tail", "round", "soft_multiplier"}
               <= set(e) for e in payload["edges"])


# --- edges follow nodes ---------------------------------------------------------


def scratch_edges(sub):
    """The edges a subgraph must hold: base triples with both ends among
    its nodes, minus the pruned ones."""
    return {e for e in sub.graph.triples
            if e.head in sub.nodes and e.tail in sub.nodes} - sub.pruned


_EDIT_KINDS = st.sampled_from(["expand", "swap", "readd", "prune"])


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(_EDIT_KINDS, st.integers(0, 11), st.integers(0, 11),
                          st.integers(1, 2)), min_size=1, max_size=8))
def test_incremental_induction_matches_recomputation(graph_seed, steps):
    """After every edit, the edges are the unpruned base triples between
    present nodes, each entered at the later of its two ends' rounds, and
    the kept count is their number."""
    g = random_graph(random.Random(graph_seed))
    n = g.num_entities
    sub = expand_neighborhood(g, [SeedCandidate(0)], radius=1)
    removed = []
    for round_index, (kind, a, b, radius) in enumerate(steps, start=1):
        a, b = a % n, b % n
        if kind == "expand":
            edit = ExpandSeed(a, radius)
        elif kind == "prune":
            if not sub.edges:
                continue
            edit = PruneEdge(sorted(sub.edges)[a % len(sub.edges)])
        elif kind == "readd" and removed:  # a node an earlier swap removed
            edit = SwapSeed(a, removed[b % len(removed)], radius)
        else:
            edit = SwapSeed(a, b, radius)
        if isinstance(edit, SwapSeed) and edit.old_entity in sub.nodes:
            removed.append(edit.old_entity)
        apply_edits(sub, [edit], round_index)
        assert sub.edges == {e: max(sub.nodes[e.head], sub.nodes[e.tail])
                             for e in scratch_edges(sub)}
        assert sub.num_edges == len(scratch_edges(sub))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sets(st.integers(0, 11)), st.sets(st.integers(0, 11)))
def test_nodes_added_one_at_a_time_bring_their_edges(graph_seed, first,
                                                     later):
    g = random_graph(random.Random(graph_seed))
    n = g.num_entities
    sub = Subgraph(graph=g)
    for x in first:
        sub.add_nodes([x % n], 0)
    assert sub.edges.keys() == scratch_edges(sub)
    for x in later:
        sub.add_nodes([x % n], 1)
    assert sub.edges.keys() == scratch_edges(sub)
    everything = Subgraph(graph=g)
    for x in range(n):
        everything.add_nodes([x], 0)
    assert everything.edges.keys() == g.triples


def hops_oracle(sub, target, max_hops):
    """Fewest hops to ``target`` over every base triple between present
    nodes (pruned or not), level by level, for nodes within ``max_hops``."""
    if target not in sub.nodes:
        return {}
    edges = [e for e in sub.graph.triples
             if e.head in sub.nodes and e.tail in sub.nodes]
    hops = {target: 0}
    for d in range(1, max_hops + 1):
        for e in edges:
            if hops.get(e.tail) == d - 1 and e.head not in hops:
                hops[e.head] = d
    return hops


_NODE_EDITS = st.sampled_from(["add", "remove", "expand", "swap", "prune"])


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(_NODE_EDITS, st.integers(0, 11), st.integers(0, 11),
                          st.integers(1, 2)), min_size=1, max_size=10),
       st.lists(st.tuples(st.integers(0, 11), st.integers(1, 4)),
                min_size=1, max_size=4))
def test_kept_hop_tables_match_a_fresh_search(graph_seed, steps, queries):
    """Hop tables read before an edit are kept or dropped so that each
    read equals a fresh search over the subgraph as it stands."""
    g = random_graph(random.Random(graph_seed))
    n = g.num_entities
    sub = expand_neighborhood(g, [SeedCandidate(0)], radius=1)
    queries = [(t % n, max_hops) for t, max_hops in queries]
    for round_index, (kind, a, b, radius) in enumerate(steps, start=1):
        for target, max_hops in queries:
            assert sub.hops_to(target, max_hops) == \
                hops_oracle(sub, target, max_hops)
        a, b = a % n, b % n
        if kind == "add":
            sub.add_nodes([a], round_index)
        elif kind == "remove":
            sub.remove_node(a)
        elif kind == "expand":
            apply_edits(sub, [ExpandSeed(a, radius)], round_index)
        elif kind == "swap":
            apply_edits(sub, [SwapSeed(a, b, radius)], round_index)
        elif sub.edges:
            edge = sorted(sub.edges)[a % len(sub.edges)]
            apply_edits(sub, [PruneEdge(edge)], round_index)
    for target, max_hops in queries:
        assert sub.hops_to(target, max_hops) == \
            hops_oracle(sub, target, max_hops)


def test_prunes_keep_the_hop_tables(chain_graph):
    sub = full_subgraph(chain_graph)
    table = sub.hops_to(3, 3)
    apply_edits(sub, [PruneEdge(Triple(0, 2, 2))])
    assert sub.hops_to(3, 3) is table
    sub.add_nodes([0], 1)  # present already: the node set stays as it was
    assert sub.hops_to(3, 3) is table
    sub.remove_node(0)
    assert sub.hops_to(3, 3) is not table


def test_subgraph_cannot_be_built_holding_nodes():
    g = build_graph([("a", "r", "b")])
    with pytest.raises(TypeError):
        Subgraph(graph=g, nodes={0: 0, 1: 0})
    with pytest.raises(TypeError):
        Subgraph(graph=g, edges={Triple(0, 0, 1): 0})
    with pytest.raises(TypeError):
        Subgraph(graph=g, num_edges=1)


def test_edges_are_a_read_only_view(chain_graph):
    sub = full_subgraph(chain_graph)
    with pytest.raises(TypeError):
        sub.edges[Triple(0, 1, 1)] = 0


def check_end_ids(g):
    for v in range(g.num_entities):
        assert isinstance(g.out_tails[v], tuple)
        assert isinstance(g.in_heads[v], tuple)
        assert list(g.out_tails[v]) == [e.tail for e in g.out_adj[v]]
        assert list(g.in_heads[v]) == [e.head for e in g.in_adj[v]]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([random_graph, random_multigraph]),
       st.integers(min_value=0, max_value=10_000))
def test_finalize_keeps_end_ids_in_adjacency_order(make_graph, graph_seed):
    g = make_graph(random.Random(graph_seed))
    check_end_ids(g)
    lines = ["\t".join(g.triple_labels(e)) + "\n" for e in sorted(g.triples)]
    check_end_ids(load_triples(lines, add_inverse=True))


class UnhashableTriple(Triple):
    def __hash__(self):
        raise AssertionError(f"{tuple(self)} hashed")


def test_adding_nodes_hashes_no_triple_while_nothing_is_pruned():
    """Node edits read only id tuples while nothing is pruned, and an
    edit that adds no node reads nothing at all."""
    g = random_multigraph(random.Random(3))
    n = g.num_entities
    total = len(g.triples)
    g.out_adj = [[UnhashableTriple(*e) for e in adj] for adj in g.out_adj]
    g.in_adj = [[UnhashableTriple(*e) for e in adj] for adj in g.in_adj]
    sub = expand_neighborhood(g, [SeedCandidate(0)], radius=2)
    apply_edits(sub, [ExpandSeed(n - 1, 1), SwapSeed(0, n // 2)], 1)
    sub.hops_to(n // 2, 3)
    sub.add_nodes(range(n), 2)
    assert sub.num_edges == total
    g.out_adj = g.in_adj = g.out_tails = g.in_heads = None
    sub.add_nodes(range(n), 3)
    assert sub.num_edges == total


@pytest.mark.parametrize("radius", [0, -1])
def test_edits_refuse_a_radius_below_one(radius):
    with pytest.raises(ValueError):
        ExpandSeed(0, radius)
    with pytest.raises(ValueError):
        SwapSeed(0, 1, radius)
