import io
import json
import math
import os
import random
import re
import tempfile
from collections import deque
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import FileEmbeddings, HashEmbeddings, cosine
from kgpaths.evaluation import load_benchmark
from kgpaths.config import load_config
from kgpaths.errors import (
    ConfigError,
    EditError,
    ParseError,
    UnknownEntityError,
    ZeroVectorError,
)
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
from kgpaths.scoring import LinearScorer, LinearVerifier

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
    p.write_text("\ufeffa\tr\tb\n", encoding="utf-8")
    for source in (p, str(p)):  # a path's byte-order mark is not read
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


# a label with no tab, no line break, no surrounding whitespace and no
# U+FEFF, which a path read at the start of a file drops as its BOM
_label = st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                 min_size=1).filter(
    lambda s: s == s.strip() and "\ufeff" not in s)
_padding = st.text(" \t", max_size=3)


@settings(max_examples=100, deadline=None)
@given(triples=st.lists(st.tuples(_label, _label, _label), min_size=1,
                        max_size=6),
       data=st.data())
def test_load_triples_reads_messy_copies_as_the_clean_file(triples, data):
    def read(graph):
        return graph.entity_labels, graph.relation_labels, graph.triples

    lines = ["\t".join(t) for t in triples]
    clean = read(load_triples(io.StringIO("".join(f"{s}\n" for s in lines))))
    crlf = "".join(f"{s}\r\n" for s in lines)
    padded = "".join(f"{data.draw(_padding)}{s}{data.draw(_padding)}\n"
                     for s in lines)
    blanks = "".join(
        "".join(f"{b}\n" for b in data.draw(st.lists(_padding, max_size=2)))
        + f"{s}\n" for s in lines)
    for text in (crlf, padded, blanks):
        assert read(load_triples(io.StringIO(text))) == clean, repr(text)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "triples.tsv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\ufeff" + crlf)
        assert read(load_triples(path)) == clean


def _load_priors(source):
    load_prior_overrides(load_triples(io.StringIO("a\tr\tb\na\ts\tb\n")),
                         source)


# each line-oriented loader: two good lines, then lines that are malformed
_LOADERS = {
    "triples": (load_triples, ("a\tr\tb", "a\tr\tb"),
                ["a\tr", "a\t \tb", "a\tr\tb\tc"]),
    "priors": (_load_priors, ("r\t0.5", "s\t0.5"),
               ["s", "s\t0.5\t1", "s\tcheap"]),
    "embeddings": (FileEmbeddings.load, ("a\t1.0,0.0", "b\t0.0,1.0"),
                   ["a", " \t1.0,0.0", "b\t1.0,oops"]),
    "weights": (LinearScorer.load, ("bias\t1.0", "cost\t1.0"),
                ["bias", "cost\t1.0\t2.0", "cost\theavy"]),
    "config": (load_config, ("rounds = 2", "radius = 2"), ["rounds"]),
    "benchmark": (load_benchmark, (json.dumps(
        {"question": "q", "seeds": [{"entity": "a"}], "answers": ["b"]}),) * 2,
        ["{bad json", '{"question": "q"}']),
}


@pytest.mark.parametrize("name", sorted(_LOADERS))
def test_each_loader_skips_blank_lines_and_names_a_malformed_line(name):
    load, (good, other), malformed = _LOADERS[name]
    load(io.StringIO(f"{good}\n \t \n{other}\n"))
    error = ConfigError if name == "config" else ParseError
    for line in malformed:
        with pytest.raises(error, match=r"^line 3: "):
            load(io.StringIO(f"{good}\n \n{line}\n"))


def _benchmark_line(**fields):
    return json.dumps({"question": "q", "seeds": [{"entity": "a"}],
                       "answers": ["b"], **fields}) + "\n"


# input each loader refuses, with the start of its error: a key given on
# two lines, a weight that is not finite, answers that are not a list of
# strings, a gold path whose nodes and relations cannot chain
_REFUSED = {
    "embeddings_repeat": (FileEmbeddings.load, "a\t1,0\na\t0,1\n",
                          "line 2: label 'a' repeats line 1"),
    "config_repeat": (load_config, "rounds = 2\n# c\nrounds = 3\n",
                      "line 3: rounds repeats line 1"),
    "priors_repeat": (_load_priors, "r\t0.2\nr\t0.7\n",
                      "line 2: relation 'r' repeats line 1"),
    "weights_repeat": (LinearScorer.load, "bias\t1\ncost\t2\nbias\t3\n",
                       "line 3: feature 'bias' repeats line 1"),
    "weights_nan": (LinearScorer.load, "bias\t1\nsem\tnan\n",
                    "line 2: non-finite weight 'nan'"),
    "weights_inf": (LinearVerifier.load, "cost\t-inf\n",
                    "line 1: non-finite weight '-inf'"),
    "answers_string": (load_benchmark, _benchmark_line(answers="NYC"),
                       "line 1: answers 'NYC' is not a list of strings"),
    "answers_number": (load_benchmark, _benchmark_line(answers=[1]),
                       "line 1: answers [1] is not a list of strings"),
    "gold_path": (load_benchmark, _benchmark_line(gold_paths=[
        {"nodes": ["a", "m", "b"], "relations": ["r"]}]),
        "line 1: gold path of 3 nodes and 1 relations"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_each_loader_refuses_what_it_would_keep_silently(case):
    load, text, message = _REFUSED[case]
    error = ConfigError if load is load_config else ParseError
    with pytest.raises(error, match="^" + re.escape(message)):
        load(io.StringIO(text))


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


def in_edges(graph, entity):
    """The triples into ``entity``, in triple order."""
    return [e for e in sorted(graph.triples) if e.tail == entity]


class ReferenceSubgraph:
    """Nodes and edges, each mapped to the round it entered, both stored:
    the subgraph as it was kept before edges were derived from nodes."""

    def __init__(self, graph):
        self.graph = graph
        self.nodes, self.edges, self.pruned = {}, {}, set()

    def remove_node(self, entity):
        if self.nodes.pop(entity, None) is None:
            return
        for e in self.graph.out_adj[entity] + in_edges(self.graph, entity):
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
    for e in in_edges(ref.graph, entity):
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
            apply_edits(sub, [SwapSeed(a, new)], round_index)
            ref.remove_node(a)
            bfs_add_reference(ref, new, 1, round_index)
        elif ref.edges:
            edge = sorted(ref.edges)[a % len(ref.edges)]
            apply_edits(sub, [PruneEdge(edge)], round_index)
            ref.prune(edge)
        check()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(1, 5),
       st.sampled_from([1, 2, 8, 64]), st.sets(st.integers(0, 11), min_size=1,
                                              max_size=3),
       st.sampled_from(["hash", "scaled", "repeated", "zero"]))
def test_knn_expansion_keeps_the_sorted_selection(graph_seed, knn, dimension,
                                                  seed_ids, vectors):
    """The batched scan picks what ``cosine`` called once per entity and a
    full sort pick. At d = 1 every cosine is +-1, and with vectors
    ``repeated`` from three, many cosines tie exactly, so the id
    tie-break decides most picks; ``scaled`` vectors span 10**-50 to
    10**50; with a ``zero`` vector, both raise ``ZeroVectorError``."""
    g = random_graph(random.Random(graph_seed))
    seeds = sorted({x % g.num_entities for x in seed_ids})
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    if vectors != "hash":
        rng = random.Random(graph_seed)
        table = {label: emb.embed(label) * 10.0 ** rng.randint(-50, 50)
                 for label in g.entity_labels}
        if vectors == "repeated":
            table = {label: table[g.entity_labels[i % 3]]
                     for i, label in enumerate(g.entity_labels)}
        elif vectors == "zero":
            table[g.entity_labels[-1]] = np.zeros(dimension)
        emb = FileEmbeddings(table)
    expand = partial(expand_neighborhood, g, [SeedCandidate(x) for x in seeds],
                     radius=1, knn=knn, embeddings=emb)
    if vectors == "zero":
        for run in (expand, lambda: expand_reference(g, seeds, 1, knn, emb)):
            with pytest.raises(ZeroVectorError):
                run()
        return
    sub = expand()
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
            edit = SwapSeed(a, removed[b % len(removed)])
        else:
            edit = SwapSeed(a, b)
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
            apply_edits(sub, [SwapSeed(a, b)], round_index)
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
    # the edit state is set only by the edits, so it is no argument either
    for name, value in [("soft", {Triple(0, 0, 1): 1.0}),
                        ("refuted", {Triple(0, 0, 1)}),
                        ("pruned", {Triple(0, 0, 1)}),
                        ("warnings", ["w"])]:
        with pytest.raises(TypeError):
            Subgraph(graph=g, **{name: value})


def test_edges_are_a_read_only_view(chain_graph):
    sub = full_subgraph(chain_graph)
    with pytest.raises(TypeError):
        sub.edges[Triple(0, 1, 1)] = 0


def check_end_ids(g):
    for v in range(g.num_entities):
        assert isinstance(g.out_tails[v], tuple)
        assert isinstance(g.in_heads[v], tuple)
        assert list(g.out_tails[v]) == [e.tail for e in g.out_adj[v]]
        assert list(g.in_heads[v]) == [e.head for e in in_edges(g, v)]


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
    sub = expand_neighborhood(g, [SeedCandidate(0)], radius=2)
    apply_edits(sub, [ExpandSeed(n - 1, 1), SwapSeed(0, n // 2)], 1)
    sub.hops_to(n // 2, 3)
    sub.add_nodes(range(n), 2)
    assert sub.num_edges == total
    g.out_adj = g.out_tails = g.in_heads = None
    sub.add_nodes(range(n), 3)
    assert sub.num_edges == total


@pytest.mark.parametrize("radius", [0, -1])
def test_edits_refuse_a_radius_below_one(radius):
    with pytest.raises(ValueError):
        ExpandSeed(0, radius)


def test_edits_carry_only_what_their_diagnostic_names(chain_graph):
    # VERIFY names a triple and DISAMBIGUATE two entities: no multiplier
    # (a refute multiplier of -1 would divide a cost by zero) and no radius
    assert [f.name for f in fields(ConfirmTriple)] == ["triple"]
    assert [f.name for f in fields(RefuteTriple)] == ["triple"]
    assert [f.name for f in fields(SwapSeed)] == ["old_entity", "new_entity"]
    e = Triple(0, 0, 1)
    with pytest.raises(TypeError):
        RefuteTriple(e, multiplier=-1.0)
    with pytest.raises(TypeError):
        SwapSeed(0, 2, radius=2)
    sub = Subgraph(graph=chain_graph)
    sub.add_nodes([0], 0)
    apply_edits(sub, [SwapSeed(0, 1)], 1)  # b and one hop: c, not d
    assert sub.nodes == {1: 1, 2: 1}
