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
    KnowledgeGraph,
    PruneEdge,
    RefuteTriple,
    SeedCandidate,
    Subgraph,
    SwapSeed,
    Triple,
    _nearest,
    apply_edits,
    expand_neighborhood,
    load_prior_overrides,
    load_triples,
    open_text,
)
from kgpaths.scoring import LinearScorer, LinearVerifier

from conftest import (
    build_graph,
    edge_count_oracle,
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
               ["s", "s\t0.5\t1", "s\tcheap", "zz\t0.5"]),
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
    with pytest.raises(ValueError, match="knn must be >= 0"):
        expand_neighborhood(g, [SeedCandidate(0)], radius=1, knn=-1)


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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([random_graph, random_multigraph]),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(0, 11), min_size=1, max_size=4))
def test_an_unbounded_hop_limit_costs_nothing(make_graph, graph_seed,
                                              removed):
    """With L = 10**12, ``reaches`` and ``hops_to`` give what they give
    with L = the entity count, and the table is the oracle's, for every
    target, with every node present and after some are removed. A search
    that ran all L hops would not finish: each stops at its first hop
    that finds nothing."""
    g = make_graph(random.Random(graph_seed))
    n = g.num_entities
    sub = full_subgraph(g)
    for _ in range(2):
        for t in range(n):
            # asked before any table for (t, 10**12) is kept
            far = [sub.reaches(s, t, 10**12) for s in range(n)]
            hops = sub.hops_to(t, 10**12)
            assert hops == sub.hops_to(t, n) == hops_oracle(sub, t, n)
            assert far == [s in hops for s in range(n)]
        for x in removed:
            sub.remove_node(x % n)


def bfs_order_reference(g, starts, radius):
    """The nodes within ``radius`` out-hops of ``starts``, in the order
    expansion enters them: per start, the start, then each hop's new tails
    in ``out_tails`` order, keeping each node's first occurrence."""
    order = []
    for start in starts:
        reached, layer = [start], [start]
        for _ in range(min(radius, g.num_entities)):
            layer = [t for v in layer for t in g.out_tails[v]]
            layer = [t for t in dict.fromkeys(layer) if t not in reached]
            reached += layer
        order += reached
    return list(dict.fromkeys(order))


_RADII = st.sampled_from([1, 2, 3, 4, 10**12])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([random_graph, random_multigraph]),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(0, 11), min_size=1, max_size=3), _RADII,
       st.integers(0, 11), _RADII, st.integers(0, 11), st.integers(0, 11))
def test_expansion_enters_nodes_in_breadth_first_order(
        make_graph, graph_seed, seed_ids, radius, start, edit_radius, old,
        new):
    """``expand_neighborhood`` with one to three seeds, then an
    ``ExpandSeed`` and a ``SwapSeed``, enter their nodes in the order of a
    plain breadth-first search, each at its round, on graphs with and
    without self-loops and parallel edges."""
    g = make_graph(random.Random(graph_seed))
    n = g.num_entities
    seeds = [x % n for x in seed_ids]
    start, old, new = start % n, old % n, new % n
    sub = expand_neighborhood(g, [SeedCandidate(x) for x in seeds], radius)
    expected = dict.fromkeys(bfs_order_reference(g, seeds, radius), 0)
    assert list(sub.nodes.items()) == list(expected.items())
    apply_edits(sub, [ExpandSeed(start, edit_radius)], 1)
    for v in bfs_order_reference(g, [start], edit_radius):
        expected.setdefault(v, 1)
    assert list(sub.nodes.items()) == list(expected.items())
    apply_edits(sub, [SwapSeed(old, new)], 2)
    expected.pop(old, None)
    for v in bfs_order_reference(g, [new], 1):
        expected.setdefault(v, 2)
    assert list(sub.nodes.items()) == list(expected.items())


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


_COUNT_STEPS = st.sampled_from(["add", "remove", "prune", "knn"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([random_graph, random_multigraph]),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(_COUNT_STEPS,
                          st.lists(st.integers(0, 11), max_size=5),
                          st.integers(0, 11)), max_size=10))
def test_the_array_edge_count_matches_the_python_count(make_graph,
                                                      graph_seed, steps):
    """``num_edges``, counted from the graph's flat tail ids, equals the
    plain count and the edges listed, from the empty subgraph on, after
    every step of a random sequence of node adds, removals, prunes and
    knn-style adds (the nearest entities by embedding, whatever their
    distance in the graph)."""
    g = make_graph(random.Random(graph_seed))
    n = g.num_entities
    vecs = [HashEmbeddings(dimension=4, seed=graph_seed).embed(label)
            for label in g.entity_labels]
    sub = Subgraph(graph=g)
    assert sub.num_edges == 0 == edge_count_oracle(sub)
    for round_index, (kind, batch, a) in enumerate(steps, start=1):
        batch, a = [x % n for x in batch], a % n
        if kind == "add":
            sub.add_nodes(batch, round_index)
        elif kind == "remove":
            sub.remove_node(a)
        elif kind == "knn":
            sub.add_nodes(_nearest(vecs, batch or [a], 2), round_index)
        elif sub.edges:
            sub.prune(sorted(sub.edges)[a % len(sub.edges)])
        assert sub.num_edges == edge_count_oracle(sub) == \
            len(list(sub.edges)) == len(scratch_edges(sub))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([random_graph, random_multigraph]),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(st.sampled_from(["remove", "prune"]),
                          st.integers(0, 11)), max_size=6))
def test_reaches_is_membership_in_the_hop_table(make_graph, graph_seed,
                                                steps):
    """``reaches(s, t, L)`` is ``s in hops_to(t, L)`` for every pair of
    entities, a node or not (and an id past the graph's last), and every
    L up to 5, on graphs with and without self-loops and parallel edges,
    after random node removals and prunes."""
    rng = random.Random(graph_seed)
    g = make_graph(rng)
    n = g.num_entities
    sub = Subgraph(graph=g)
    sub.add_nodes([v for v in range(n) if rng.random() < 0.8], 0)
    for kind, a in steps:
        if kind == "remove":
            sub.remove_node(a % n)
        elif sub.edges:
            sub.prune(sorted(sub.edges)[a % len(sub.edges)])
    ends = range(n + 1)
    for max_hops in range(6):
        for t in ends:
            # each pair asked twice, with the hop table read before or after
            table_first = (t + max_hops) % 2 == 0
            if table_first:
                hops = sub.hops_to(t, max_hops)
            asked = [[sub.reaches(s, t, max_hops) for s in ends]
                     for _ in range(2)]
            if not table_first:
                hops = sub.hops_to(t, max_hops)
                asked.append([sub.reaches(s, t, max_hops) for s in ends])
            for answers in asked:
                assert answers == [s in hops for s in ends], \
                    (t, max_hops, table_first)


class CountingReads(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_reaches_answers_are_kept_until_the_nodes_change():
    """A repeated ``reaches`` on an unchanged node set, or one a kept hop
    table answers, reads no end ids; a prune keeps the answers, and adding
    or removing a node drops them."""
    g = build_graph([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"),
                     ("x", "r", "y")])
    a, b, c, d, x, y = map(g.entity_id, "abcdxy")
    sub = Subgraph(graph=g)
    sub.add_nodes([a, b, c, x, y], 0)
    g.out_tails = CountingReads(g.out_tails)
    g.in_heads = CountingReads(g.in_heads)

    def reads():
        count = g.out_tails.reads + g.in_heads.reads
        g.out_tails.reads = g.in_heads.reads = 0
        return count

    pairs = [(a, c, 2), (a, c, 1), (a, d, 3), (x, y, 1), (a, y, 3)]
    expected = [True, False, False, True, False]
    assert [sub.reaches(*p) for p in pairs] == expected
    assert reads() > 0
    assert [sub.reaches(*p) for p in pairs] == expected
    assert reads() == 0
    sub.prune(Triple(a, 0, b))
    assert [sub.reaches(*p) for p in pairs] == expected
    assert reads() == 0
    sub.add_nodes([d], 1)
    assert [sub.reaches(*p) for p in pairs] == [True, False, True, True,
                                                False]
    assert reads() > 0
    sub.remove_node(b)
    assert [sub.reaches(*p) for p in pairs] == [False, False, False, True,
                                                False]
    assert reads() > 0
    sub.hops_to(c, 3)
    reads()
    assert [sub.reaches(v, c, 3) for v in (a, c, d, x)] == [False, True,
                                                            False, False]
    assert reads() == 0


def test_a_finalized_graph_takes_no_more_triples():
    """``add_triple`` after ``finalize()`` raises before it interns a label
    or counts a relation, whether the triple names known labels or new
    ones, so a subgraph built before it and one built after read the same
    graph."""
    g = build_graph([("a", "r", "b"), ("b", "s", "c")])
    kept = expand_neighborhood(g, [SeedCandidate(0)], radius=2)

    def state():
        return (g.num_entities, g.num_relations, list(g.entity_labels),
                list(g.relation_labels), list(g.relation_frequency),
                set(g.triples))

    before = state()
    for triple in [("a", "s", "c"), ("c", "r", "d"), ("x", "new", "y")]:
        with pytest.raises(ValueError, match="finalized"):
            g.add_triple(*triple)
        assert state() == before
    with pytest.raises(UnknownEntityError):
        g.entity_id("d")
    assert kept.num_edges == len(list(kept.edges)) == 2 == \
        edge_count_oracle(kept)
    assert set(kept.edges) == g.triples
    apply_edits(kept, [ExpandSeed(0, 1)], 1)
    sub = expand_neighborhood(g, [SeedCandidate(0)], radius=3)
    assert sub.edges == kept.edges


def test_a_prior_override_before_finalize_raises_and_changes_nothing():
    """``finalize()`` derives every prior from frequencies, so an override
    set before it would be lost: it is refused instead."""
    triples = [("a", "r", "b"), ("b", "r", "c"), ("b", "s", "c")]
    g = KnowledgeGraph()
    for h, r, t in triples:
        g.add_triple(h, r, t)
    with pytest.raises(ValueError, match="not finalized"):
        g.set_prior_cost(g.relation_id("s"), 0.9)
    g.finalize()
    twin = build_graph(triples)
    assert [g.prior_cost(r) for r in range(g.num_relations)] == [
        twin.prior_cost(r) for r in range(twin.num_relations)] == [0.0, 0.5]


def test_a_second_finalize_raises_and_keeps_a_prior_override():
    g = build_graph([("a", "r", "b"), ("b", "r", "c"), ("b", "s", "c")])
    s = g.relation_id("s")
    g.set_prior_cost(s, 0.9)
    sorted_adj = [list(adj) for adj in g.out_adj]
    with pytest.raises(ValueError, match="already finalized"):
        g.finalize()
    assert g.prior_cost(s) == 0.9
    assert g.out_adj == sorted_adj


def test_a_subgraph_needs_a_finalized_graph():
    empty = KnowledgeGraph()
    g = KnowledgeGraph()
    g.add_triple("a", "r", "b")
    for graph in (empty, g):
        with pytest.raises(ValueError, match="finalized graph"):
            Subgraph(graph=graph)
        with pytest.raises(ValueError, match="finalized graph"):
            expand_neighborhood(graph, [], radius=1)
    with pytest.raises(ValueError, match="finalized graph"):
        expand_neighborhood(g, [SeedCandidate(0)], radius=1)
    g.finalize()
    assert expand_neighborhood(g, [SeedCandidate(0)], radius=1).nodes == \
        {0: 0, 1: 0}


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
