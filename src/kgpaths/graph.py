"""Knowledge-graph storage, loading, neighborhood expansion, and edits.

Entities and relations are interned to dense integer ids in first-come
order. The base graph keeps each entity's out-edges as a sorted list of
triples with their tail ids as a tuple in the same order, and each
entity's in-edge head ids as a tuple, built once by ``finalize()`` when
the graph is loaded. A graph's life runs one way: triples are added, then
``finalize()`` runs once and freezes the triples and labels (a further
``add_triple`` or ``finalize()`` raises ``ValueError``), and a
:class:`Subgraph` exists only over a finalized graph, so every expansion,
edit, weighting and path search reads a graph that no longer changes; a
relation prior may still be overridden. The graph also keeps the
weighting store (``KnowledgeGraph.weighting``), what no question changes
about its edge weights, across episodes. All per-query state (working
node set, soft edge multipliers, refutations, prunes) lives on
:class:`Subgraph` values owned by a single query episode.

A subgraph stores only its nodes. Its edges follow from them by one rule:
a base triple is an edge when both its ends are nodes and it is not
pruned. So adding or removing a node only marks it, and the edge count is
read from the graph's flat out-tail id array, with one numpy gather over
the nodes' runs of it, the first time anything asks, then kept until the
nodes change or an edge is pruned. A node's out-edges in the
subgraph have one home, ``Subgraph.out_edges``: each list is read from
the base adjacency filtered by that rule the first time anything asks,
and kept until the nodes change or one of its edges is pruned. The edge
view and all three path generators (``pathenum``) read it; none keeps
adjacency of its own.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import EditError, ParseError, UnknownEntityError, UnknownRelationError


def sigmoid(x: float) -> float:
    """``1 / (1 + exp(-x))``; 0.0 where ``exp(-x)`` overflows (x < -709.78)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


# the soft multipliers of confirmed / refuted triples. Confirmation roughly
# halves effective traversal cost; refutation leaves the cost nearly
# unchanged and relies on the verifier hard gate instead.
CONFIRM_MULTIPLIER = sigmoid(4.0)
REFUTE_MULTIPLIER = sigmoid(-4.0)


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class SeedCandidate:
    """An entity-linked seed with its link confidence in [0, 1]."""

    entity: int
    confidence: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"seed confidence {self.confidence} outside [0, 1]")


# --- graph edits ---------------------------------------------------------
# Defined here (rather than in the loop module) because apply_edits consumes
# them; the diagnostic mapper in kgpaths.loop produces them.


@dataclass(frozen=True)
class ExpandSeed:
    entity: int
    radius: int = 1

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"edit radius {self.radius} must be >= 1")


@dataclass(frozen=True)
class PruneEdge:
    triple: Triple


@dataclass(frozen=True)
class ConfirmTriple:
    triple: Triple


@dataclass(frozen=True)
class RefuteTriple:
    triple: Triple


@dataclass(frozen=True)
class SwapSeed:
    """Drop ``old_entity`` and add ``new_entity`` with its one-hop
    neighbourhood: DISAMBIGUATE names no radius."""

    old_entity: int
    new_entity: int


GraphEdit = ExpandSeed | PruneEdge | ConfirmTriple | RefuteTriple | SwapSeed


class KnowledgeGraph:
    """Interned triple store with typed out-adjacency, in-edge head ids
    and relation priors.

    ``out_adj[h]`` lists the triples with head ``h``, the same objects as
    in ``triples``, sorted after ``finalize()``, which also sets
    ``out_tails[h]`` to the tail ids of ``out_adj[h]`` in list order and
    ``in_heads[t]`` to the head ids of the triples with tail ``t`` in
    triple order (by head, then relation), both as tuples. ``finalize()``
    also keeps every ``out_tails`` entry in one flat numpy array,
    ``tail_ids``, entity by entity, with ``tail_offsets[h]`` the offset of
    ``out_tails[h]`` in it and one more offset at the end. ``finalize()``
    runs once, after the last ``add_triple``, and freezes the triples,
    labels and end ids: from then on ``add_triple`` and ``finalize()``
    raise ``ValueError`` before changing anything, and ``set_prior_cost``
    is the one change the graph takes. It takes none before: ``finalize()``
    derives every prior afresh, so ``set_prior_cost`` on a graph not yet
    finalized raises ``ValueError`` rather than set a prior to be lost.

    ``weighting`` is the graph's weighting store (``weights.WeightStore``)
    or ``None``: what no question changes, for one embedding provider and
    one set of coefficients α, β, γ, kept across episodes. The first
    ``ScoreTable`` built on the graph sets it, and a table built with
    another provider or other coefficients replaces it; the store holds
    its provider, so the graph keeps that provider alive until then, or
    for its life. ``set_prior_cost`` drops it. Reads fill the store, so
    one episode at a time may read a graph, and concurrent readers each
    need their own copy.
    """

    def __init__(self):
        self.entity_labels: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self.relation_labels: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self.relation_frequency: list[int] = []
        self.triples: set[Triple] = set()
        self.out_adj: list[list[Triple]] = []  # entity -> triples out of it
        # out_tails, in_heads, tail_ids and tail_offsets, the end ids, exist
        # from finalize() on: nothing reads them before it
        self._finalized = False
        self._prior_cost: list[float] = []
        self.weighting = None

    # -- interning -----------------------------------------------------

    def _intern_entity(self, label: str) -> int:
        eid = self._entity_ids.get(label)
        if eid is None:
            eid = len(self.entity_labels)
            self._entity_ids[label] = eid
            self.entity_labels.append(label)
            self.out_adj.append([])
        return eid

    def _intern_relation(self, label: str) -> int:
        rid = self._relation_ids.get(label)
        if rid is None:
            rid = len(self.relation_labels)
            self._relation_ids[label] = rid
            self.relation_labels.append(label)
            self.relation_frequency.append(0)
            self._prior_cost.append(0.0)
        return rid

    # -- lookups ---------------------------------------------------------

    @property
    def num_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def num_relations(self) -> int:
        return len(self.relation_labels)

    def entity_id(self, label: str) -> int:
        try:
            return self._entity_ids[label]
        except KeyError:
            raise UnknownEntityError(f"unknown entity: {label!r}") from None

    def relation_id(self, label: str) -> int:
        try:
            return self._relation_ids[label]
        except KeyError:
            raise UnknownRelationError(f"unknown relation: {label!r}") from None

    def prior_cost(self, relation: int) -> float:
        return self._prior_cost[relation]

    def set_prior_cost(self, relation: int, cost: float) -> None:
        if not self._finalized:
            raise ValueError("graph is not finalized: finalize() sets the "
                             "priors that an override replaces")
        if isinstance(relation, bool) or not 0 <= relation < self.num_relations:
            raise UnknownRelationError(f"unknown relation id: {relation!r}")
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"prior cost {cost} outside [0, 1]")
        self._prior_cost[relation] = cost
        self.weighting = None

    def out_degree(self, entity: int) -> int:
        return len(self.out_adj[entity])

    def triple_labels(self, t: Triple) -> tuple[str, str, str]:
        return (
            self.entity_labels[t.head],
            self.relation_labels[t.relation],
            self.entity_labels[t.tail],
        )

    # -- construction ------------------------------------------------------

    def add_triple(self, head: str, relation: str, tail: str) -> Triple:
        """Add ``head relation tail``, interning new labels; ``ValueError``
        once the graph is finalized, before any label is interned."""
        if self._finalized:
            raise ValueError("graph is finalized: it takes no more triples")
        h = self._intern_entity(head)
        r = self._intern_relation(relation)
        t = self._intern_entity(tail)
        triple = Triple(h, r, t)
        self.relation_frequency[r] += 1
        if triple not in self.triples:
            self.triples.add(triple)
            self.out_adj[h].append(triple)
        return triple

    def finalize(self) -> None:
        """Sort the out-adjacency for deterministic traversal, keep its tail
        ids and each entity's in-edge head ids as tuples, and derive default
        relation priors from frequency (rare relations cost more). Runs
        once: the graph is frozen after it, and a second call raises
        ``ValueError``."""
        if self._finalized:
            raise ValueError("graph is already finalized")
        for adj in self.out_adj:
            adj.sort()
        self.out_tails = [tuple([e.tail for e in adj]) for adj in self.out_adj]
        # the sorted out-edges come in (head, relation) order, which a stable
        # sort by tail keeps: each entity's in-edge heads are in triple order
        n = len(self.out_tails)
        tails = np.fromiter(chain.from_iterable(self.out_tails), np.intp)
        degrees = np.fromiter(map(len, self.out_tails), np.intp, n)
        self.tail_ids = tails
        self.tail_offsets = np.zeros(n + 1, np.intp)
        np.cumsum(degrees, out=self.tail_offsets[1:])
        heads = np.repeat(np.arange(n), degrees)
        heads = heads[np.argsort(tails, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
        self.in_heads = [tuple(heads[a:b]) for a, b in zip([0, *ends], ends)]
        max_freq = max(self.relation_frequency, default=0)
        if max_freq > 0:
            self._prior_cost = [
                1.0 - f / max_freq for f in self.relation_frequency
            ]
        self._finalized = True


@contextmanager
def open_text(source):
    """Open ``source`` for a ``with`` block: a path (``str``, ``bytes`` or
    path-like) is opened as UTF-8 text, less a leading byte-order mark, and
    closed on exit; an open handle or any other iterable of lines is passed
    through and left open."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, encoding="utf-8-sig") as fh:
            yield fh
    else:
        yield source


def read_lines(source) -> Iterator[tuple[int, str]]:
    """Each non-blank line of ``source`` (see :func:`open_text`) with its
    1-based line number, stripped of surrounding whitespace: the one way
    the line-oriented loaders read their input."""
    with open_text(source) as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def read_tsv(source, *names: str) -> Iterator[tuple[int, list[str]]]:
    """Each line of :func:`read_lines` split on tabs into the fields
    ``names``, each field stripped. A line with another number of fields,
    or with an empty field, raises ``ParseError`` naming the line."""
    for lineno, line in read_lines(source):
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != len(names) or not all(fields):
            raise ParseError(f"expected {'<TAB>'.join(names)}, got "
                             f"{len(fields)} fields, {fields.count('')} empty",
                             lineno)
        yield lineno, fields


def read_keyed(source, *names: str) -> Iterator[tuple[int, list[str]]]:
    """Each line of :func:`read_tsv` whose first field no earlier line
    gave: a repeated key raises ``ParseError`` naming both lines."""
    first: dict[str, int] = {}
    for lineno, fields in read_tsv(source, *names):
        earlier = first.setdefault(fields[0], lineno)
        if earlier != lineno:
            raise ParseError(f"{names[0]} {fields[0]!r} repeats line "
                             f"{earlier}", lineno)
        yield lineno, fields


_JSON_KINDS = {str: "a string", int: "an integer", float: "a number",
               list: "a list of strings"}


def json_value(value, kind: type, name: str):
    """``value`` if its JSON type is ``kind`` (``float``: any number, not a
    bool; ``list``: of strings), else ``ValueError`` naming ``name``."""
    if kind is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = type(value) in ((int, float) if kind is float else (kind,))
    if not ok:
        raise ValueError(f"{name} {value!r} is not {_JSON_KINDS[kind]}")
    return value


def load_triples(source, add_inverse: bool = False) -> KnowledgeGraph:
    """Load a TSV triple stream: one ``head<TAB>relation<TAB>tail`` per line.

    ``source`` may be a path or an iterable of lines. Duplicate lines are
    stored once but still count toward relation frequency. With
    ``add_inverse``, every triple also materializes ``tail r⁻¹ head``.
    """
    graph = KnowledgeGraph()
    for _, (head, relation, tail) in read_tsv(source, "head", "relation",
                                              "tail"):
        graph.add_triple(head, relation, tail)
        if add_inverse:
            graph.add_triple(tail, relation + "⁻¹", head)
    graph.finalize()
    return graph


def load_prior_overrides(graph: KnowledgeGraph, source) -> None:
    """Apply a relation-prior override TSV: ``relation<TAB>prior_cost``,
    one line per relation."""
    for lineno, (label, cost) in read_keyed(source, "relation", "prior_cost"):
        try:
            graph.set_prior_cost(graph.relation_id(label), float(cost))
        except (UnknownRelationError, ValueError) as exc:
            raise ParseError(str(exc), lineno) from None


class EdgeView(Mapping):
    """A subgraph's edges, each mapped to the round it entered, the later
    of its two ends' rounds: derived from the nodes when read, so it stores
    nothing and is read-only. Its length is the subgraph's ``num_edges``;
    iteration follows the nodes and their ``out_edges``.
    """

    __slots__ = ("_subgraph",)

    def __init__(self, subgraph: Subgraph):
        self._subgraph = subgraph

    def __len__(self) -> int:
        return self._subgraph.num_edges

    def __contains__(self, triple) -> bool:
        return self._subgraph.has_edge(triple)

    def __getitem__(self, triple: Triple) -> int:
        if not self._subgraph.has_edge(triple):
            raise KeyError(triple)
        head, _, tail = triple
        nodes = self._subgraph.nodes
        return max(nodes[head], nodes[tail])

    def __iter__(self) -> Iterator[Triple]:
        out_edges = self._subgraph.out_edges
        for v in self._subgraph.nodes:
            yield from out_edges[v]


class OutEdges(dict):
    """Node -> its out-edges in a subgraph, in (relation, tail) order, read
    on first ask: the base out-adjacency whose tail id is a node, less the
    pruned triples (none for a non-node). A found entry is a plain dict
    subscript. The subgraph keeps it valid: it clears the map when its
    nodes change and drops a pruned edge's head's entry."""

    def __init__(self, subgraph: Subgraph):
        super().__init__()
        self._nodes, self._pruned = subgraph.nodes, subgraph.pruned
        self._graph = subgraph.graph

    def __missing__(self, node: int) -> list[Triple]:
        nodes, pruned = self._nodes, self._pruned
        out = []
        if node in nodes:
            pairs = zip(self._graph.out_adj[node], self._graph.out_tails[node])
            out = [e for e, t in pairs if t in nodes]
            if pruned:
                out = [e for e in out if e not in pruned]
        self[node] = out
        return out


@dataclass
class Subgraph:
    """A per-query working view onto a parent :class:`KnowledgeGraph`.

    ``nodes`` maps each node to the round at which it entered (its
    provenance). It is all the subgraph stores of its shape: a base triple
    is an edge exactly when both its ends are nodes and it is not pruned
    (``has_edge``), so an edge entered at the later of its two ends'
    rounds; ``edges`` is a view derived from that rule when read.
    ``add_nodes`` and ``remove_node`` are the only ways in and out. Also
    holds soft edge multipliers, the episode's refuted and pruned triples
    and its edit warnings, which only the edits set. So a subgraph is built
    empty, ``graph`` its only argument, and ``graph`` must be finalized
    (``ValueError`` otherwise): the triples and end ids a subgraph reads
    never change under it. Mutated only by its owning query loop. Nothing
    reads ``nodes`` in insertion order.

    The ``hops_to`` tables, the ``reaches`` answers, the ``out_edges``
    lists (see :class:`OutEdges`) and ``num_edges`` are computed when first
    read and kept until a node is added or removed; a prune drops its
    edge's head's list and the count. ``reaches`` answers whether a node
    is in a hop table without building one.
    """

    graph: KnowledgeGraph
    nodes: dict[int, int] = field(default_factory=dict, init=False)
    soft: dict[Triple, float] = field(default_factory=dict, init=False)
    refuted: set[Triple] = field(default_factory=set, init=False)
    pruned: set[Triple] = field(default_factory=set, init=False)
    warnings: list[str] = field(default_factory=list, init=False)

    def __post_init__(self):
        if not self.graph._finalized:
            raise ValueError("a subgraph needs a finalized graph")
        self.out_edges = OutEdges(self)
        self._nodes_changed()

    def multiplier(self, triple: Triple) -> float:
        return self.soft.get(triple, 0.0)

    def has_edge(self, triple: Triple) -> bool:
        """Whether ``triple`` is an edge: a base triple, both ends nodes,
        not pruned."""
        head, _, tail = triple
        nodes = self.nodes
        return (head in nodes and tail in nodes
                and triple in self.graph.triples
                and triple not in self.pruned)

    @property
    def edges(self) -> EdgeView:
        """Read-only view of the edges, each mapped to its entry round."""
        return EdgeView(self)

    @property
    def num_edges(self) -> int:
        """How many edges there are: on first read, the nodes' out-tail ids
        that are nodes, less the pruned triples between nodes; kept until
        the nodes change or an edge is pruned. The ids are gathered from
        the graph's ``tail_ids`` in one index and read against a node mask:
        about a dozen numpy calls at any size, then one step in C per
        out-tail, where a count in Python takes one interpreted step per
        out-tail (cheaper below a few hundred out-tails, dearer above)."""
        if self._num_edges is None:
            nodes, graph = self.nodes, self.graph
            ids = np.fromiter(nodes, np.intp, len(nodes))
            is_node = np.zeros(graph.num_entities, bool)
            is_node[ids] = True
            # node i's run of tail ids ends at stops[i]; its k-th id, at
            # stops[i] - degrees[i] + k, is place ends[i] - degrees[i] + k of
            # one arange over all the runs, ends being their running total
            stops = graph.tail_offsets[1:][ids]
            degrees = stops - graph.tail_offsets[ids]
            at = np.repeat(stops - np.cumsum(degrees), degrees)
            at += np.arange(len(at))
            self._num_edges = int(np.count_nonzero(
                is_node[graph.tail_ids[at]])) - sum(
                1 for h, _, t in self.pruned if h in nodes and t in nodes)
        return self._num_edges

    def _nodes_changed(self) -> None:
        """Start afresh what is kept for the current node set: the
        ``hops_to`` tables by (target, max_hops), the ``reaches`` answers
        by (source, target, max_hops), the out-edge lists and the edge
        count."""
        self._hops: dict[tuple[int, int], dict[int, int]] = {}
        self._reached: dict[tuple[int, int, int], bool] = {}
        self.out_edges.clear()
        self._num_edges: int | None = None

    def add_nodes(self, entities: Iterable[int], round_index: int) -> None:
        """Add the absent ones of ``entities`` at ``round_index``, in order."""
        nodes = self.nodes
        new = [v for v in dict.fromkeys(entities) if v not in nodes]
        if new:
            self._nodes_changed()
            for v in new:
                nodes[v] = round_index

    def remove_node(self, entity: int) -> None:
        """Drop ``entity``, and with it every edge touching it (nothing when
        it is absent)."""
        if entity in self.nodes:
            self._nodes_changed()
            del self.nodes[entity]

    def prune(self, triple: Triple) -> bool:
        """Prune ``triple`` if it is an edge; whether it was."""
        if not self.has_edge(triple):
            return False
        self.pruned.add(triple)
        self.out_edges.pop(triple.head, None)
        self._num_edges = None
        return True

    def hops_to(self, target: int, max_hops: int) -> dict[int, int]:
        """Fewest hops from each node to ``target``, for nodes within
        ``max_hops``; empty when ``target`` is not a node. Callers must not
        change the returned table.

        A backwards breadth-first search (:func:`_hop`) over the base
        graph's in-edge head ids, limited to the subgraph's nodes, that
        stops at the first hop finding no new node, so a ``max_hops``
        beyond the graph's size costs no more than the size. It ignores
        prunes, so it walks a superset of the subgraph's edges and never
        overestimates a node's distance; because it reads only the node
        set, the table is kept until a node is added or removed.
        """
        hops = self._hops.get((target, max_hops))
        if hops is None:
            hops = self._hops[(target, max_hops)] = {}
            if target in self.nodes:
                hops[target] = 0
                layer, d = [target], 0
                while layer and d < max_hops:
                    d += 1
                    layer = _hop(layer, self.graph.in_heads, hops, d,
                                 self.nodes)
        return hops

    def reaches(self, source: int, target: int, max_hops: int) -> bool:
        """Whether ``source`` reaches ``target`` within ``max_hops`` hops:
        exactly ``source in self.hops_to(target, max_hops)``, with no table
        built. A kept table answers; otherwise the answer of a search from
        both ends (:meth:`_meets`) is kept, like the tables, until a node
        is added or removed."""
        hops = self._hops.get((target, max_hops))
        if hops is not None:
            return source in hops
        key = (source, target, max_hops)
        found = self._reached.get(key)
        if found is None:
            found = self._reached[key] = self._meets(*key)
        return found

    def _meets(self, source: int, target: int, max_hops: int) -> bool:
        """``reaches`` by a breadth-first search from both ends over the
        edges ``hops_to`` reads, the base graph's out-tail ids forward from
        ``source`` and in-edge head ids back from ``target``, limited to
        the nodes and ignoring prunes, one :func:`_hop` at a time. Each hop
        grows the smaller side's last hop, the forward side's on a tie, so
        a pair with no connection costs at most the smaller side's search;
        the first hop that finds nothing ends it."""
        nodes = self.nodes
        if source not in nodes or target not in nodes:
            return False
        if source == target:
            return True
        # each side: its last hop, the ids it has found by hop, the ids it
        # reads
        fwd = [[source], {source: 0}, self.graph.out_tails]
        bwd = [[target], {target: 0}, self.graph.in_heads]
        for _ in range(max_hops):
            small = len(fwd[0]) <= len(bwd[0])
            near, far = (fwd, bwd) if small else (bwd, fwd)
            layer, found, ends = near
            d = found[layer[0]] + 1  # the hop after the side's last
            layer = near[0] = _hop(layer, ends, found, d, nodes)
            if not layer:  # that side is done without meeting the other
                return False
            if not far[1].keys().isdisjoint(layer):
                return True
        return False

    def to_json(self) -> str:
        """Debug dump: nodes, edges, and provenance."""
        payload = {
            "nodes": [
                {
                    "id": n,
                    "label": self.graph.entity_labels[n],
                    "round": r,
                }
                for n, r in sorted(self.nodes.items())
            ],
            "edges": [
                {
                    "head": self.graph.entity_labels[e.head],
                    "relation": self.graph.relation_labels[e.relation],
                    "tail": self.graph.entity_labels[e.tail],
                    "round": r,
                    "soft_multiplier": self.multiplier(e),
                }
                for e, r in sorted(self.edges.items())
            ],
        }
        return json.dumps(payload, sort_keys=True)


def _hop(layer: list[int], ends: list[tuple[int, ...]],
         found: dict[int, int], d: int, within=None) -> list[int]:
    """One breadth-first hop, the neighbour loop of every graph search
    here: the ids that ``ends`` (a graph's ``out_tails`` or ``in_heads``)
    lists for the nodes of ``layer``, each once and in reading order, less
    those already in ``found`` and, unless ``within`` is None, those not
    in ``within``. Each returned id is entered in ``found`` at hop ``d``.
    An empty list ends the search: no later hop can find anything."""
    nxt = []
    for node in layer:
        for v in ends[node]:
            if v not in found and (within is None or v in within):
                found[v] = d
                nxt.append(v)
    return nxt


def _bfs_add(subgraph: Subgraph, starts: Iterable[int], radius: int,
             round_index: int) -> None:
    """Add at ``round_index`` every node within ``radius`` out-hops of each
    of ``starts``, in one batch, ordered by start and then breadth-first:
    per start, the start, then each :func:`_hop`'s new tails in
    ``out_tails`` order. A start's search ends at the first hop that finds
    no new node, so a radius beyond the graph's size costs no more than
    the size."""
    out_tails = subgraph.graph.out_tails
    order = []
    for start in starts:
        found = {start: 0}
        layer, d = [start], 0
        while layer and d < radius:
            d += 1
            layer = _hop(layer, out_tails, found, d)
        order += found
    subgraph.add_nodes(order, round_index)


def _nearest(vecs: list, seeds: list[int], knn: int) -> list[int]:
    """The ``knn`` entities other than each seed whose vectors in ``vecs``
    (indexed by entity id) have the highest cosine with the seed's, seed by
    seed, ties broken on the lower id.

    Each seed's cosines with every entity are one ``normed_cosines`` call
    on the stacked vectors and their norms, taken once: the same bits as
    ``cosine``, and its zero-vector error once a seed is compared with
    any other entity.
    """
    from .embeddings import normed_cosines, row_dots  # deferred: import cycle

    if len(vecs) < 2:
        return []
    try:
        vecs = np.array(vecs, dtype=float)
    except ValueError:
        raise ValueError("dimension mismatch among entity vectors") from None
    norms = np.sqrt(row_dots(vecs, vecs))
    ids = np.arange(len(vecs))
    picks = []
    for seed in seeds:
        keys = -normed_cosines(vecs, vecs[seed], norms, norms[seed])
        keys[seed] = np.inf  # sorted last, and never reached
        # by key, then by id: the order of the (-cosine, id) tuples
        picks += np.lexsort((ids, keys))[:min(knn, len(vecs) - 1)].tolist()
    return picks


def expand_neighborhood(
    graph: KnowledgeGraph,
    seeds: list[SeedCandidate],
    radius: int,
    knn: int = 0,
    embeddings=None,
) -> Subgraph:
    """Collect all nodes within ``radius`` hops of any seed plus the ``knn``
    nearest entities to each seed by embedding cosine, as round 0 of a new
    subgraph, with the edges among them.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if knn < 0:
        raise ValueError("knn must be >= 0")
    for seed in seeds:
        if seed.entity >= graph.num_entities or seed.entity < 0:
            raise UnknownEntityError(f"unknown seed entity id: {seed.entity}")

    subgraph = Subgraph(graph=graph)
    _bfs_add(subgraph, [seed.entity for seed in seeds], radius, 0)

    if knn > 0:
        if embeddings is None:
            raise ValueError("knn expansion requires an embedding provider")
        vecs = [embeddings.embed(label) for label in graph.entity_labels]
        picks = _nearest(vecs, [seed.entity for seed in seeds], knn)
        subgraph.add_nodes(picks, 0)
    return subgraph


def apply_edits(
    subgraph: Subgraph,
    edits: list[GraphEdit],
    round_index: int = 0,
) -> Subgraph:
    """Apply graph edits in order, mutating and returning ``subgraph``.

    A confirmed or refuted triple's multiplier becomes
    ``CONFIRM_MULTIPLIER`` or ``REFUTE_MULTIPLIER``. Pruning an edge
    already absent is a no-op recorded in ``subgraph.warnings``. Edits
    referencing entities outside ``subgraph.graph`` raise
    :class:`EditError`.
    """
    num_entities = subgraph.graph.num_entities

    def check_entity(eid: int):
        if not 0 <= eid < num_entities:
            raise EditError(f"edit references unknown entity id {eid}")

    for edit in edits:
        if isinstance(edit, ExpandSeed):
            check_entity(edit.entity)
            _bfs_add(subgraph, [edit.entity], edit.radius, round_index)
        elif isinstance(edit, PruneEdge):
            check_entity(edit.triple.head)
            check_entity(edit.triple.tail)
            if not subgraph.prune(edit.triple):
                subgraph.warnings.append(
                    f"prune of absent edge {edit.triple} ignored"
                )
        elif isinstance(edit, (ConfirmTriple, RefuteTriple)):
            check_entity(edit.triple.head)
            check_entity(edit.triple.tail)
            if isinstance(edit, RefuteTriple):
                subgraph.soft[edit.triple] = REFUTE_MULTIPLIER
                subgraph.refuted.add(edit.triple)
            else:
                subgraph.soft[edit.triple] = CONFIRM_MULTIPLIER
        elif isinstance(edit, SwapSeed):
            check_entity(edit.old_entity)
            check_entity(edit.new_entity)
            subgraph.remove_node(edit.old_entity)
            _bfs_add(subgraph, [edit.new_entity], 1, round_index)
        else:
            raise EditError(f"unknown edit type: {edit!r}")
    return subgraph
