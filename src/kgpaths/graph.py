"""Knowledge-graph storage, loading, neighborhood expansion, and edits.

Entities and relations are interned to dense integer ids in first-come
order. The base graph keeps each entity's out- and in-edges as sorted
lists of triples, and the tail ids and head ids of those edges as tuples
in the same order, built once when the graph is loaded; it is immutable
after that. All per-query state (working node set, soft edge
multipliers, refutations, prunes) lives on :class:`Subgraph` values owned
by a single query episode.

A subgraph stores only its nodes. Its edges follow from them by one rule:
a base triple is an edge when both its ends are nodes and it is not
pruned. Adding nodes only counts the new nodes' edges, reading the id
tuples: the new nodes' out-edges to present nodes and their in-edges from
nodes present before, so an edit that adds no node costs no edge work.
A node's out-edges in the subgraph have one home, ``Subgraph.out_edges``:
each list is read from the base adjacency filtered by that rule the first
time anything asks, and kept until the nodes change or one of its edges
is pruned. The edge view and all three path generators (``pathenum``)
read it; none keeps adjacency of its own.
"""

from __future__ import annotations

import heapq
import json
import math
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .errors import EditError, ParseError, UnknownEntityError, UnknownRelationError

# sigmoid(+/-4): default soft multipliers for confirmed / refuted triples.
# Confirmation roughly halves effective traversal cost; refutation leaves the
# cost nearly unchanged and relies on the verifier hard gate instead.
CONFIRM_MULTIPLIER = 1.0 / (1.0 + math.exp(-4.0))
REFUTE_MULTIPLIER = 1.0 / (1.0 + math.exp(4.0))


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


def _check_radius(radius: int) -> None:
    if radius < 1:
        raise ValueError(f"edit radius {radius} must be >= 1")


@dataclass(frozen=True)
class ExpandSeed:
    entity: int
    radius: int = 1

    def __post_init__(self):
        _check_radius(self.radius)


@dataclass(frozen=True)
class PruneEdge:
    triple: Triple


@dataclass(frozen=True)
class ConfirmTriple:
    triple: Triple
    multiplier: float = CONFIRM_MULTIPLIER


@dataclass(frozen=True)
class RefuteTriple:
    triple: Triple
    multiplier: float = REFUTE_MULTIPLIER


@dataclass(frozen=True)
class SwapSeed:
    old_entity: int
    new_entity: int
    radius: int = 1

    def __post_init__(self):
        _check_radius(self.radius)


GraphEdit = ExpandSeed | PruneEdge | ConfirmTriple | RefuteTriple | SwapSeed


class KnowledgeGraph:
    """Interned triple store with typed out- and in-adjacency and relation
    priors.

    ``out_adj[h]`` lists the triples with head ``h`` and ``in_adj[t]`` the
    triples with tail ``t``, the same objects as in ``triples``, each list
    sorted after ``finalize()``, which also sets ``out_tails[h]`` to the
    tail ids of ``out_adj[h]`` and ``in_heads[t]`` to the head ids of
    ``in_adj[t]``, as tuples in list order. Immutable after construction;
    safe for concurrent readers.
    """

    def __init__(self):
        self.entity_labels: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self.relation_labels: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self.relation_frequency: list[int] = []
        self.triples: set[Triple] = set()
        self.out_adj: list[list[Triple]] = []  # entity -> triples out of it
        self.in_adj: list[list[Triple]] = []  # entity -> triples into it
        self.out_tails: list[tuple[int, ...]] = []  # set by finalize()
        self.in_heads: list[tuple[int, ...]] = []  # set by finalize()
        self._prior_cost: list[float] = []

    # -- interning -----------------------------------------------------

    def _intern_entity(self, label: str) -> int:
        eid = self._entity_ids.get(label)
        if eid is None:
            eid = len(self.entity_labels)
            self._entity_ids[label] = eid
            self.entity_labels.append(label)
            self.out_adj.append([])
            self.in_adj.append([])
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

    def has_relation(self, label: str) -> bool:
        return label in self._relation_ids

    def prior_cost(self, relation: int) -> float:
        return self._prior_cost[relation]

    def set_prior_cost(self, relation: int, cost: float) -> None:
        if not 0.0 <= cost <= 1.0:
            raise ValueError(f"prior cost {cost} outside [0, 1]")
        self._prior_cost[relation] = cost

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
        h = self._intern_entity(head)
        r = self._intern_relation(relation)
        t = self._intern_entity(tail)
        triple = Triple(h, r, t)
        self.relation_frequency[r] += 1
        if triple not in self.triples:
            self.triples.add(triple)
            self.out_adj[h].append(triple)
            self.in_adj[t].append(triple)
        return triple

    def finalize(self) -> None:
        """Sort adjacency for deterministic traversal, keep its end ids as
        tuples, and derive default relation priors from frequency (rare
        relations cost more)."""
        for adj in self.out_adj:
            adj.sort()
        for adj in self.in_adj:
            adj.sort()
        self.out_tails = [tuple([e.tail for e in adj]) for adj in self.out_adj]
        self.in_heads = [tuple([e.head for e in adj]) for adj in self.in_adj]
        max_freq = max(self.relation_frequency, default=0)
        if max_freq > 0:
            self._prior_cost = [
                1.0 - f / max_freq for f in self.relation_frequency
            ]


@contextmanager
def open_text(source):
    """Open ``source`` for a ``with`` block: a path (``str``, ``bytes`` or
    path-like) is opened as UTF-8 text and closed on exit; an open handle or
    any other iterable of lines is passed through and left open."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, encoding="utf-8") as fh:
            yield fh
    else:
        yield source


def load_triples(source, add_inverse: bool = False) -> KnowledgeGraph:
    """Load a TSV triple stream: one ``head<TAB>relation<TAB>tail`` per line.

    ``source`` may be a path or an iterable of lines. Duplicate lines are
    stored once but still count toward relation frequency. With
    ``add_inverse``, every triple also materializes ``tail r⁻¹ head``.
    """
    graph = KnowledgeGraph()
    with open_text(source) as lines:
        _load_lines(graph, lines, add_inverse)
    graph.finalize()
    return graph


def _load_lines(graph: KnowledgeGraph, lines: Iterable[str], add_inverse: bool) -> None:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", lineno
            )
        head, relation, tail = fields
        graph.add_triple(head, relation, tail)
        if add_inverse:
            graph.add_triple(tail, relation + "⁻¹", head)


def load_prior_overrides(graph: KnowledgeGraph, source) -> None:
    """Apply a relation-prior override TSV: ``relation<TAB>prior_cost``."""
    with open_text(source) as lines:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError("expected relation<TAB>prior_cost", lineno)
            label, cost = fields
            graph.set_prior_cost(graph.relation_id(label), float(cost))


class EdgeView(Mapping):
    """A subgraph's edges, each mapped to the round it entered, the later
    of its two ends' rounds: derived from the nodes when read, so it stores
    nothing and is read-only. Its length is the subgraph's kept
    ``num_edges``; iteration follows the nodes and their ``out_edges``.
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
    rounds. ``edges`` is a view derived from that rule when read;
    ``num_edges`` is kept as nodes come and go and edges are pruned.
    ``add_nodes`` and ``remove_node`` are the only ways in and out, so a
    subgraph is built empty. Also holds soft edge multipliers and the
    episode's refuted and pruned triples. Mutated only by its owning query
    loop. Nothing reads ``nodes`` in insertion order.

    ``hops_to`` tables depend on the node set alone, so they are kept until
    ``add_nodes`` adds a node or ``remove_node`` removes one. The
    ``out_edges`` lists (see :class:`OutEdges`) are dropped at the same
    points, and a prune drops its edge's head's list.
    """

    graph: KnowledgeGraph
    nodes: dict[int, int] = field(default_factory=dict, init=False)
    num_edges: int = field(default=0, init=False)
    soft: dict[Triple, float] = field(default_factory=dict)
    refuted: set[Triple] = field(default_factory=set)
    pruned: set[Triple] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)
    # (target, max_hops) -> hops_to table, valid for the current node set
    _hops: dict[tuple[int, int], dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    out_edges: OutEdges = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.out_edges = OutEdges(self)

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

    def _count_edges(self, entities: Iterable[int], adj: list[list[Triple]],
                     ends: list[tuple[int, ...]]) -> int:
        """How many base edges of ``entities`` have their other end among
        the nodes and are not pruned, reading each entity's edges from
        ``adj`` and their other ends' ids from ``ends`` (so no triple is
        read while nothing is pruned)."""
        nodes, pruned = self.nodes, self.pruned
        if not pruned:
            ids = chain.from_iterable(map(ends.__getitem__, entities))
            return sum(map(nodes.__contains__, ids))
        return sum(1 for v in entities for e, u in zip(adj[v], ends[v])
                   if u in nodes and e not in pruned)

    def add_nodes(self, entities: Iterable[int], round_index: int) -> None:
        """Add the absent ones of ``entities`` at ``round_index``, in order,
        and count the edges they bring.

        Each new edge is counted from one end: from a new node's out-edges
        when its tail is present once the batch is in, or from a new node's
        in-edges when its head was present before the batch. Into an empty
        subgraph there is no in-edge scan at all.
        """
        nodes = self.nodes
        new = [v for v in dict.fromkeys(entities) if v not in nodes]
        if not new:
            return
        self._hops.clear()
        self.out_edges.clear()
        graph = self.graph
        if nodes:
            self.num_edges += self._count_edges(new, graph.in_adj,
                                                graph.in_heads)
        for v in new:
            nodes[v] = round_index
        self.num_edges += self._count_edges(new, graph.out_adj,
                                            graph.out_tails)

    def remove_node(self, entity: int) -> None:
        """Drop ``entity``, and with it every edge touching it (nothing when
        it is absent)."""
        if entity not in self.nodes:
            return
        self._hops.clear()
        self.out_edges.clear()
        graph = self.graph
        # while the node is in, its out-edges include its self-loops; once
        # it is out, its in-edges count only the edges from other nodes
        self.num_edges -= self._count_edges((entity,), graph.out_adj,
                                            graph.out_tails)
        del self.nodes[entity]
        self.num_edges -= self._count_edges((entity,), graph.in_adj,
                                            graph.in_heads)

    def prune(self, triple: Triple) -> bool:
        """Prune ``triple`` if it is an edge; whether it was."""
        if not self.has_edge(triple):
            return False
        self.pruned.add(triple)
        self.out_edges.pop(triple.head, None)
        self.num_edges -= 1
        return True

    def hops_to(self, target: int, max_hops: int) -> dict[int, int]:
        """Fewest hops from each node to ``target``, for nodes within
        ``max_hops``; empty when ``target`` is not a node. Callers must not
        change the returned table.

        A backwards breadth-first search over the base graph's in-edge head
        ids, limited to the subgraph's nodes. It ignores prunes, so it walks
        a superset of the subgraph's edges and never overestimates a node's
        distance; because it reads only the node set, the table is kept
        until a node is added or removed.
        """
        hops = self._hops.get((target, max_hops))
        if hops is not None:
            return hops
        nodes = self.nodes
        hops = {}
        if target in nodes:
            in_heads = self.graph.in_heads
            hops[target] = 0
            frontier = [target]
            for d in range(1, max_hops + 1):
                nxt = []
                for node in frontier:
                    for head in in_heads[node]:
                        if head not in hops and head in nodes:
                            hops[head] = d
                            nxt.append(head)
                frontier = nxt
        self._hops[(target, max_hops)] = hops
        return hops

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


def _bfs_add(subgraph: Subgraph, starts: Iterable[int], radius: int,
             round_index: int) -> None:
    """Add at ``round_index`` every node within ``radius`` out-hops of each
    of ``starts``, in one batch, ordered by start and then breadth-first."""
    out_tails = subgraph.graph.out_tails
    found = []
    for start in starts:
        seen = {start}
        found.append(start)
        frontier = [start]
        for _ in range(radius):
            nxt = []
            for node in frontier:
                for t in out_tails[node]:
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            found += nxt
            frontier = nxt
    subgraph.add_nodes(found, round_index)


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
    for seed in seeds:
        if seed.entity >= graph.num_entities or seed.entity < 0:
            raise UnknownEntityError(f"unknown seed entity id: {seed.entity}")

    subgraph = Subgraph(graph=graph)
    _bfs_add(subgraph, [seed.entity for seed in seeds], radius, 0)

    if knn > 0:
        if embeddings is None:
            raise ValueError("knn expansion requires an embedding provider")
        from .embeddings import cosine  # deferred: avoid import cycle

        all_vecs = [
            embeddings.embed(label) for label in graph.entity_labels
        ]
        picks = []
        for seed in seeds:
            seed_vec = all_vecs[seed.entity]
            # keys are unique per entity id, so this keeps a full sort's
            # first ``knn`` in the same order
            picks += [e for _, e in heapq.nsmallest(
                knn,
                (
                    (-cosine(seed_vec, all_vecs[e]), e)
                    for e in range(graph.num_entities)
                    if e != seed.entity
                ),
            )]
        subgraph.add_nodes(picks, 0)
    return subgraph


def apply_edits(
    subgraph: Subgraph,
    edits: list[GraphEdit],
    round_index: int = 0,
) -> Subgraph:
    """Apply graph edits in order, mutating and returning ``subgraph``.

    Pruning an edge already absent is a no-op recorded in
    ``subgraph.warnings``. Edits referencing entities outside
    ``subgraph.graph`` raise :class:`EditError`.
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
            subgraph.soft[edit.triple] = edit.multiplier
            if isinstance(edit, RefuteTriple):
                subgraph.refuted.add(edit.triple)
        elif isinstance(edit, SwapSeed):
            check_entity(edit.old_entity)
            check_entity(edit.new_entity)
            subgraph.remove_node(edit.old_entity)
            _bfs_add(subgraph, [edit.new_entity], edit.radius, round_index)
        else:
            raise EditError(f"unknown edit type: {edit!r}")
    return subgraph
