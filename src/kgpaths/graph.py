"""Knowledge-graph storage, loading, neighborhood expansion, and edits.

Entities and relations are interned to dense integer ids in first-come
order. The base graph keeps each entity's out-edges as a sorted list of
triples with their tail ids as a tuple in the same order, and each
entity's in-edge head ids as a tuple, built once when the graph is
loaded; it is immutable after that. All per-query state (working node
set, soft edge multipliers, refutations, prunes) lives on
:class:`Subgraph` values owned by a single query episode.

A subgraph stores only its nodes. Its edges follow from them by one rule:
a base triple is an edge when both its ends are nodes and it is not
pruned. So adding or removing a node only marks it, and the edge count is
read from the out-tail id tuples the first time anything asks, then kept
until the nodes change or an edge is pruned. A node's out-edges in the
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

# sigmoid(+/-4): the soft multipliers of confirmed / refuted triples.
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
    triple order (by head, then relation), both as tuples. Immutable after
    construction; safe for concurrent readers.
    """

    def __init__(self):
        self.entity_labels: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self.relation_labels: list[str] = []
        self._relation_ids: dict[str, int] = {}
        self.relation_frequency: list[int] = []
        self.triples: set[Triple] = set()
        self.out_adj: list[list[Triple]] = []  # entity -> triples out of it
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
        return triple

    def finalize(self) -> None:
        """Sort the out-adjacency for deterministic traversal, keep its tail
        ids and each entity's in-edge head ids as tuples, and derive default
        relation priors from frequency (rare relations cost more)."""
        for adj in self.out_adj:
            adj.sort()
        self.out_tails = [tuple([e.tail for e in adj]) for adj in self.out_adj]
        # the sorted out-edges come in (head, relation) order, which a stable
        # sort by tail keeps: each entity's in-edge heads are in triple order
        n = len(self.out_tails)
        tails = np.fromiter(chain.from_iterable(self.out_tails), np.intp)
        heads = np.repeat(np.arange(n), list(map(len, self.out_tails)))
        heads = heads[np.argsort(tails, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(tails, minlength=n)).tolist()
        self.in_heads = [tuple(heads[a:b]) for a, b in zip([0, *ends], ends)]
        max_freq = max(self.relation_frequency, default=0)
        if max_freq > 0:
            self._prior_cost = [
                1.0 - f / max_freq for f in self.relation_frequency
            ]


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
        relation = graph.relation_id(label)
        try:
            graph.set_prior_cost(relation, float(cost))
        except ValueError as exc:
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
    empty, ``graph`` its only argument. Mutated only by its owning query
    loop. Nothing reads ``nodes`` in insertion order.

    The ``hops_to`` tables, the ``out_edges`` lists (see :class:`OutEdges`)
    and ``num_edges`` are computed when first read and kept until a node is
    added or removed; a prune drops its edge's head's list and the count.
    """

    graph: KnowledgeGraph
    nodes: dict[int, int] = field(default_factory=dict, init=False)
    soft: dict[Triple, float] = field(default_factory=dict, init=False)
    refuted: set[Triple] = field(default_factory=set, init=False)
    pruned: set[Triple] = field(default_factory=set, init=False)
    warnings: list[str] = field(default_factory=list, init=False)
    # (target, max_hops) -> hops_to table, valid for the current node set
    _hops: dict[tuple[int, int], dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    out_edges: OutEdges = field(init=False, repr=False, compare=False)
    _num_edges: int | None = field(
        default=None, init=False, repr=False, compare=False)

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

    @property
    def num_edges(self) -> int:
        """How many edges there are: on first read, the nodes' out-tail ids
        that are nodes, less the pruned triples between nodes; kept until
        the nodes change or an edge is pruned."""
        if self._num_edges is None:
            nodes, out_tails = self.nodes, self.graph.out_tails
            ids = chain.from_iterable(map(out_tails.__getitem__, nodes))
            self._num_edges = sum(map(nodes.__contains__, ids)) - sum(
                1 for h, _, t in self.pruned if h in nodes and t in nodes)
        return self._num_edges

    def _nodes_changed(self) -> None:
        """Drop what is kept for the current node set."""
        self._hops.clear()
        self.out_edges.clear()
        self._num_edges = None

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
