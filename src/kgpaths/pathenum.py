"""Hybrid candidate path generation with hard budgets.

Three generators feed a shared candidate pool: exact k-lowest-cost bounded
simple paths, beam expansion keeping the highest-scoring prefixes per depth,
and restart-limited random walks biased toward cheap edges. The union is
deduplicated, ranked by path score, and truncated to the candidate cap.

All three generators and the final ranking read the episode's
``ScoreTable`` (see ``weights``): an edge is weighted, and a path pooled
and scored, the first time anything asks for it, so a round pays only for
the edges and paths its search touches, and nothing for a weight or vector
an earlier round computed. The table outlives enumeration: the caller
hands it on to candidate scoring, the verifier and injection. Where many
paths are ranked at once, they are pooled and matched as a batch first:
each beam depth and the final ranking go through one rank-and-cut, which
calls ``ScoreTable.match`` on the paths it ranks, then keeps the best by
(-score, node sequence, relation sequence). A batched value has the same
bits as the one the table computes alone. Edges are weighted one at a
time: the graph's weighting store keeps each weight across episodes, so a
batch would pay off only in a graph's first episodes.

No generator builds adjacency of its own. All three read a node's
subgraph out-edges from ``Subgraph.out_edges``, which the subgraph builds
once per node from the base adjacency and keeps until its nodes change or
a prune touches that node; they come in (relation, tail) order, which
fixes the random walks' choice order. The random walks also keep, per
node and call, the cumulative inverse costs of those edges, so a step
whose options no visited node cuts short draws straight from them.

Pair mode (paths between two seeds) is goal-directed. ``k_shortest_weighted``
with a ``target`` first asks ``Subgraph.reaches`` whether the seed can reach
the target within L hops at all: a breadth-first search from both ends that
always grows the smaller frontier (Pohl, "Bi-directional search", 1971), so
a seed on an island costs about the island, not the target's side. A kept
hop table answers instead, and the search's answer is kept like the tables
until the node set changes, so a round that adds no node asks for free.
Only a seed that can reach it reads the subgraph's hop table to the target
(``Subgraph.hops_to``, a backwards breadth-first search over the base
graph's ``in_heads`` limited to subgraph nodes, kept until the node set
changes), and the search never pushes a partial path whose tail cannot
reach the target in the hops left. Both searches read the same edges,
and each stops at the first hop that finds no new node, so both are
bounded by L and by the graph: an L beyond the subgraph's size costs no
more than the size. The hop bound ignores prunes and the simple-path
rule, so it counts hops over a superset of the subgraph's edges and never
overestimates the distance: only partial paths with no completion are
dropped, and the output is exactly the unpruned one.

In both modes, a k-shortest search that returns fewer than K paths has
listed every simple path of length <= L it could: with no target, every
path from its seed (it emits every partial path it pops and extends all
of them up to L); with a target, every path from its seed to that target.
Beam and walk proposals are simple paths of length <= L from a seed, and
in pair mode the endpoint filter keeps only those that end at another
seed, so when every k-shortest call of a round comes back short they add
nothing, and ``enumerate_paths`` skips beam expansion and random walks.

The generators build each ``Path`` from the node, relation and edge tuples
they already hold (``Path.unchecked``), since their own rules keep every
path contiguous and simple.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import accumulate

from .graph import Subgraph, Triple
from .paths import Path
from .weights import ScoreTable, WeightCoefficients
from .weights import path_score  # noqa: F401  perfbench/tracing.py wraps it here


@dataclass(frozen=True)
class EnumerationBudget:
    max_length: int = 4  # L
    max_candidates: int = 200  # K
    beam_size: int = 32  # B
    walks: int = 100  # R
    restart_prob: float = 0.15

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length (L) must be >= 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates (K) must be >= 1")
        if self.beam_size < 1:
            raise ValueError("beam_size (beam) must be >= 1")
        if self.walks < 0:
            raise ValueError("walks must be >= 0")
        if not 0.0 < self.restart_prob < 1.0:
            raise ValueError("restart_prob (restart) must lie in (0, 1)")


def edge_costs(
    subgraph: Subgraph, coeffs: WeightCoefficients, embeddings
) -> ScoreTable:
    """Effective traversal cost of subgraph edges, each computed once, when
    it is first read: a ``ScoreTable`` without a query embedding. Nothing
    in the package calls it; perfbench/tracing.py wraps it here."""
    return ScoreTable(subgraph, coeffs, embeddings)


def k_shortest_weighted(
    table: ScoreTable,
    seed: int,
    k: int,
    budget: EnumerationBudget,
    target: int | None = None,
) -> list[Path]:
    """The k lowest-effective-cost simple paths over ``table.subgraph``
    from ``seed``, length <= L.

    Best-first expansion over partial simple paths: with nonnegative edge
    costs, popping in (cost, node-sequence, relation-sequence) order emits
    complete paths in exactly nondecreasing cost order with lexicographic
    node-id tie-breaking. ``target`` restricts output to paths ending there
    (pair mode); by default any endpoint counts. The heap starts from the
    seed's zero-length prefix, which is extended like every later pop but
    never emitted, so a seed's self-loop is skipped as a revisit.

    With a ``target``, the search is goal-directed: the subgraph's hop table
    (``Subgraph.hops_to``) gives each node's fewest hops to the target, and
    a partial path is pushed only if its tail is within the hops it has
    left. Paths that reach the target are not extended, since a simple
    path cannot return to it. The hop count ignores prunes and the
    simple-path rule, so it never overestimates: the pruned partial paths
    are exactly some with no completion, the heap pops the remaining ones
    in the same order, and the output equals the unpruned search's. A seed
    with no out-edge, or that cannot reach the target within L hops, costs
    no expansion at all, and no hop table: ``Subgraph.reaches`` rules the
    pair out first, searching from both ends, and ``hops_to`` is read only
    for a seed that can reach the target.
    """
    subgraph = table.subgraph
    if seed not in subgraph.nodes:
        raise ValueError(f"seed {seed} not in subgraph")
    adj = subgraph.out_edges
    if not adj[seed]:
        return []
    max_length = budget.max_length
    if target is None:
        hops = None
    elif subgraph.reaches(seed, target, max_length):
        hops = subgraph.hops_to(target, max_length)
    else:
        return []

    out: list[Path] = []
    # heap entries: (cost, node sequence, relation sequence, edges); the
    # first is the seed's zero-length prefix, which is not a path
    heap: list[tuple[float, tuple[int, ...], tuple[int, ...], tuple[Triple, ...]]]
    heap = [(0.0, (seed,), (), ())]
    while heap and len(out) < k:
        cost, nodes, rels, edges = heapq.heappop(heap)
        if edges and (target is None or nodes[-1] == target):
            out.append(Path.unchecked(edges, nodes, rels))
            if target is not None:
                continue
        if len(edges) < max_length:
            visited = set(nodes)
            left = max_length - len(edges) - 1
            for e in adj[nodes[-1]]:
                if e.tail in visited or hops is not None and hops.get(
                        e.tail, left + 1) > left:  # no way to the target
                    continue
                heapq.heappush(
                    heap,
                    (cost + table[e], nodes + (e.tail,), rels + (e.relation,),
                     edges + (e,)),
                )
    return out


def _best(table: ScoreTable, paths, n: int) -> list[Path]:
    """The ``n`` highest-scoring of ``paths``, best first, ties broken by
    node sequence, then relation sequence; matched as a batch first.

    The (-score, nodes, relations) keys are unique, so ``heapq.nsmallest``
    keeps exactly what a full sort cut to ``n`` would."""
    table.match(paths)
    score = table.score
    return heapq.nsmallest(
        n, paths, key=lambda p: (-score(p), p.nodes, p.relations))


def beam_expand(
    table: ScoreTable,
    seeds: list[int],
    budget: EnumerationBudget,
) -> list[Path]:
    """Breadth-first expansion over ``table.subgraph`` keeping the B
    highest-scoring partial paths per depth; every retained prefix is
    returned as a candidate.

    The frontier holds prefixes as (edges, nodes, relations) tuples and
    starts from each seed's zero-length prefix; each of the L depths
    extends every prefix by one edge and keeps the B best extensions, by
    the rank-and-cut that also gives ``enumerate_paths`` its final
    ranking. An extension is built from its prefix's tuples, with no
    check: its edge leaves the prefix's terminal for a node the prefix
    does not visit. A seed's self-loop is no simple path and is skipped,
    as at every later depth.
    """
    adj = table.subgraph.out_edges
    frontier = [((), (s,), ()) for s in sorted(set(seeds))]
    retained: list[Path] = []
    for _depth in range(budget.max_length):
        nxt = [Path.unchecked(edges + (e,), nodes + (e.tail,),
                              rels + (e.relation,))
               for edges, nodes, rels in frontier
               for e in adj[nodes[-1]] if e.tail not in nodes]
        if not nxt:
            break
        kept = _best(table, nxt, budget.beam_size)
        retained.extend(kept)
        frontier = [(p.edges, p.nodes, p.relations) for p in kept]
    return retained


def random_walk_proposals(
    table: ScoreTable,
    seeds: list[int],
    budget: EnumerationBudget,
    rng_seed: int,
) -> list[Path]:
    """R restart-limited walks over ``table.subgraph``; each walk records its
    prefix as a path.

    Step choice is proportional to inverse effective cost; revisits are
    treated as dead ends so proposals stay simple. Deterministic given
    ``rng_seed``.

    Each node's step table (its out-edges, their cumulative inverse costs
    and the set of their tails) is built once per call. A step that no
    visited node cuts short passes the cumulative weights to
    ``rng.choices``, which otherwise accumulates ``weights`` into the same
    list, so both draws read the same random number and pick the same edge.
    """
    if budget.walks == 0 or not seeds:
        return []
    adj = table.subgraph.out_edges
    steps: dict[int, tuple] = {}
    rng = random.Random(rng_seed)
    seeds = sorted(set(seeds))

    out: list[Path] = []
    for i in range(budget.walks):
        start = seeds[i % len(seeds)]
        edges: list[Triple] = []
        walk = [start]
        visited = {start}
        node = start
        while len(edges) < budget.max_length:
            if rng.random() < budget.restart_prob:
                break
            step = steps.get(node)
            if step is None:
                opts = adj[node]
                inv = [1.0 / max(table[e], 1e-9) for e in opts]
                step = steps[node] = (opts, inv, list(accumulate(inv)),
                                      {e.tail for e in opts})
            opts, inv, cum, tails = step
            if not opts:
                break
            if visited.isdisjoint(tails):
                chosen = rng.choices(opts, cum_weights=cum, k=1)[0]
            else:
                kept = [(e, w) for e, w in zip(opts, inv)
                        if e.tail not in visited]
                if not kept:
                    break
                options, weights = zip(*kept)
                chosen = rng.choices(options, weights=weights, k=1)[0]
            edges.append(chosen)
            node = chosen.tail
            walk.append(node)
            visited.add(node)
        if edges:
            out.append(Path.unchecked(tuple(edges), tuple(walk),
                                      tuple([e.relation for e in edges])))
    return out


def enumerate_paths(
    table: ScoreTable,
    seeds: list[int],
    budget: EnumerationBudget,
    rng_seed: int = 0,
    pair_mode: bool = False,
) -> list[Path]:
    """Union of the three generators over ``table.subgraph``, deduplicated
    on (node sequence, relation sequence), ranked by ``table.score``
    descending, truncated to K.

    k-shortest runs from every seed (in pair mode, once per other seed as
    target), and in pair mode only paths from one seed to another are kept.
    If every k-shortest call came back with fewer than K paths, they were
    exhaustive and already hold every path a beam or walk proposal could
    add, so beam expansion and random walks are skipped.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    subgraph = table.subgraph
    seeds = sorted({s for s in seeds if s in subgraph.nodes})
    if not seeds:
        return []

    k = budget.max_candidates
    pool: dict[tuple, Path] = {}

    def absorb(paths):
        for p in paths:
            pool.setdefault(p.key(), p)

    exhaustive = True
    for s in seeds:
        for target in ([t for t in seeds if t != s] if pair_mode else [None]):
            found = k_shortest_weighted(table, s, k, budget, target=target)
            exhaustive = exhaustive and len(found) < k
            absorb(found)
    if not exhaustive:
        absorb(beam_expand(table, seeds, budget))
        absorb(random_walk_proposals(table, seeds, budget, rng_seed))

    candidates = pool.values()
    if pair_mode:  # beam/walk proposals must also satisfy the endpoint rule
        seed_set = set(seeds)
        candidates = [p for p in candidates
                      if p.terminal in seed_set and p.terminal != p.nodes[0]]
    return _best(table, candidates, k)
