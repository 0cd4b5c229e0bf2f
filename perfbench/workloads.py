"""Seeded workloads for the kgpaths benchmark.

A workload is a list of suites. A suite is one graph with its embedding
provider, run configuration, scripted-reasoner probes and questions, plus
the outcome every question must reach. ``build(name, seed)`` returns the
suites; the same seed always gives the same triples (see ``digest``).

* ``fixtures``: the four shipped ``kgpaths.synthetic.FIXTURES`` at their
  shipped configs; independent of the seed.
* ``hub_dialogue``: a random graph of about 50k entities and 100k triples
  over 100 relations. Every question is seeded at a hub with 3,000
  out-neighbours and a planted two-hop gold chain. The scripted reasoner
  stays under its confidence threshold, so each episode runs all three
  rounds and writes edits (a refuting, then a confirming VERIFY) plus soft
  masks between them.
* ``pair_island``: pair mode (L=4, radius 3) on about 2k entities in
  eight clusters of out-degree 12. Each question has two seeds. In the
  even questions the second seed is reachable through three planted
  chains; in the odd ones it sits on a disconnected island, so every round
  finds zero paths and ends in a forced EXPAND. Both kinds exhaust the
  k-shortest search from the cluster seed in every round.

Embedding vectors for ``hub_dialogue`` are built so the gold margin does
not depend on the seed: background entities and relations live in
dimensions ``RESERVED:`` and each question direction is one of the first
``RESERVED`` unit axes, so a path with no gold node has semantic match 0.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from kgpaths import (
    BenchmarkRecord,
    FileEmbeddings,
    HashEmbeddings,
    KnowledgeGraph,
    RunConfig,
    ScriptedReasoner,
)
from kgpaths.synthetic import FIXTURES

DIM = 64
RESERVED = 8
HUB_RELATIONS = 100
PAIR_RELATIONS = 50
PAIR_CHAINS = 3


@dataclass
class Expect:
    """Outcome one question must reach; ``None`` fields are not checked.
    ``answer`` is the report's answer cell ("" when none)."""

    answer: str | None = None
    rounds: int | None = None
    edits: int | None = None
    covered: float | None = None


@dataclass
class Suite:
    name: str
    graph: KnowledgeGraph
    embeddings: object
    config: RunConfig
    records: list[BenchmarkRecord]
    triples: list[tuple[str, str, str]]
    probes: dict[str, tuple[str, str]] = field(default_factory=dict)
    expect: list[Expect] = field(default_factory=list)
    # overall means the suite's questions must reach, from the report rows
    expect_overall: dict[str, float] = field(default_factory=dict)

    def reasoner(self) -> ScriptedReasoner:
        return ScriptedReasoner(self.graph,
                                conf_threshold=self.config.conf_threshold,
                                probes=self.probes)


def _unsigned(seed: int) -> int:
    """Any integer seed as a valid entropy word for numpy."""
    return seed & (2**64 - 1)


def _graph(triples) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for h, r, t in triples:
        graph.add_triple(h, r, t)
    graph.finalize()
    return graph


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random unit vectors confined to dimensions ``RESERVED:``."""
    out = np.zeros((n, DIM))
    raw = rng.standard_normal((n, DIM - RESERVED))
    out[:, RESERVED:] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return out


def _zipf_relations(rng: np.random.Generator, relations: int, n: int) -> np.ndarray:
    """Relation ids for ``n`` triples with fixed per-relation counts
    (relation 0 most frequent) in seeded random order."""
    weights = 1.0 / np.sqrt(np.arange(1, relations + 1))
    counts = np.floor(weights / weights.sum() * n).astype(int)
    counts[0] += n - counts.sum()
    ids = np.repeat(np.arange(relations), counts)
    rng.shuffle(ids)
    return ids


# --- fixtures -----------------------------------------------------------------

# Acceptance values (tests/test_acceptance.py criteria 5, 6, 7, 11) at the
# shipped configs.
FIXTURE_OVERALL = {
    "argo": {"hit_at_1": 1.0},
    "coverage": {"coverage": 1.0},
    "adversarial": {"coverage": 1.0},
    "metrics": {"hit_at_1": 0.55, "coverage": 0.5},
}


def fixtures(seed: int = 0) -> list[Suite]:
    suites = []
    for name, build in FIXTURES.items():
        fx = build()
        expect = [Expect() for _ in fx.records]
        if name == "argo":
            expect = [Expect(answer="New_York_City", rounds=2)]
        suites.append(Suite(
            name=name, graph=fx.graph, embeddings=fx.embeddings,
            config=fx.config, records=list(fx.records), triples=fx.triples,
            probes=dict(fx.probes), expect=expect,
            expect_overall=FIXTURE_OVERALL[name]))
    return suites


# --- hub_dialogue ---------------------------------------------------------------


def hub_dialogue(seed: int, entities: int = 50_000,
                 background_triples: int = 94_000, questions: int = 3,
                 hub_degree: int = 3000) -> list[Suite]:
    """Hubs with ``hub_degree`` random out-neighbours on a random graph.

    Question ``q`` is seeded at ``hub{q}``, whose gold chain is
    ``hub{q} -rel000-> q{q}_mid -rel000-> q{q}_ans -rel000-> q{q}_fact``.
    ``mid``, ``ans`` and ``fact`` embed on the question's axis. Round 0
    answers ``mid``; the probe ``VERIFY(mid, rel000, fact)`` is absent from
    the graph and refutes it. Round 1 answers ``ans``; the same probe on
    ``ans`` is present and confirms it. Round 2 keeps ``ans``. Gold
    entities are interned first, so the soft masks (which break ties on
    node ids) land on the gold chain.
    """
    if questions > RESERVED:
        raise ValueError(f"at most {RESERVED} questions")
    relations = HUB_RELATIONS
    rng = np.random.default_rng([_unsigned(seed), 1])
    rel = [f"rel{k:03d}" for k in range(relations)]
    gold_rel = rel[0]
    ent = [f"e{i:05d}" for i in range(entities)]

    triples: list[tuple[str, str, str]] = []
    vectors: dict[str, np.ndarray] = {}
    records, probes, expect = [], {}, []
    hubs = _unit_rows(rng, questions)
    for q in range(questions):
        hub, mid, ans, fact = (f"hub{q}", f"q{q}_mid", f"q{q}_ans",
                               f"q{q}_fact")
        question = f"hub question {q}"
        triples += [(hub, gold_rel, mid), (mid, gold_rel, ans),
                    (ans, gold_rel, fact)]
        axis = np.zeros(DIM)
        axis[q] = 1.0
        vectors.update({question: axis, mid: axis, ans: axis, fact: axis,
                        hub: hubs[q]})
        records.append(BenchmarkRecord(
            question=question, seeds=((hub, 1.0),), answers=frozenset({ans}),
            gold_paths=(((hub, mid, ans), (gold_rel, gold_rel)),), hops=2))
        probes[question] = (gold_rel, fact)
        expect.append(Expect(answer=ans, rounds=3, edits=2, covered=1.0))

    weights = 1.0 / np.sqrt(np.arange(1, relations + 1))
    for q in range(questions):
        tails = rng.choice(entities, size=hub_degree, replace=False)
        rels = rng.choice(relations, size=hub_degree, p=weights / weights.sum())
        triples += [(f"hub{q}", rel[r], ent[t]) for r, t in zip(rels, tails)]

    heads = rng.integers(0, entities, size=background_triples)
    tails = rng.integers(0, entities - 1, size=background_triples)
    tails += tails >= heads  # no self loops
    rels = _zipf_relations(rng, relations, background_triples)
    triples += [(ent[h], rel[r], ent[t]) for h, r, t in zip(heads, rels, tails)]

    vectors.update(zip(ent, _unit_rows(rng, entities)))
    vectors.update(zip(rel, _unit_rows(rng, relations)))
    return [Suite(
        name="hub_dialogue", graph=_graph(triples),
        embeddings=FileEmbeddings(vectors), config=RunConfig(),
        records=records, triples=triples, probes=probes, expect=expect,
        expect_overall={"hit_at_1": 1.0, "coverage": 1.0})]


# --- pair_island ------------------------------------------------------------------


def pair_island(seed: int, questions: int = 8, cluster_size: int = 240,
                out_degree: int = 12) -> list[Suite]:
    """One cluster of ``cluster_size`` entities per question, each entity
    with ``out_degree`` random in-cluster out-edges.

    The first seed ``p{q}_s`` is a cluster member. In even questions the
    second seed ``p{q}_t`` is a sink reachable only through
    ``PAIR_CHAINS`` planted three-hop chains ``s -> a -> b -> t``; in odd
    questions it is one of four island entities joined only to each other.
    Even questions run three rounds (the scripted reasoner confirms the top
    path's last edge twice) and answer ``t``; odd ones run three rounds of
    forced EXPAND and answer nothing.
    """
    relations = PAIR_RELATIONS
    rng = np.random.default_rng([_unsigned(seed), 2])
    rel = [f"prel{k:02d}" for k in range(relations)]
    triples: list[tuple[str, str, str]] = []
    records, expect = [], []
    for q in range(questions):
        s, t = f"p{q}_s", f"p{q}_t"
        members = [s] + [f"p{q}_n{i:03d}" for i in range(1, cluster_size)]
        joined = q % 2 == 0
        if joined:
            gold = []
            for j in range(PAIR_CHAINS):
                a, b = f"p{q}_a{j}", f"p{q}_b{j}"
                r = [rel[k] for k in rng.integers(0, relations, size=3)]
                triples += [(s, r[0], a), (a, r[1], b), (b, r[2], t)]
                gold.append(((s, a, b, t), tuple(r)))
        else:
            island = [t] + [f"p{q}_i{i}" for i in range(1, 4)]
            for i, h in enumerate(island):
                triples.append((h, rel[i], island[(i + 1) % len(island)]))
                triples.append((h, rel[i + 4], island[(i + 2) % len(island)]))
        for h in range(cluster_size):
            others = rng.choice(cluster_size - 1, size=out_degree, replace=False)
            others += others >= h
            for o, r in zip(others, rng.integers(0, relations, size=out_degree)):
                triples.append((members[h], rel[r], members[o]))
        records.append(BenchmarkRecord(
            question=f"pair question {q}", seeds=((s, 1.0), (t, 1.0)),
            answers=frozenset({t}),
            gold_paths=tuple(gold) if joined else (), hops=3))
        expect.append(Expect(answer=t, rounds=3, edits=2, covered=1.0)
                      if joined else Expect(answer="", rounds=3, edits=3))
    config = RunConfig(pair_mode=True, L=4, radius=3)
    return [Suite(
        name="pair_island", graph=_graph(triples),
        embeddings=HashEmbeddings(dimension=config.embed_dim, seed=seed),
        config=config, records=records, triples=triples, expect=expect,
        expect_overall={"hit_at_1": 0.5, "coverage": 1.0})]


WORKLOADS = {
    "fixtures": fixtures,
    "hub_dialogue": hub_dialogue,
    "pair_island": pair_island,
}


def build(name: str, seed: int) -> list[Suite]:
    return WORKLOADS[name](seed)


def digest(suites: list[Suite]) -> str:
    """sha256 over every suite's triples, in insertion order."""
    h = hashlib.sha256()
    for suite in suites:
        h.update(suite.name.encode())
        for triple in suite.triples:
            h.update("\t".join(triple).encode() + b"\n")
    return h.hexdigest()
