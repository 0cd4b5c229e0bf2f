"""Acceptance suite: each test computes its oracle independently of the
implementation under test, then prints a single PASS/FAIL verdict line."""

import json
import math
import random
import time

import numpy as np

from kgpaths.cli import main as cli_main
from kgpaths.embeddings import HashEmbeddings
from kgpaths.evaluation import run_benchmark
from kgpaths.graph import SeedCandidate, Triple
from kgpaths.injection import (
    AttentionMatrix,
    alignment_loss,
    attention_mass,
    cross_attention,
)
from kgpaths.loop import (
    ScriptedReasoner,
    discretize_target,
    discretize_topk,
    run_loop,
)
from kgpaths.losses import anneal, bce, infonce, rl_reward
from kgpaths.paths import Path
from kgpaths.pathenum import EnumerationBudget, edge_costs, k_shortest_weighted
from kgpaths.scoring import GumbelConfig, ScoredCandidate, gumbel_soft_weights
from kgpaths.synthetic import (
    COVERAGE_DISTRACTORS,
    adversarial_fixture,
    argo_fixture,
    coverage_fixture,
    metrics_fixture,
)
from kgpaths.weights import WeightCoefficients

from conftest import full_subgraph, random_graph


def verdict(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _brute_force_paths(graph, costs, seed, k, max_length):
    """Independent oracle: exhaustive DFS over bounded simple paths,
    sorted by (total cost, node sequence, relation sequence)."""
    adj = {}
    for e in graph.triples:
        adj.setdefault(e.head, []).append(e)
    found = []

    def dfs(node, nodes, rels, edges, cost):
        if edges:
            found.append((cost, nodes, rels, tuple(edges)))
        if len(edges) == max_length:
            return
        for e in adj.get(node, []):
            if e.tail in nodes:
                continue
            dfs(e.tail, nodes + (e.tail,), rels + (e.relation,),
                edges + [e], cost + costs[e])

    dfs(seed, (seed,), (), [], 0.0)
    found.sort(key=lambda item: item[:3])
    return [Path(edges) for _, _, _, edges in found[:k]]


def test_criterion_1_k_shortest_oracle():
    coeffs = WeightCoefficients()
    emb = HashEmbeddings(dimension=16, seed=0)
    rng = random.Random(42)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        graph = random_graph(rng, max_nodes=12, max_edges=30)
        sub = full_subgraph(graph)
        costs = edge_costs(sub, coeffs, emb)
        seed = rng.randrange(graph.num_entities)
        k = rng.randint(1, 10)
        length = rng.randint(1, 4)
        budget = EnumerationBudget(max_length=length)
        expected = _brute_force_paths(graph, costs, seed, k, length)
        got = k_shortest_weighted(costs, seed, k, budget)
        ok = ok and [p.key() for p in got] == [p.key() for p in expected]
    elapsed = time.perf_counter() - start
    verdict(1, "k-shortest oracle", ok and elapsed < 5.0)


def _make_candidates(u_values):
    return [ScoredCandidate(path=Path((Triple(i, 0, i + 10_000),)), u=u)
            for i, u in enumerate(u_values)]


def test_criterion_2_gumbel_soft_weights():
    rng = np.random.default_rng(7)
    ok = True
    for n in range(1, 501):
        u = rng.normal(size=n)
        cands = gumbel_soft_weights(
            _make_candidates(u), GumbelConfig(temperature=0.2,
                                              deterministic=True))
        w = np.array([c.soft_weight for c in cands])
        ok = ok and abs(w.sum() - 1.0) < 1e-9
        # oracle: plain softmax(u / tau)
        z = np.exp(u / 0.2 - (u / 0.2).max())
        ok = ok and np.max(np.abs(w - z / z.sum())) < 1e-9
    # near-infinite temperature flattens the distribution
    u = rng.normal(size=100)
    cands = gumbel_soft_weights(
        _make_candidates(u), GumbelConfig(temperature=1e6,
                                          deterministic=True))
    flat = np.array([c.soft_weight for c in cands])
    ok = ok and np.max(np.abs(flat - 1.0 / 100)) < 1e-6
    verdict(2, "gumbel soft weights", ok)


def test_criterion_3_discretization():
    rng = random.Random(11)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 60)
        deltas = {i: rng.uniform(1e-6, 1 - 1e-6) for i in range(n)}
        k_prime = min(math.ceil(0.2 * n), 20)
        oracle = [key for key, _ in
                  sorted(deltas.items(), key=lambda kv: (-kv[1], kv[0]))]
        oracle = sorted(oracle) if n <= k_prime else oracle[:k_prime]
        got = discretize_topk(deltas, n, deterministic=True)
        ok = ok and sorted(got) == sorted(oracle) and len(got) == min(n, k_prime)
    ok = ok and discretize_target(200) == 20
    ok = ok and discretize_target(50) == 10
    ok = ok and discretize_target(10) == 2
    verdict(3, "discretization", ok)


def test_criterion_4_attention_math():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        q = rng.standard_normal((4, 6))
        kmat = rng.standard_normal((7, 6))
        v = rng.standard_normal((7, 6))
        _, att = cross_attention(q, kmat, v)
        ok = ok and np.max(np.abs(att.rows.sum(axis=1) - 1.0)) < 1e-9
    out1, att1 = cross_attention(q, kmat[:1], v[:1])
    ok = ok and np.array_equal(out1, np.tile(v[:1], (4, 1)))
    ok = ok and np.all(att1.rows == 1.0)

    rows = rng.random((5, 9))
    rows /= rows.sum(axis=1, keepdims=True)
    att = AttentionMatrix(rows)
    key_index = {0: (0, 1, 2), 1: (3,), 2: (4, 5), 3: (6, 7, 8)}
    masses = {p: attention_mass(att, key_index, p) for p in key_index}
    ok = ok and abs(sum(masses.values()) - 1.0) < 1e-9

    # alignment loss vanishes iff alpha equals mass, both directions
    ok = ok and alignment_loss(masses, dict(masses)) == 0.0
    for _ in range(20):
        a = rng.random(4)
        a /= a.sum()
        alphas = {p: float(a[i]) for i, p in enumerate(key_index)}
        loss = alignment_loss(alphas, masses)
        equal = all(abs(alphas[p] - masses[p]) < 1e-12 for p in key_index)
        ok = ok and ((loss == 0.0) == equal)
    verdict(4, "attention math", ok)


def test_criterion_5_coverage_monotone_in_k():
    fx = coverage_fixture()
    ks = (10, 25, 50, 100, 200)
    # oracle: the gold chain ranks exactly n + 3 among its distractors, so a
    # question is covered iff K >= n + 3; each distractor count owns 1/5 of
    # the questions
    expected = [sum(1 for n in COVERAGE_DISTRACTORS if k >= n + 3)
                / len(COVERAGE_DISTRACTORS) for k in ks]
    observed = []
    for k in ks:
        report = run_benchmark(fx.records, fx.graph,
                               fx.config.with_overrides(K=k),
                               ScriptedReasoner(fx.graph), fx.embeddings)
        observed.append(report["overall"]["coverage"])
    ok = all(abs(o - e) < 1e-12 for o, e in zip(observed, expected))
    ok = ok and observed == sorted(observed)
    verdict(5, "coverage monotone in K", ok)


def test_criterion_6_dialogue_scenario():
    ok = True
    for seed in (0, 7, 12345):
        fx = argo_fixture()  # rebuilt each time: the loop edits the graph
        config = fx.config.with_overrides(seed=seed)
        reasoner = ScriptedReasoner(fx.graph,
                                    conf_threshold=config.conf_threshold,
                                    probes=fx.probes)
        record = fx.records[0]
        seeds = [SeedCandidate(fx.graph.entity_id(e), c)
                 for e, c in record.seeds]
        result = run_loop(record.question, seeds, fx.graph, config, reasoner,
                          fx.embeddings)
        ok = ok and not result.failed
        ok = ok and len(result.rounds) == 2
        ok = ok and result.rounds[0].answer != "New_York_City"
        ok = ok and result.rounds[0].confidence < config.conf_threshold
        ok = ok and len(result.rounds[0].edits) == 1
        ok = ok and len(result.rounds[1].edits) == 0
        ok = ok and result.answer == "New_York_City"
        ok = ok and result.confidence > config.conf_threshold
    verdict(6, "dialogue scenario", ok)


def test_criterion_7_hybrid_weighting():
    coverages = {}
    for point in ((0.4, 0.4, 0.2), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
        fx = adversarial_fixture()
        a, b, g = point
        config = fx.config.with_overrides(alpha=a, beta=b, gamma=g)
        report = run_benchmark(fx.records, fx.graph, config,
                               ScriptedReasoner(fx.graph), fx.embeddings)
        coverages[point] = report["overall"]["coverage"]
    hybrid = coverages[(0.4, 0.4, 0.2)]
    ok = (hybrid > coverages[(1.0, 0.0, 0.0)]
          and hybrid > coverages[(0.0, 1.0, 0.0)])
    verdict(7, "hybrid weighting", ok)


def test_criterion_8_loss_closed_forms():
    checks = [
        (infonce(0.5, [0.5], temperature=0.3), math.log(2)),
        (infonce(1.0, [0.0], temperature=1.0),
         -math.log(math.e / (math.e + 1))),
        (bce(0.5, 0), math.log(2)),
        (bce(0.5, 1), math.log(2)),
        (bce(0.9, 0), -math.log(0.1)),
        (anneal(0, 2.5, 3.0), 0.0),
        (anneal(20 * 3.0, 2.5, 3.0), 2.5),
        (rl_reward(1.0, 0, 10, 0.5, 0, 1.0), 1.0),
        (rl_reward(0.8, 2, 10, 0.5, 0, 0.0), 0.7),
        (rl_reward(0.0, 0, 10, 0.5, 1, 1.0), -1.0),
    ]
    ok = all(abs(got - want) < 1e-6 for got, want in checks)
    verdict(8, "loss closed forms", ok)


def test_criterion_9_top_path_stability():
    # With a top-u margin of 16*tau the probability that gumbel noise flips
    # the argmax is ~1e-7 per draw, so 500 draws must show zero flips.
    rng = random.Random(1234)
    tau = 1.0
    violations = 0
    for _ in range(100):
        n = rng.randint(2, 40)
        u = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        top = rng.randrange(n)
        u[top] = max(u) + 16 * tau
        for seed in range(5):
            cands = gumbel_soft_weights(
                _make_candidates(u),
                GumbelConfig(temperature=tau, rng_seed=seed))
            best = max(range(n), key=lambda i: cands[i].soft_weight)
            if best != top:
                violations += 1
    verdict(9, "top-path stability", violations == 0)


def test_criterion_10_bench_determinism(tmp_path, capsys):
    files = metrics_fixture().write(tmp_path / "fixture")
    reports = []
    stdouts = []
    for run in range(2):
        path = tmp_path / f"report{run}.json"
        code = cli_main(["bench", files["triples.tsv"], files["bench.jsonl"],
                         "--config", files["config.cfg"],
                         "--report-json", str(path)])
        assert code == 0
        reports.append(path.read_bytes())
        stdouts.append(capsys.readouterr().out)
    ok = reports[0] == reports[1] and stdouts[0] == stdouts[1]
    with capsys.disabled():
        print()
        verdict(10, "bench determinism", ok)


# Hand-computed oracle for the 20-question metrics fixture (spreadsheet):
# per-question Hit@1 / F1 / MRR over the scripted answers against the gold
# sets, coverage and path-rank metrics over the retrievable odd questions,
# and median/MAD efficiency counters.
METRICS_ORACLE = {
    "hit_at_1": 0.55,
    "f1": 0.5,
    "mrr": 0.7125,
    "coverage": 0.5,
    "path_mrr": 0.5,
    "path_map": 0.5,
    "path_hit10": 0.5,
    "failures": 0,
}
EFFICIENCY_ORACLE = {
    "rounds": {"median": 1, "mad": 0},
    "reasoner_calls": {"median": 1, "mad": 0},
    "tokens": {"median": 15, "mad": 5},
    "edits": {"median": 0, "mad": 0},
}


def test_criterion_11_metrics_oracle():
    fx = metrics_fixture()
    report = run_benchmark(fx.records, fx.graph, fx.config,
                           ScriptedReasoner(fx.graph), fx.embeddings)
    ok = all(round(report["overall"][key], 4) == round(want, 4)
             for key, want in METRICS_ORACLE.items())
    ok = ok and report["efficiency"] == EFFICIENCY_ORACLE
    verdict(11, "metrics oracle", ok)
