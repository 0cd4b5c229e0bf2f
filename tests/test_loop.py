import io
import itertools
import json
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgpaths.embeddings
import kgpaths.loop
import kgpaths.weights
from kgpaths.config import RunConfig
from kgpaths.embeddings import HashEmbeddings, ServiceEmbeddings
from kgpaths.errors import ServiceError, UnknownItemError, ZeroVectorError
from kgpaths.evaluation import BenchmarkRecord, run_benchmark
from kgpaths.graph import (
    REFUTE_MULTIPLIER,
    ConfirmTriple,
    ExpandSeed,
    PruneEdge,
    RefuteTriple,
    SeedCandidate,
    SwapSeed,
    Triple,
    apply_edits,
    expand_neighborhood,
)
from kgpaths.loop import (
    SCRIPTED_EPSILON,
    DiagnosticMessage,
    ExternalReasoner,
    ScriptedReasoner,
    _spearman,
    discretize_target,
    discretize_topk,
    map_diagnostic,
    parse_diagnostic,
    path_mask,
    run_loop,
    soft_mask,
)
from kgpaths.paths import Path, pool_path_vector
from kgpaths.scoring import LinearScorer, LinearVerifier, ScoredCandidate
from kgpaths.synthetic import ARGO_QUESTION, argo_fixture
from kgpaths.weights import effective_cost, path_score, semantic_match

from conftest import build_graph, full_subgraph, random_graph

EMB = HashEmbeddings(dimension=8, seed=0)


# --- diagnostics -------------------------------------------------------------


def test_parse_diagnostic_roundtrip():
    for text, kind, args in [
        ("VERIFY(a, r, b)", "VERIFY", ("a", "r", "b")),
        ("EXPAND(ent, 2)", "EXPAND", ("ent", "2")),
        ("DISAMBIGUATE(m, a|b)", "DISAMBIGUATE", ("m", "a|b")),
        ("PRUNE(3)", "PRUNE", ("3",)),
        ("NONE", "NONE", ()),
    ]:
        msg = parse_diagnostic(text)
        assert msg is not None
        assert msg.kind == kind and msg.args == args
        assert parse_diagnostic(msg.canonical()).args == args


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 11), st.booleans())
def test_every_emitted_diagnostic_round_trips(graph_seed, seed_index, probe):
    """Each diagnostic that ``ScriptedReasoner`` (never confident, so it
    always asks to VERIFY, with a probe or not) and the forced EXPAND put
    in a trace is its own ``parse_diagnostic`` then ``canonical``."""
    g = random_graph(random.Random(graph_seed))
    seed = SeedCandidate(seed_index % g.num_entities, 1.0)
    probes = {"q": ("r1", "n0")} if probe else {}
    config = RunConfig(rounds=3, radius=1, L=2, K=8, walks=5, seed=graph_seed)
    result = run_loop("q", [seed], g, config,
                      ScriptedReasoner(g, conf_threshold=1.0, probes=probes),
                      EMB)
    assert not result.failed
    for r in result.rounds:
        assert parse_diagnostic(r.diagnostic).canonical() == r.diagnostic


def test_emitted_diagnostics_of_each_kind_round_trip(chain_graph):
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    probed = run_loop(ARGO_QUESTION, [SeedCandidate(
        fx.graph.entity_id("Argo"), 1.0)], fx.graph, fx.config, reasoner,
        fx.embeddings)
    forced = run_loop("q", [SeedCandidate(chain_graph.entity_id("d"), 1.0)],
                      chain_graph, RunConfig(rounds=1, radius=1),
                      ScriptedReasoner(chain_graph), EMB)
    texts = [r.diagnostic for r in probed.rounds + forced.rounds]
    assert texts == ["VERIFY(Boston, host_event, 1976_Summer_Olympics)",
                     "NONE", "EXPAND(d, 1)"]
    for text in texts:
        assert parse_diagnostic(text).canonical() == text


def test_parse_diagnostic_rejects_garbage():
    assert parse_diagnostic("VERIFY(a, b)") is None  # wrong arity
    assert parse_diagnostic("FROBNICATE(a)") is None
    assert parse_diagnostic("VERIFY a r b") is None
    assert parse_diagnostic("") .kind == "NONE"


def test_map_diagnostic_verify_confirms_present_refutes_absent(chain_graph):
    confirm = map_diagnostic(parse_diagnostic("VERIFY(a, r1, b)"), chain_graph)
    assert confirm == [ConfirmTriple(Triple(0, 0, 1))]
    refute = map_diagnostic(parse_diagnostic("VERIFY(a, r1, d)"), chain_graph)
    assert refute == [RefuteTriple(Triple(0, 0, 3))]


def test_map_diagnostic_expand_swap_prune(chain_graph):
    assert map_diagnostic(parse_diagnostic("EXPAND(b, 2)"), chain_graph) \
        == [ExpandSeed(1, 2)]
    assert map_diagnostic(parse_diagnostic("DISAMBIGUATE(a, c|d)"),
                          chain_graph) == [SwapSeed(0, 2)]
    cands = [ScoredCandidate(Path([Triple(0, 0, 1), Triple(1, 1, 2)]))]
    edits = map_diagnostic(parse_diagnostic("PRUNE(0)"), chain_graph,
                           candidates=cands)
    assert edits == [PruneEdge(Triple(0, 0, 1)), PruneEdge(Triple(1, 1, 2))]


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_map_diagnostic_expand_below_radius_one_yields_no_edits(chain_graph,
                                                                radius):
    assert map_diagnostic(parse_diagnostic(f"EXPAND(b, {radius})"),
                          chain_graph) == []


def test_expand_radius_past_the_graph_stops_with_the_frontier(chain_graph):
    """A radius of 10**12 finds what a radius of ``num_entities`` finds,
    at once, whether the edit is built or parsed from a reply: the
    search stops when a hop adds no node."""
    def nodes_after(edits):
        sub = expand_neighborhood(chain_graph, [SeedCandidate(1)], 1)
        apply_edits(sub, edits, round_index=1)
        return dict(sub.nodes)

    expected = nodes_after([ExpandSeed(1, chain_graph.num_entities)])
    assert expected == {1: 0, 2: 0, 3: 1}  # b, c at start; d two hops out
    assert nodes_after([ExpandSeed(1, 10**12)]) == expected
    edits = map_diagnostic(parse_diagnostic(f"EXPAND(b, {10**12})"),
                           chain_graph)
    assert edits == [ExpandSeed(1, 10**12)]
    assert nodes_after(edits) == expected


def test_map_diagnostic_failures_yield_no_edits(chain_graph):
    assert map_diagnostic(None, chain_graph) == []
    assert map_diagnostic(parse_diagnostic("NONE"), chain_graph) == []
    # unknown entity, out-of-range prune index, missing candidate list
    assert map_diagnostic(parse_diagnostic("VERIFY(zzz, r1, b)"),
                          chain_graph) == []
    assert map_diagnostic(parse_diagnostic("PRUNE(5)"), chain_graph,
                          candidates=[]) == []
    assert map_diagnostic(parse_diagnostic("PRUNE(0)"), chain_graph) == []
    assert map_diagnostic(parse_diagnostic("EXPAND(b, x)"), chain_graph) == []


class _PruneFirst(ScriptedReasoner):
    """Scripted reasoner that is never confident and always asks to prune
    the first path it was shown."""

    def reason(self, question, selected, mixture=None):
        reply = super().reason(question, selected, mixture=mixture)
        return replace(reply, confidence=0.0, diagnostic="PRUNE(0)")


def test_prune_names_the_selected_path_the_reasoner_saw(chain_graph,
                                                         monkeypatch):
    rounds = []  # (candidates, selected) of each round
    select_ref = kgpaths.loop.select_and_inject

    def select(candidates, **kwargs):
        selected = select_ref(candidates, **kwargs)
        rounds.append((list(candidates), list(selected)))
        return selected

    monkeypatch.setattr(kgpaths.loop, "select_and_inject", select)
    # the verifier gates out every one-edge path, the best-ranked
    # candidates here, so selection skips them
    result = run_loop("q", [SeedCandidate(0, 1.0)], chain_graph,
                      RunConfig(rounds=2, radius=3, select_top_k=2),
                      _PruneFirst(chain_graph), EMB,
                      verifier=lambda path, table: float(len(path) > 1))
    candidates, selected = rounds[0]
    assert len(candidates[0].path) == 1 and len(selected[0].path) > 1
    assert result.edits_applied == len(selected[0].path)
    assert result.subgraph.pruned == set(selected[0].path.edges)


# --- masks and discretization --------------------------------------------------


def test_soft_mask_values():
    # the edge mask covers the candidates' edges only and has no relevance
    # term; a path holding a confirmed or refuted edge gets one from
    # path_mask
    p = Path([Triple(0, 0, 1), Triple(1, 0, 2)])
    q, r = Path([Triple(5, 0, 6)]), Path([Triple(3, 0, 4)])
    cands = [ScoredCandidate(p), ScoredCandidate(q), ScoredCandidate(r)]
    assert soft_mask(0.0, cands[:2]) == {
        Triple(0, 0, 1): 0.5, Triple(1, 0, 2): 0.5, Triple(5, 0, 6): 0.5}
    edits = [ConfirmTriple(Triple(0, 0, 1)), RefuteTriple(Triple(5, 0, 6))]
    deltas = path_mask(0.0, cands, edits, gain=4.0)
    sig = lambda x: 1 / (1 + math.exp(-x))
    assert deltas[p.key()] == pytest.approx(sig(4.0))
    assert deltas[q.key()] == pytest.approx(sig(-4.0))
    assert deltas[r.key()] == pytest.approx(0.5)


def test_soft_mask_uncertainty_term():
    cands = [ScoredCandidate(Path([Triple(0, 0, 1)]))]
    deltas = soft_mask(1.0, cands, uncertainty_gain=2.0)
    assert deltas[Triple(0, 0, 1)] == pytest.approx(1 / (1 + math.exp(-2.0)))


def test_path_mask_refutation_dominates():
    p = Path([Triple(0, 0, 1), Triple(1, 0, 2)])
    edits = [ConfirmTriple(Triple(0, 0, 1)), RefuteTriple(Triple(1, 0, 2))]
    deltas = path_mask(0.0, [ScoredCandidate(p)], edits, gain=4.0)
    assert deltas[p.key()] == pytest.approx(1 / (1 + math.exp(4.0)))


def test_masks_share_one_relevance_rule():
    # an edge that is both confirmed and refuted counts as refuted: a path
    # holding it is masked as refuted, and the edge itself, after its
    # uncertainty-only mask value, ends with the refute multiplier
    e = Triple(0, 0, 1)
    p = Path([e])
    edits = [ConfirmTriple(e), RefuteTriple(e)]
    cands = [ScoredCandidate(p)]
    path = path_mask(0.3, cands, edits, gain=4.0, uncertainty_gain=1.5)
    assert path[p.key()] == pytest.approx(1 / (1 + math.exp(4.0 - 0.45)))
    sub = full_subgraph(build_graph([("a", "r", "b")]))
    sub.soft.update(soft_mask(0.3, cands, uncertainty_gain=1.5))
    assert sub.soft == {e: pytest.approx(1 / (1 + math.exp(-0.45)))}
    apply_edits(sub, edits)
    assert sub.soft == {e: REFUTE_MULTIPLIER} and sub.refuted == {e}


def _relevance_edge_mask(uncertainty, candidates, edits, gain,
                         uncertainty_gain):
    """The edge mask as it was before edits lost their multipliers: the
    candidates' edges and the round's confirmed and refuted triples, each
    its own item, valued sigmoid(gain * relevance + uncertainty_gain *
    uncertainty), relevance -1 if refuted, else +1 if confirmed, else 0."""
    confirmed = {e.triple for e in edits if isinstance(e, ConfirmTriple)}
    refuted = {e.triple for e in edits if isinstance(e, RefuteTriple)}
    edges = confirmed | refuted
    for c in candidates:
        edges.update(c.path.edges)
    out = {}
    for e in edges:
        relevance = -1.0 if e in refuted else 1.0 if e in confirmed else 0.0
        x = gain * relevance + uncertainty_gain * uncertainty
        out[e] = 1.0 / (1.0 + math.exp(-x))
    return out


def _random_path(g, rng, max_edges):
    """A simple chain of one to ``max_edges`` base triples."""
    edges = [rng.choice(sorted(g.triples))]
    seen = {edges[0].head, edges[0].tail}
    while len(edges) < max_edges:
        out = [e for e in g.out_adj[edges[-1].tail] if e.tail not in seen]
        if not out:
            break
        edges.append(rng.choice(out))
        seen.add(edges[-1].tail)
    return Path(edges)


@st.composite
def _mask_gains(draw):
    """(mask_gain, mask_uncertainty_gain) within RunConfig's bound."""
    gain = draw(st.floats(-36.0, 36.0))
    rest = 36.0 - abs(gain)
    return gain, draw(st.floats(-rest, rest))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(0, 6),
       st.integers(0, 6), st.integers(0, 3), _mask_gains(),
       st.floats(0.0, 1.0))
def test_edge_mask_and_edits_set_the_multipliers_the_relevance_rule_did(
        graph_seed, num_candidates, num_edits, num_prior, gains, uncertainty):
    """A round's update, the uncertainty-only edge mask on the kept paths
    and then the edits, leaves the same multipliers and refutations, by
    ``==``, as the relevance-based edge mask that also covered the edits'
    triples did, for confirmed and refuted triples on the candidates and off
    them (absent from the graph too), over multipliers set in earlier
    rounds."""
    gain, uncertainty_gain = gains
    rng = random.Random(graph_seed)
    g = random_graph(rng)
    if not g.triples:  # every drawn pair was a loop
        num_candidates = num_edits = num_prior = 0
    cands = [ScoredCandidate(_random_path(g, rng, 3))
             for _ in range(num_candidates)]
    on_paths = sorted({e for c in cands for e in c.path.edges})
    edits = []
    for _ in range(num_edits):
        if on_paths and rng.random() < 0.5:
            triple = rng.choice(on_paths)
        else:
            triple = Triple(rng.randrange(g.num_entities),
                            rng.randrange(g.num_relations),
                            rng.randrange(g.num_entities))
        edits.append(rng.choice([ConfirmTriple, RefuteTriple])(triple))
    prior = {rng.choice(sorted(g.triples)): rng.random()
             for _ in range(num_prior)}

    new, old = full_subgraph(g), full_subgraph(g)
    for sub, mask in ((new, soft_mask(uncertainty, cands,
                                      uncertainty_gain=uncertainty_gain)),
                      (old, _relevance_edge_mask(uncertainty, cands, edits,
                                                 gain, uncertainty_gain))):
        sub.soft.update(prior)
        sub.soft.update(mask)
        apply_edits(sub, edits, round_index=1)
    assert new.soft == old.soft
    assert new.refuted == old.refuted


def test_spearman_average_ranks_on_ties():
    # ranks (1, 2.5, 2.5, 4) and (1, 4, 2.5, 2.5): Pearson of ranks is 1/2
    a = np.array([0.1, 0.2, 0.2, 0.5])
    b = np.array([0.3, 0.9, 0.4, 0.4])
    assert _spearman(a, b) == pytest.approx(0.5, abs=1e-15)
    assert _spearman(a, a) == pytest.approx(1.0)
    assert _spearman(a, -a) == pytest.approx(-1.0)
    assert _spearman(a[:1], b[:1]) is None
    assert _spearman(a, np.full(4, 0.25)) is None


def test_spearman_matches_scipy_on_ties():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 13):
        for _ in range(20):
            a = rng.integers(0, 4, n) / 4  # few distinct values: many ties
            b = rng.integers(0, 3, n) / 3
            got = _spearman(a, b)
            if got is None:  # a constant input
                assert len(set(a)) == 1 or len(set(b)) == 1
            else:
                want = stats.spearmanr(a, b).statistic
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def spearman_reference(a, b):
    """``_spearman`` as numpy's formula: ``np.allclose`` for "near-constant",
    then ``np.corrcoef`` of ``np.unique`` average ranks."""
    def average_ranks(x):
        _, inverse, counts = np.unique(x, return_inverse=True,
                                       return_counts=True)
        below = np.cumsum(counts) - counts
        return (below + (counts + 1) / 2)[inverse]

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):  # inputs hold infinities and NaNs
        if len(a) < 2 or np.allclose(a, a[0]) or np.allclose(b, b[0]):
            return None
        rho = np.corrcoef(average_ranks(a), average_ranks(b))[1, 0]
    return None if math.isnan(rho) else float(rho)


@st.composite
def _spearman_vector(draw, n):
    """``n`` values: near a base ``x0``, at the edge of ``np.allclose``'s
    tolerance (exactly on it when ``x0`` is 0), with ``x0`` itself first or
    not; or mixed with a few distinct values, so ties are common, and with
    infinities and NaNs."""
    x0 = draw(st.sampled_from([0.0, 1.0, -2.5, 1e-3, 123.0, math.inf,
                               math.nan]))
    tol = 1e-8 + 1e-5 * abs(x0)
    near = [x0, x0 + tol, x0 - tol, math.nextafter(x0 + tol, math.inf),
            math.nextafter(x0 - tol, -math.inf), x0 + tol / 2]
    value = st.sampled_from(near)
    if draw(st.booleans()):  # not only values near x0
        value = st.one_of(
            value,
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0]),
            st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300]))
    if n and draw(st.booleans()):
        return [x0] + draw(st.lists(value, min_size=n - 1, max_size=n - 1))
    return draw(st.lists(value, min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(_spearman_vector(n), _spearman_vector(n))))
def test_spearman_equals_the_numpy_formula(pair):
    a, b = pair
    assert _spearman(a, b) == spearman_reference(a, b)


def spearman_fraction_oracle(a, b):
    """Average ranks and their covariances in exact rationals; finite
    inputs only."""
    n = len(a)

    def centred_ranks(x):
        ranks = [Fraction(sum(v < u for v in x))
                 + Fraction(sum(v == u for v in x) + 1, 2) for u in x]
        mean = sum(ranks) / n
        return [r - mean for r in ranks]

    ra, rb = centred_ranks(a), centred_ranks(b)
    c00 = sum(r * r for r in ra)
    c11 = sum(r * r for r in rb)
    c01 = sum(r * s for r, s in zip(ra, rb))
    return math.copysign(math.sqrt(c01 * c01 / (c00 * c11)), c01)


def test_spearman_matches_exact_rank_arithmetic_on_ties():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 13):
        for _ in range(20):
            a = (rng.integers(0, 4, n) / 4).tolist()  # few distinct values
            b = (rng.integers(0, 3, n) / 3).tolist()
            got = _spearman(a, b)
            if got is None:  # a constant input
                assert len(set(a)) == 1 or len(set(b)) == 1
            else:
                want = spearman_fraction_oracle(a, b)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_discretize_target_rule():
    assert discretize_target(200) == 20
    assert discretize_target(50) == 10
    assert discretize_target(10) == 2


def test_discretize_topk_deterministic_equals_truncation():
    deltas = {i: d for i, d in enumerate([0.9, 0.1, 0.5, 0.8, 0.3,
                                          0.7, 0.2, 0.6, 0.4, 0.85])}
    kept = discretize_topk(deltas, k=10, deterministic=True)
    assert kept == [0, 9]  # K' = 2, two largest deltas
    # fewer items than K' selects everything
    assert discretize_topk({0: 0.5}, k=200, deterministic=True) == [0]


def noisy_topk_oracle(deltas, k, rng_seed):
    """The noisy top-k rule replayed: one Gumbel draw per item from
    random.Random(rng_seed) in item order, then the K' items with the
    largest log delta + g, ties on item id."""
    keys = sorted(deltas)
    k_prime = min(math.ceil(0.2 * k), 20)
    if len(keys) <= k_prime:
        return keys
    rng = random.Random(rng_seed)
    noise = [-math.log(-math.log(min(max(rng.random(), 1e-300), 1 - 1e-16)))
             for _ in keys]
    value = {key: math.log(deltas[key]) + g for key, g in zip(keys, noise)}
    return sorted(keys, key=lambda key: (-value[key], key))[:k_prime]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
           st.integers(0, 500),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
           | st.sampled_from([0.5, 0.982]),  # ties on delta
           max_size=60),
       st.integers(1, 250), st.integers(0, 2**32))
def test_discretize_topk_noise_matches_the_oracle(deltas, k, rng_seed):
    assert discretize_topk(deltas, k=k, rng_seed=rng_seed) == \
        noisy_topk_oracle(deltas, k, rng_seed)


def test_discretize_topk_noise_reproducible():
    deltas = {i: 0.3 + 0.001 * i for i in range(30)}
    a = discretize_topk(deltas, k=30, rng_seed=5)
    b = discretize_topk(deltas, k=30, rng_seed=5)
    c = discretize_topk(deltas, k=30, rng_seed=6)
    assert a == b
    assert len(a) == discretize_target(30)
    assert a != c  # noise actually matters at near-ties


@pytest.mark.parametrize("gain, uncertainty_gain", [(32.0, 4.0),
                                                     (-32.0, -4.0)])
def test_mask_values_at_the_config_bound_stay_inside_the_unit_interval(
        gain, uncertainty_gain):
    # |mask_gain| + |mask_uncertainty_gain| <= 36 is RunConfig's bound: a
    # confirmed edge then reaches +-36 at full uncertainty, short of the
    # sigmoid rounding to 1.0 or 0.0
    e, f = Triple(0, 0, 1), Triple(1, 0, 2)
    p, q = Path([e]), Path([f])
    cands = [ScoredCandidate(p), ScoredCandidate(q)]
    deltas = path_mask(1.0, cands, [ConfirmTriple(e), RefuteTriple(f)],
                       gain=gain, uncertainty_gain=uncertainty_gain)
    assert all(0.0 < d < 1.0 for d in deltas.values())
    assert discretize_topk(deltas, k=10) == sorted([p.key(), q.key()])
    deltas = soft_mask(1.0, cands, uncertainty_gain=uncertainty_gain)
    assert all(0.0 < d < 1.0 for d in deltas.values())
    assert discretize_topk(deltas, k=10) == [e, f]


def test_discretize_topk_validation():
    with pytest.raises(ValueError):
        discretize_topk({0: 1.0}, k=10)


# --- scripted reasoner ----------------------------------------------------------


def _cands(graph, spec):
    """spec: list of (edges, adjusted_injection, verifier)."""
    out = []
    for edges, alpha, v in spec:
        c = ScoredCandidate(Path(edges))
        c.adjusted_injection = alpha
        c.verifier = v
        out.append(c)
    return out


def test_scripted_reasoner_answer_and_confidence(chain_graph):
    r = ScriptedReasoner(chain_graph, conf_threshold=0.7)
    cands = _cands(chain_graph, [
        ([Triple(0, 0, 1)], 0.8, 0.9),
        ([Triple(0, 2, 2)], 0.2, 1.0),
    ])
    reply = r.reason("q", cands)
    assert reply.answer == "b"
    assert reply.confidence == pytest.approx(0.72)
    assert reply.diagnostic == "NONE"
    assert reply.tokens == 10  # two 1-hop paths, 5 whitespace tokens each
    assert np.allclose(reply.attention.rows, [[0.8, 0.2]])


def test_scripted_reasoner_default_probe_is_final_edge(chain_graph):
    r = ScriptedReasoner(chain_graph, conf_threshold=0.7)
    cands = _cands(chain_graph, [([Triple(0, 0, 1), Triple(1, 1, 2)], 0.5, 0.5)])
    reply = r.reason("q", cands)
    assert reply.diagnostic == "VERIFY(b, r2, c)"


def test_scripted_reasoner_configured_probe(chain_graph):
    r = ScriptedReasoner(chain_graph, conf_threshold=0.7,
                         probes={"q": ("r1", "d")})
    cands = _cands(chain_graph, [([Triple(0, 0, 1)], 0.5, 0.5)])
    reply = r.reason("q", cands)
    assert reply.diagnostic == "VERIFY(b, r1, d)"


def test_scripted_reasoner_log_prob_rule(chain_graph):
    r = ScriptedReasoner(chain_graph)
    eps = SCRIPTED_EPSILON
    cands = _cands(chain_graph, [
        ([Triple(0, 0, 1)], 0.6, 1.0),   # terminal b, mass 0.6
        ([Triple(0, 2, 2)], 0.4, 0.5),   # terminal c, mass 0.2
    ])
    expected = math.log((0.6 + eps) / (0.8 + eps * 2))
    assert r.log_prob("q", cands, "b") == pytest.approx(expected)
    # unseen answer only contributes epsilon
    expected_d = math.log(eps / (0.8 + eps * 3))
    assert r.log_prob("q", cands, "d") == pytest.approx(expected_d)


# --- external reasoner -----------------------------------------------------------


class _ReasonerHandler(BaseHTTPRequestHandler):
    requests = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _ReasonerHandler.requests.append(body)
        if self.path == "/broken":
            payload = {"answer": "x", "confidence": 3.0}
        elif self.path == "/teapot":
            self.send_response(418)
            self.end_headers()
            return
        else:
            payload = {"answer": "b", "confidence": 0.9,
                       "diagnostic": "NONE", "tokens": 12,
                       "attention": [[1.0]]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def reasoner_server():
    server = HTTPServer(("127.0.0.1", 0), _ReasonerHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _ReasonerHandler.requests = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_external_reasoner_wire_format(chain_graph, reasoner_server):
    r = ExternalReasoner(chain_graph, url=reasoner_server)
    cands = _cands(chain_graph, [([Triple(0, 0, 1)], 1.0, 0.7)])
    reply = r.reason("who?", cands, mixture=None)
    assert reply.answer == "b" and reply.confidence == 0.9
    assert reply.tokens == 12
    sent = _ReasonerHandler.requests[0]
    assert sent["question"] == "who?"
    assert sent["paths"] == [{"text": "a -> r1 -> b", "weight": 1.0,
                              "verifier": 0.7}]


def test_external_reasoner_rejects_bad_confidence(chain_graph, reasoner_server):
    r = ExternalReasoner(chain_graph, url=reasoner_server + "/broken")
    with pytest.raises(ServiceError, match="outside"):
        r.reason("q", _cands(chain_graph, [([Triple(0, 0, 1)], 1.0, 1.0)]))


def test_external_reasoner_http_error(chain_graph, reasoner_server):
    r = ExternalReasoner(chain_graph, url=reasoner_server + "/teapot")
    with pytest.raises(ServiceError) as exc:
        r.reason("q", _cands(chain_graph, [([Triple(0, 0, 1)], 1.0, 1.0)]))
    assert exc.value.status == 418 and not exc.value.retryable


class _CannedResponse:
    def __init__(self, body, status_code=200, headers=None):
        self.body = body
        self.status_code = status_code
        self.headers = headers or {}

    def json(self):  # as ``requests.Response.json``
        return json.loads(self.body)


class _CannedSession:
    """Stands in for ``requests.Session``: answers each question with a
    canned body."""

    def __init__(self, bodies):
        self.bodies = bodies

    def post(self, url, json=None, headers=None, timeout=None):
        return _CannedResponse(self.bodies[json["question"]])


_GOOD_REPLY = '{"answer": "b", "confidence": 0.9}'


@pytest.mark.parametrize("body", [
    "<html>busy</html>",  # not JSON: ValueError
    '{"answer": "b"}',  # no confidence: KeyError
    '{"answer": "b", "confidence": 0.9, "attention": [[0.5, 0.2]]}',
    '{"answer": "b", "confidence": 0.9, "attention": [[1.0], [0.5, 0.5]]}',
    '{"confidence": 0.9}',  # no answer
    '{"answer": null, "confidence": 0.9}',
    '{"answer": 5, "confidence": 0.9}',
    '{"answer": "b", "confidence": true}',
    '{"answer": "b", "confidence": "0.9"}',
    '{"answer": "b", "confidence": 0.9, "diagnostic": 5}',
    '["b", 0.9]',  # not an object
    '{"answer": "b", "confidence": 0.9, "tokens": -5}',
    '{"answer": "b", "confidence": 0.9, "tokens": 2.7}',
    '{"answer": "b", "confidence": 0.9, "tokens": true}',
    '{"answer": "b", "confidence": 0.9, "tokens": "7"}',
], ids=["not-json", "no-confidence", "attention-rows", "attention-ragged",
        "no-answer", "answer-null", "answer-number", "confidence-bool",
        "confidence-text", "diagnostic-number", "not-object",
        "tokens-negative", "tokens-fraction", "tokens-bool", "tokens-text"])
def test_external_reasoner_malformed_reply_fails_one_row(body):
    g = build_graph([("a", "r", "b")])
    session = _CannedSession({"bad": body, "good": _GOOD_REPLY})
    with pytest.raises(ServiceError, match="malformed"):
        ExternalReasoner(g, url="http://reasoner.invalid",
                         session=session).reason("bad", _cands(g, [
                             ([Triple(0, 0, 1)], 1.0, 1.0)]))
    records = [BenchmarkRecord(question, (("a", 1.0),), frozenset({"b"}))
               for question in ("bad", "good")]
    reasoner = ExternalReasoner(g, url="http://reasoner.invalid",
                                session=session)
    report = run_benchmark(records, g, RunConfig(radius=1, rounds=1, walks=0),
                           reasoner, EMB)
    rows = report["per_question"]
    assert [r["failed"] for r in rows] == [1, 0]
    assert rows[1]["answer"] == "b" and rows[1]["hit_at_1"] == 1.0


def test_external_reasoner_reads_a_null_or_absent_diagnostic_as_none():
    g = build_graph([("a", "r", "b")])
    session = _CannedSession({
        "null": '{"answer": "b", "confidence": 0.9, "diagnostic": null}',
        "absent": _GOOD_REPLY})
    reasoner = ExternalReasoner(g, url="http://reasoner.invalid",
                                session=session)
    for question in ("null", "absent"):
        reply = reasoner.reason(question, _cands(g, [
            ([Triple(0, 0, 1)], 1.0, 1.0)]))
        assert reply.diagnostic == "NONE"


class _TableSession:
    """Stands in for ``requests.Session``: every post fails with ``error``
    or gets one canned response."""

    def __init__(self, error=None, status_code=200, headers=None, body=""):
        self.error = error
        self.response = _CannedResponse(body, status_code, headers)

    def post(self, url, json=None, headers=None, timeout=None):
        if self.error is not None:
            raise self.error
        return self.response


_PAST = "Wed, 21 Oct 2015 07:28:00 GMT"

# session, then (retryable, retry_after, status) of the ServiceError
_FAILURES = {
    "unreachable": (dict(error=ConnectionError("refused")), (True, None, None)),
    "teapot": (dict(status_code=418), (False, None, 418)),
    "429-seconds": (dict(status_code=429, headers={"Retry-After": "7"}),
                    (True, 7.0, 429)),
    "503-date": (dict(status_code=503, headers={"Retry-After": _PAST}),
                 (True, 0.0, 503)),
    "not-json": (dict(body="<html>busy</html>"), (False, None, None)),
}


def _call_embedder(session):
    ServiceEmbeddings(2, url="http://embed.invalid", session=session).embed("x")


def _call_reasoner(session):
    g = build_graph([("a", "r", "b")])
    ExternalReasoner(g, url="http://reasoner.invalid", session=session).reason(
        "q", _cands(g, [([Triple(0, 0, 1)], 1.0, 1.0)]))


@pytest.mark.parametrize("case", sorted(_FAILURES))
@pytest.mark.parametrize("client", [_call_embedder, _call_reasoner],
                         ids=["embedder", "reasoner"])
def test_services_share_one_failure_rule(client, case):
    session, expected = _FAILURES[case]
    with pytest.raises(ServiceError) as exc:
        client(_TableSession(**session))
    err = exc.value
    assert (err.retryable, err.retry_after, err.status) == expected
    if case == "not-json":
        assert "malformed" in str(err)


def test_external_reasoner_env_url(monkeypatch, chain_graph):
    monkeypatch.delenv("KGPATHS_REASONER_URL", raising=False)
    with pytest.raises(ValueError):
        ExternalReasoner(chain_graph)


# --- run_loop --------------------------------------------------------------------


def test_run_loop_argo_trace_structure():
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    result = run_loop(ARGO_QUESTION, seeds, fx.graph, fx.config, reasoner,
                      fx.embeddings)
    assert result.answer == "New_York_City"
    assert len(result.rounds) == 2
    assert result.reasoner_calls == 2
    assert result.edits_applied == 1
    # the returned rounds are the trace: run_loop writes no file
    trace = result.trace_jsonl()
    assert trace.endswith("}\n") and trace.count("\n") == 2
    lines = [json.loads(l) for l in trace.splitlines()]
    assert [l["round"] for l in lines] == [0, 1]
    assert lines[0]["answer"] == "Boston"
    assert lines[0]["edits"] == \
        ["RefuteTriple(Boston, host_event, 1976_Summer_Olympics)"]
    assert lines[1]["edits"] == []
    with pytest.raises(TypeError, match="trace_file"):
        run_loop(ARGO_QUESTION, seeds, fx.graph, fx.config, reasoner,
                 fx.embeddings, trace_file=io.StringIO())
    # injection-vs-attention diagnostics are populated for scripted replies
    assert lines[0]["alignment"] == pytest.approx(0.0)


def test_run_loop_single_round_stops_early():
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    config = fx.config.with_overrides(rounds=1)
    result = run_loop(ARGO_QUESTION, seeds, fx.graph, config, reasoner,
                      fx.embeddings)
    assert len(result.rounds) == 1
    assert result.answer == "Boston"  # wrong without the dialogue round
    assert result.edits_applied == 0


def test_run_loop_no_verifier_keeps_wrong_answer():
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    config = fx.config.with_overrides(no_verifier=True)
    result = run_loop(ARGO_QUESTION, seeds, fx.graph, config, reasoner,
                      fx.embeddings)
    assert result.answer == "Boston"


def test_run_loop_forced_expand_on_empty_candidates():
    # seed has no outgoing edges within radius; the loop expands instead of dying
    g = build_graph([("lonely", "r", "lonely2")])
    config = RunConfig(radius=1, rounds=2, walks=0)
    reasoner = ScriptedReasoner(g)
    seeds = [SeedCandidate(g.entity_id("lonely2"), 1.0)]
    result = run_loop("q", seeds, g, config, reasoner, EMB)
    assert result.answer is None
    assert all(r.forced_expand for r in result.rounds)
    assert result.reasoner_calls == 0


def test_run_loop_reasoner_failure_marks_episode():
    class FailingReasoner:
        def reason(self, *a, **k):
            raise ServiceError("boom", retryable=True)

    g = build_graph([("a", "r", "b")])
    config = RunConfig(radius=1, rounds=2, walks=0)
    seeds = [SeedCandidate(g.entity_id("a"), 1.0)]
    result = run_loop("q", seeds, g, config, FailingReasoner(), EMB)
    assert result.failed
    assert "boom" in result.failure
    assert len(result.rounds) == 1


def test_run_loop_respects_edit_budget():
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    config = fx.config.with_overrides(edit_budget=0)
    result = run_loop(ARGO_QUESTION, seeds, fx.graph, config, reasoner,
                      fx.embeddings)
    assert result.edits_applied == 0
    assert result.answer == "Boston"  # refutation never lands


def test_run_loop_requires_seeds():
    g = build_graph([("a", "r", "b")])
    with pytest.raises(ValueError):
        run_loop("q", [], g, RunConfig(), ScriptedReasoner(g), EMB)


# --- one score table per episode --------------------------------------------------


class _CountingEmbeddings:
    """Embedding provider that counts ``embed`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def embed(self, label):
        self.calls += 1
        return self.inner.embed(label)


def _count_poolings_and_weightings(monkeypatch):
    """Counters of the path keys pooled and the edges weighted from now on,
    counted at every name the package binds the pooling and weighting
    kernels, ``pool_vectors``, ``pool_vector_stack`` and ``edge_terms``, to:
    a batch of paths pooled in one call counts each of its paths."""
    pooled, weighted = Counter(), Counter()
    pool_ref = kgpaths.embeddings.pool_vectors
    stack_ref = kgpaths.embeddings.pool_vector_stack
    weight_ref = kgpaths.weights.edge_terms

    def pool(vectors, path):
        pooled[path.key()] += 1
        return pool_ref(vectors, path)

    def pool_stack(stack, paths):
        pooled.update(path.key() for path in paths)
        return stack_ref(stack, paths)

    def weight(edge, *args):
        weighted[edge] += 1
        return weight_ref(edge, *args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("kgpaths."):
            for name, ref, counted in (("pool_vectors", pool_ref, pool),
                                       ("pool_vector_stack", stack_ref,
                                        pool_stack),
                                       ("edge_terms", weight_ref, weight)):
                if getattr(module, name, None) is ref:
                    monkeypatch.setattr(module, name, counted)
    return pooled, weighted


@pytest.mark.parametrize("graph_seed", range(6))
def test_run_loop_pools_each_path_and_weights_each_edge_once(
        monkeypatch, graph_seed):
    pooled, weighted = _count_poolings_and_weightings(monkeypatch)
    g = random_graph(random.Random(graph_seed), max_nodes=12, max_edges=40)
    emb = _CountingEmbeddings(HashEmbeddings(dimension=8, seed=graph_seed))
    config = RunConfig(rounds=3, radius=3, L=3, K=12, beam=4, walks=30,
                       select_top_k=4, seed=graph_seed)
    # never confident: every round but the last ends in a VERIFY edit, whose
    # soft multiplier changes the next round's costs and scores
    result = run_loop("q n1 r2", [SeedCandidate(0, 1.0)], g, config,
                      ScriptedReasoner(g, conf_threshold=1.0), emb)

    assert len(result.rounds) == 3 and result.reasoner_calls == 3
    assert result.edits_applied == 2
    candidates = {(tuple(g.entity_id(n) for n in nodes),
                   tuple(g.relation_id(r) for r in rels))
                  for nodes, rels in result.retrieved_paths}
    assert candidates and set(pooled) >= candidates
    assert max(pooled.values()) == 1
    assert max(weighted.values(), default=1) == 1
    # the provider saw the query and each label the episode read once: the
    # nodes and relations of the pooled paths and the ends of the weighted
    # edges; nothing pools or weighs around the table, and no path, edge
    # or round repeats an earlier lookup
    entities = {n for nodes, _ in pooled for n in nodes}
    entities |= {n for e in weighted for n in (e.head, e.tail)}
    relations = {r for _, rels in pooled for r in rels}
    assert emb.calls == 1 + len(entities) + len(relations)


class _RandomDiagnostics(ScriptedReasoner):
    """Scripted reasoner that is never confident and whose diagnostics are
    drawn from a seeded ``random.Random``: VERIFY of a selected edge or of
    any triple, PRUNE of a candidate, DISAMBIGUATE to any entity, EXPAND
    by one or two hops. The round's soft masks change the multipliers too."""

    def __init__(self, graph, rng_seed, check=None):
        super().__init__(graph, conf_threshold=1.0)
        self.rng = random.Random(rng_seed)
        self.check = check

    def reason(self, question, selected, mixture=None):
        if self.check is not None:
            self.check()
        reply = super().reason(question, selected, mixture=mixture)
        rng, g = self.rng, self.graph
        a, b = rng.choice(g.entity_labels), rng.choice(g.entity_labels)
        kind = rng.choice(["confirm", "verify", "prune", "swap", "expand"])
        if kind == "confirm":
            edge = rng.choice(rng.choice(selected).path.edges)
            diagnostic = "VERIFY({}, {}, {})".format(*g.triple_labels(edge))
        elif kind == "verify":
            diagnostic = f"VERIFY({a}, {rng.choice(g.relation_labels)}, {b})"
        elif kind == "prune":
            diagnostic = f"PRUNE({rng.randrange(len(selected))})"
        elif kind == "swap":
            diagnostic = f"DISAMBIGUATE({a}, {b})"
        else:
            diagnostic = f"EXPAND({a}, {rng.randint(1, 2)})"
        return replace(reply, diagnostic=diagnostic)


class _FreshEachRound(kgpaths.weights.ScoreTable):
    """A table that forgets everything at each round, as one built anew
    for every round would."""

    def new_round(self):
        self.clear()  # dict.__init__ would keep the costs
        self.__init__(self.subgraph, self.coeffs, self.embeddings,
                      self.query_embedding)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000), st.integers(2, 4),
       st.integers(1, 2), st.booleans(),
       st.lists(st.integers(0, 11), min_size=1, max_size=2, unique=True),
       st.sampled_from([1, 2, 8, 64]))
def test_episode_table_matches_fresh_round_values(
        graph_seed, diag_seed, rounds, radius, pair_mode, seeds, dimension):
    g = random_graph(random.Random(graph_seed), max_nodes=12, max_edges=40)
    emb = HashEmbeddings(dimension=dimension, seed=graph_seed)
    seeds = [SeedCandidate(s % g.num_entities, 1.0) for s in seeds]
    config = RunConfig(rounds=rounds, radius=radius, L=3, K=12, beam=4,
                       walks=20, select_top_k=4, edit_budget=rounds,
                       pair_mode=pair_mode, seed=diag_seed)
    enumerate_ref = kgpaths.loop.enumerate_paths
    rounds_seen = []  # (table, candidates) of each enumeration

    def enumerate_and_keep(table, *args, **kwargs):
        paths = enumerate_ref(table, *args, **kwargs)
        rounds_seen.append((table, paths))
        return paths

    def check():
        """Everything the table holds or gives for this round's candidates,
        and every out-edge list the subgraph keeps, equals the reference
        functions on the subgraph as it stands."""
        table, paths = rounds_seen[-1]
        sub, q = table.subgraph, table.query_embedding
        for edge, cost in table.items():
            assert cost == effective_cost(edge, config.coefficients(), emb,
                                          g, sub)
        for node, out in sub.out_edges.items():
            assert out == [e for e in g.out_adj[node] if sub.has_edge(e)]
        for p in paths:
            assert table.score(p) == path_score(p, q, config.coefficients(),
                                                emb, g, sub)
            assert table.sem(p) == semantic_match(p, q, emb, g)
            assert np.array_equal(table.vector(p), pool_path_vector(p, emb, g))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgpaths.loop, "enumerate_paths", enumerate_and_keep)
        episode = run_loop("q n1 r2", seeds, g, config,
                           _RandomDiagnostics(g, diag_seed, check), emb)
        mp.setattr(kgpaths.loop, "ScoreTable", _FreshEachRound)
        fresh = run_loop("q n1 r2", seeds, g, config,
                         _RandomDiagnostics(g, diag_seed), emb)
    tables = {id(table) for table, _ in rounds_seen[:len(episode.rounds)]}
    assert len(tables) == 1  # one table for the whole episode
    assert episode.trace_jsonl() == fresh.trace_jsonl()
    assert episode.retrieved_paths == fresh.retrieved_paths
    assert episode.subgraph.to_json() == fresh.subgraph.to_json()


def test_linear_plugins_read_the_round_table(monkeypatch):
    pooled, _ = _count_poolings_and_weightings(monkeypatch)
    linear = LinearScorer({"bias": 0.5, "length": -0.25, "cost": -1.0,
                           "sem": 0.7})
    scored = []

    def scorer(path, table):
        scored.append((path, table))
        return linear(path, table)

    verifier = LinearVerifier({"bias": 0.2, "cost": -0.2, "sem": 1.5})
    result = _argo_episode(argo_fixture().embeddings, scorer=scorer,
                           verifier=verifier, rounds=1)
    assert len(result.rounds) == 1 and len(scored) == 3
    # scorer and verifier read the values the round pooled: once per path
    assert pooled == Counter(path.key() for path, _ in scored)

    monkeypatch.undo()
    for path, table in scored:
        cost = 0.0  # left to right, as builtin sum did before Python 3.12
        for e in path.edges:
            cost += effective_cost(e, table.coeffs, table.embeddings,
                                   table.graph, table.subgraph)
        sem = semantic_match(path, table.query_embedding, table.embeddings,
                             table.graph)
        assert linear(path, table) == (
            0.5 * 1.0 - 0.25 * len(path) - 1.0 * cost + 0.7 * sem)


def test_a_provider_is_embed_alone():
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    embed_only = _CountingEmbeddings(fx.embeddings)
    reports = [json.dumps(run_benchmark(fx.records * 2, fx.graph, fx.config,
                                        reasoner, embeddings), sort_keys=True)
               for embeddings in (fx.embeddings, embed_only)]
    assert reports[0] == reports[1] and embed_only.calls > 0


# --- plugin failures ----------------------------------------------------------------


def _raising_plugin(path, table):
    return 1 / 0


def _nan_plugin(path, table):
    return math.nan


@pytest.mark.parametrize("kind", ["scorer", "verifier"])
@pytest.mark.parametrize("plugin", [_raising_plugin, _nan_plugin])
def test_plugin_failure_fails_one_row_and_the_run_finishes(kind, plugin):
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    episode = _argo_episode(fx.embeddings, **{kind: plugin})
    assert episode.failed and episode.reasoner_calls == 0
    assert episode.failure.startswith(f"{kind} ")
    assert "non-finite" in episode.failure or "division" in episode.failure
    report = run_benchmark(fx.records * 2, fx.graph, fx.config, reasoner,
                           fx.embeddings, **{kind: plugin})
    assert [r["failed"] for r in report["per_question"]] == [1, 1]
    assert report["overall"]["failures"] == 2


def test_linear_verifier_far_below_zero_gives_zero_and_no_failure():
    fx = argo_fixture()
    verifier = LinearVerifier({"bias": -1000.0})
    episode = _argo_episode(fx.embeddings, verifier=verifier)
    assert not episode.failed and episode.reasoner_calls > 0
    assert all(c["verifier"] == 0.0
               for r in episode.rounds for c in r.selected)


# --- embedding service failures inside a round ------------------------------------


class _FlakyEmbeddings(_CountingEmbeddings):
    """Embedding provider whose ``fail_at``-th ``embed`` call raises
    ``error``: a ``ServiceError`` as a brief outage would, the
    ``UnknownItemError`` of a file table that lacks the label, or a
    ``ZeroVectorError``; every other call answers."""

    def __init__(self, inner, fail_at, error=ServiceError):
        super().__init__(inner)
        self.fail_at = fail_at
        self.error = error

    def embed(self, label):
        if self.calls + 1 == self.fail_at:
            self.calls += 1
            raise self.error("embedding unavailable")
        return super().embed(label)


# every KgError up to the reasoner's reply fails the episode the same way
_EMBEDDING_ERRORS = (ServiceError, UnknownItemError, ZeroVectorError)


class _ExpandFirst(ScriptedReasoner):
    """Scripted reasoner on the argo fixture whose first reply diagnoses
    EXPAND(New_York_City, 1) instead of its probe. That brings in
    1976_Summer_Olympics, so the next round weighs an edge and pools paths
    that no earlier round read: the round after an expansion reads the
    embedding service, where a round that only re-weights does not."""

    def __init__(self, graph, **kwargs):
        super().__init__(graph, **kwargs)
        self.replies = 0

    def reason(self, question, selected, mixture=None):
        reply = super().reason(question, selected, mixture=mixture)
        self.replies += 1
        if self.replies == 1:
            reply = replace(reply, diagnostic="EXPAND(New_York_City, 1)")
        return reply


def _argo_episode(embeddings, scorer=None, verifier=None,
                  reasoner_type=ScriptedReasoner, **overrides):
    fx = argo_fixture()
    reasoner = reasoner_type(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    return run_loop(ARGO_QUESTION, seeds, fx.graph,
                    fx.config.with_overrides(**overrides), reasoner, embeddings,
                    scorer=scorer, verifier=verifier)


def test_run_loop_embedding_failure_keeps_earlier_rounds():
    fx = argo_fixture()
    first_round = _CountingEmbeddings(fx.embeddings)
    first = _argo_episode(first_round, reasoner_type=_ExpandFirst, rounds=1)
    whole = _CountingEmbeddings(fx.embeddings)
    good = _argo_episode(whole, reasoner_type=_ExpandFirst, rounds=2)
    assert len(good.rounds) == 2 and not good.failed
    assert whole.calls > first_round.calls
    # fail each embedding lookup of the second round in turn: enumeration,
    # scoring, the verifier and encoding all read the service there for
    # what the expansion brought in
    for error, fail_at in itertools.product(
            _EMBEDDING_ERRORS, range(first_round.calls + 1, whole.calls + 1)):
        result = _argo_episode(
            _FlakyEmbeddings(fx.embeddings, fail_at, error),
            reasoner_type=_ExpandFirst, rounds=2)
        assert result.failed, (error, fail_at)
        assert "unavailable" in result.failure
        assert len(result.rounds) == 2
        assert result.rounds[0].to_record() == good.rounds[0].to_record()
        assert result.rounds[1].answer is None
        assert result.rounds[1].selected == []
        assert result.answer == "Boston"  # the finished round's answer
        assert result.retrieved_paths == first.retrieved_paths != []
        assert result.reasoner_calls == 1


def test_embedding_failure_fails_one_row_and_the_run_continues():
    fx = argo_fixture()
    first_round = _CountingEmbeddings(fx.embeddings)
    _argo_episode(first_round, rounds=1)
    for error in _EMBEDDING_ERRORS:
        flaky = _FlakyEmbeddings(fx.embeddings, first_round.calls + 1, error)
        # the first question's first reply expands, so its second round
        # reads the embeddings; the second question runs the fixture's own
        # dialogue
        report = run_benchmark(fx.records * 2, fx.graph, fx.config,
                               _ExpandFirst(fx.graph, conf_threshold=0.4,
                                            probes=fx.probes), flaky)
        rows = report["per_question"]
        assert [r["failed"] for r in rows] == [1, 0], error
        # the finished round's reasoner call and tokens are counted
        assert rows[0]["rounds"] == 2 and rows[0]["answer"] == "Boston"
        assert rows[0]["reasoner_calls"] == 1 and rows[0]["tokens"] > 0
        assert rows[1]["answer"] == "New_York_City"
        assert report["overall"]["failures"] == 1


# --- embedding service failures before the first round ------------------------------


@pytest.mark.parametrize("knn", [0, 2])
def test_failure_before_first_round_fails_one_row_and_the_run_continues(knn):
    # the first lookup is the question embedding (knn=0) or, with knn
    # expansion, the first entity embedded while the neighborhood is built
    fx = argo_fixture()
    config = fx.config.with_overrides(knn=knn)
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    for error in _EMBEDDING_ERRORS:
        flaky = _FlakyEmbeddings(fx.embeddings, 1, error)
        if knn == 0 and error is UnknownItemError:
            # a question the table lacks falls back to its tokens: the
            # first token lookup fails too
            flaky = _FlakyEmbeddings(flaky, 2, error)
        result = run_loop(ARGO_QUESTION, seeds, fx.graph, config, reasoner,
                          flaky)
        assert result.failed and "unavailable" in result.failure, error
        assert result.rounds == [] and result.trace_jsonl() == ""
        assert result.answer is None and result.reasoner_calls == 0

    report = run_benchmark(fx.records * 2, fx.graph, config, reasoner,
                           _FlakyEmbeddings(fx.embeddings, 1))
    rows = report["per_question"]
    assert rows[0] == {
        "question": ARGO_QUESTION, "answer": "", "confidence": "",
        "hit_at_1": 0.0, "f1": 0.0, "mrr": 0.0, "covered": 0.0,
        "path_mrr": 0.0, "path_map": 0.0, "path_hit10": 0.0, "hops": 2,
        "rounds": 0, "reasoner_calls": 0, "tokens": 0, "edits": 0,
        "failed": 1,
    }
    assert rows[1]["failed"] == 0 and rows[1]["answer"] != ""
    assert report["overall"]["failures"] == 1


# --- trace records and budgets ------------------------------------------------------


def test_round_record_keys_are_pinned():
    result = _argo_episode(argo_fixture().embeddings)
    for state in result.rounds:
        record = state.to_record()
        assert set(record) == {
            "round", "subgraph_nodes", "subgraph_edges", "num_candidates",
            "selected", "answer", "confidence", "diagnostic", "edits",
            "counters", "alignment", "attn_spearman", "forced_expand"}
        assert set(record["counters"]) == {"reasoner_calls", "tokens", "edits"}


def test_forced_expand_is_never_refused_by_the_edit_budget(chain_graph):
    # d has no out-edges, so no round has a candidate and each one forces
    # an EXPAND; edit_budget=0 refuses none, and each counts as an edit
    d = chain_graph.entity_id("d")
    config = RunConfig(rounds=3, radius=1, edit_budget=0)
    result = run_loop("q", [SeedCandidate(d, 1.0)], chain_graph, config,
                      ScriptedReasoner(chain_graph), EMB)
    assert [r.forced_expand for r in result.rounds] == [True] * 3
    assert [r.edits for r in result.rounds] == [["ExpandSeed(d, 1)"]] * 3
    assert [r.to_record()["counters"]["edits"]
            for r in result.rounds] == [1, 2, 3]
    assert result.edits_applied == 3 and result.reasoner_calls == 0


def test_empty_selection_forces_expand_and_records_the_candidates():
    # a threshold no soft weight times verifier value reaches: every round
    # has candidates, selects none and forces an EXPAND
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    result = run_loop(ARGO_QUESTION, [SeedCandidate(fx.graph.entity_id("Argo"),
                                                    1.0)],
                      fx.graph, fx.config.with_overrides(select_threshold=0.99),
                      reasoner, fx.embeddings)
    assert [r.forced_expand for r in result.rounds] == [True] * 3
    assert all(r.num_candidates > 0 for r in result.rounds)
    assert result.reasoner_calls == 0 and result.edits_applied == 3
    assert result.answer is None and not result.failed


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(0, 11), min_size=2, max_size=3))
def test_pair_mode_with_an_unbounded_L_answers_as_with_L_the_graph_size(
        graph_seed, seed_ids):
    """No path, hop table or two-ended check is longer than the graph, so
    pair mode with L = 10**12 gives the answer, trace and retrieved paths
    it gives with L = the entity count; a search that ran all L hops
    would not finish."""
    g = random_graph(random.Random(graph_seed))
    seeds = [SeedCandidate(s % g.num_entities, 1.0) for s in seed_ids]
    short, unbounded = (
        run_loop("q n1 r2", seeds, g,
                 RunConfig(rounds=3, radius=2, L=L, K=8, walks=5,
                           pair_mode=True, seed=graph_seed),
                 ScriptedReasoner(g), EMB)
        for L in (g.num_entities, 10**12))
    assert unbounded.answer == short.answer
    assert unbounded.trace_jsonl() == short.trace_jsonl()
    assert unbounded.retrieved_keys == short.retrieved_keys
