import io
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from kgpaths.config import RunConfig
from kgpaths.embeddings import HashEmbeddings
from kgpaths.errors import ServiceError
from kgpaths.graph import (
    ConfirmTriple,
    ExpandSeed,
    PruneEdge,
    RefuteTriple,
    SeedCandidate,
    SwapSeed,
    Triple,
)
from kgpaths.loop import (
    DiagnosticContext,
    DiagnosticMessage,
    ExternalReasoner,
    ScriptedReasoner,
    discretize_target,
    discretize_topk,
    map_diagnostic,
    parse_diagnostic,
    path_mask,
    run_loop,
    soft_mask,
)
from kgpaths.paths import Path
from kgpaths.scoring import ScoredCandidate
from kgpaths.synthetic import ARGO_QUESTION, argo_fixture

from conftest import build_graph, full_subgraph

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
        msg = parse_diagnostic(text, uncertainty=0.2)
        assert msg is not None
        assert msg.kind == kind and msg.args == args
        assert parse_diagnostic(msg.canonical()).args == args


def test_parse_diagnostic_rejects_garbage():
    assert parse_diagnostic("VERIFY(a, b)") is None  # wrong arity
    assert parse_diagnostic("FROBNICATE(a)") is None
    assert parse_diagnostic("VERIFY a r b") is None
    assert parse_diagnostic("") .kind == "NONE"


def test_map_diagnostic_verify_confirms_present_refutes_absent(chain_graph):
    sub = full_subgraph(chain_graph)
    confirm = map_diagnostic(parse_diagnostic("VERIFY(a, r1, b)"), sub, chain_graph)
    assert confirm == [ConfirmTriple(Triple(0, 0, 1))]
    refute = map_diagnostic(parse_diagnostic("VERIFY(a, r1, d)"), sub, chain_graph)
    assert refute == [RefuteTriple(Triple(0, 0, 3))]


def test_map_diagnostic_expand_swap_prune(chain_graph):
    sub = full_subgraph(chain_graph)
    assert map_diagnostic(parse_diagnostic("EXPAND(b, 2)"), sub, chain_graph) \
        == [ExpandSeed(1, 2)]
    assert map_diagnostic(parse_diagnostic("DISAMBIGUATE(a, c|d)"), sub,
                          chain_graph) == [SwapSeed(0, 2)]
    cands = [ScoredCandidate(Path([Triple(0, 0, 1), Triple(1, 1, 2)]))]
    edits = map_diagnostic(parse_diagnostic("PRUNE(0)"), sub, chain_graph,
                           candidates=cands)
    assert edits == [PruneEdge(Triple(0, 0, 1)), PruneEdge(Triple(1, 1, 2))]


def test_map_diagnostic_failures_yield_no_edits(chain_graph):
    sub = full_subgraph(chain_graph)
    assert map_diagnostic(None, sub, chain_graph) == []
    assert map_diagnostic(parse_diagnostic("NONE"), sub, chain_graph) == []
    # unknown entity, out-of-range prune index, missing candidate list
    assert map_diagnostic(parse_diagnostic("VERIFY(zzz, r1, b)"), sub,
                          chain_graph) == []
    assert map_diagnostic(parse_diagnostic("PRUNE(5)"), sub, chain_graph,
                          candidates=[]) == []
    assert map_diagnostic(parse_diagnostic("PRUNE(0)"), sub, chain_graph) == []
    assert map_diagnostic(parse_diagnostic("EXPAND(b, x)"), sub, chain_graph) == []


# --- masks and discretization --------------------------------------------------


def _ctx(uncertainty=0.0):
    return DiagnosticContext(uncertainty=uncertainty)


def test_soft_mask_values():
    cands = [ScoredCandidate(Path([Triple(0, 0, 1), Triple(1, 0, 2)]))]
    edits = [ConfirmTriple(Triple(0, 0, 1)), RefuteTriple(Triple(5, 0, 6))]
    deltas = soft_mask(_ctx(), cands, edits, gain=4.0)
    sig = lambda x: 1 / (1 + math.exp(-x))
    assert deltas[Triple(0, 0, 1)] == pytest.approx(sig(4.0))
    assert deltas[Triple(5, 0, 6)] == pytest.approx(sig(-4.0))
    assert deltas[Triple(1, 0, 2)] == pytest.approx(0.5)


def test_soft_mask_uncertainty_term():
    cands = [ScoredCandidate(Path([Triple(0, 0, 1)]))]
    deltas = soft_mask(_ctx(uncertainty=1.0), cands, [], gain=4.0,
                       uncertainty_gain=2.0)
    assert deltas[Triple(0, 0, 1)] == pytest.approx(1 / (1 + math.exp(-2.0)))


def test_path_mask_refutation_dominates():
    p = Path([Triple(0, 0, 1), Triple(1, 0, 2)])
    edits = [ConfirmTriple(Triple(0, 0, 1)), RefuteTriple(Triple(1, 0, 2))]
    deltas = path_mask(_ctx(), [ScoredCandidate(p)], edits, gain=4.0)
    assert deltas[p.key()] == pytest.approx(1 / (1 + math.exp(4.0)))


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


def test_discretize_topk_noise_reproducible():
    deltas = {i: 0.3 + 0.001 * i for i in range(30)}
    a = discretize_topk(deltas, k=30, rng_seed=5)
    b = discretize_topk(deltas, k=30, rng_seed=5)
    c = discretize_topk(deltas, k=30, rng_seed=6)
    assert a == b
    assert len(a) == discretize_target(30)
    assert a != c  # noise actually matters at near-ties


def test_discretize_topk_validation():
    with pytest.raises(ValueError):
        discretize_topk({0: 1.0}, k=10)
    with pytest.raises(ValueError):
        discretize_topk({0: 0.5}, k=10, tau=0.0)


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
    r = ScriptedReasoner(chain_graph, epsilon=0.01)
    cands = _cands(chain_graph, [
        ([Triple(0, 0, 1)], 0.6, 1.0),   # terminal b, mass 0.6
        ([Triple(0, 2, 2)], 0.4, 0.5),   # terminal c, mass 0.2
    ])
    expected = math.log((0.6 + 0.01) / (0.8 + 0.01 * 2))
    assert r.log_prob("q", cands, "b") == pytest.approx(expected)
    # unseen answer only contributes epsilon
    expected_d = math.log(0.01 / (0.8 + 0.01 * 3))
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


def test_external_reasoner_env_url(monkeypatch, chain_graph):
    monkeypatch.delenv("KGPATHS_REASONER_URL", raising=False)
    with pytest.raises(ValueError):
        ExternalReasoner(chain_graph)


# --- run_loop --------------------------------------------------------------------


def test_run_loop_argo_trace_structure(tmp_path):
    fx = argo_fixture()
    reasoner = ScriptedReasoner(fx.graph, conf_threshold=0.4, probes=fx.probes)
    seeds = [SeedCandidate(fx.graph.entity_id("Argo"), 1.0)]
    trace = io.StringIO()
    result = run_loop(ARGO_QUESTION, seeds, fx.graph, fx.config, reasoner,
                      fx.embeddings, trace_file=trace)
    assert result.answer == "New_York_City"
    assert len(result.rounds) == 2
    assert result.reasoner_calls == 2
    assert result.edits_applied == 1
    lines = [json.loads(l) for l in trace.getvalue().splitlines()]
    assert [l["round"] for l in lines] == [0, 1]
    assert lines[0]["answer"] == "Boston"
    assert lines[0]["edits"] == \
        ["RefuteTriple(Boston, host_event, 1976_Summer_Olympics)"]
    assert lines[1]["edits"] == []
    assert result.trace_jsonl() == trace.getvalue().rstrip("\n")
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
