import io
import math

import numpy as np
import pytest

from kgpaths.embeddings import FileEmbeddings, HashEmbeddings
from kgpaths.errors import EmptySelectionError, KgError
from kgpaths.graph import Triple
from kgpaths.paths import Path
from kgpaths.scoring import (
    GumbelConfig,
    LinearScorer,
    LinearVerifier,
    gumbel_soft_weights,
    score_candidates,
    select_and_inject,
    verify,
)
from kgpaths.weights import ScoreTable, WeightCoefficients, path_score

from conftest import build_graph, full_subgraph

EMB = HashEmbeddings(dimension=8, seed=0)
COEFFS = WeightCoefficients()


def star_paths(n):
    g = build_graph([("s", "r", f"t{i}") for i in range(n)])
    paths = [Path([Triple(0, 0, i + 1)]) for i in range(n)]
    return g, paths


def table_for(graph, q, emb=EMB):
    return ScoreTable(full_subgraph(graph), COEFFS, emb, q)


def test_score_candidates_default_is_path_score(chain_graph):
    sub = full_subgraph(chain_graph)
    q = EMB.embed("q")
    paths = [Path([Triple(0, 0, 1)]), Path([Triple(0, 0, 1), Triple(1, 1, 2)])]
    cands = score_candidates(paths, ScoreTable(sub, COEFFS, EMB, q))
    for c in cands:
        assert c.u == path_score(c.path, q, COEFFS, EMB, chain_graph, sub)


def test_score_candidates_plugin_and_errors(chain_graph):
    sub = full_subgraph(chain_graph)
    q = EMB.embed("q")
    table = ScoreTable(sub, COEFFS, EMB, q)
    paths = [Path([Triple(0, 0, 1)])]
    seen = []

    def scorer(*args):
        seen.append(args)
        return 3.5

    cands = score_candidates(paths, table, scorer=scorer)
    assert cands[0].u == 3.5
    # a plugin is called with the path and the round's table
    assert seen == [(paths[0], table)]
    with pytest.raises(KgError, match="scorer failed"):
        score_candidates(paths, table, scorer=lambda *a, **k: 1 / 0)
    with pytest.raises(KgError, match="non-finite"):
        score_candidates(paths, table, scorer=lambda *a, **k: float("nan"))
    with pytest.raises(ValueError):
        score_candidates([], table)


def test_linear_scorer_and_verifier_from_tsv(chain_graph):
    table = table_for(chain_graph, EMB.embed("q"))
    scorer = LinearScorer.load(io.StringIO("bias\t2.0\nlength\t-1.0\n"))
    p = Path([Triple(0, 0, 1)])
    assert scorer(p, table) == pytest.approx(1.0)
    verifier = LinearVerifier.load(io.StringIO("bias\t0.0\n"))
    assert verifier(p, table) == pytest.approx(0.5)


def _weights_for(us, config):
    g, paths = star_paths(len(us))
    cands = score_candidates(paths, table_for(g, EMB.embed("q")),
                             scorer=lambda p, *a, **k: us[p.terminal - 1])
    gumbel_soft_weights(cands, config)
    return np.array([c.soft_weight for c in cands])


def test_gumbel_deterministic_equals_softmax():
    us = [0.3, -1.2, 2.0, 0.0]
    w = _weights_for(us, GumbelConfig(temperature=0.5, deterministic=True))
    z = np.array(us) / 0.5
    expected = np.exp(z - z.max())
    expected /= expected.sum()
    assert np.allclose(w, expected, atol=1e-12)


def test_gumbel_sampled_reproducible_and_normalized():
    us = [0.1, 0.5, -0.4]
    a = _weights_for(us, GumbelConfig(temperature=0.2, rng_seed=9))
    b = _weights_for(us, GumbelConfig(temperature=0.2, rng_seed=9))
    c = _weights_for(us, GumbelConfig(temperature=0.2, rng_seed=10))
    assert np.allclose(a, b)
    assert not np.allclose(a, c)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_gumbel_temperature_validation():
    with pytest.raises(ValueError):
        GumbelConfig(temperature=0.0)


def test_verify_default_maps_sem_to_unit_interval():
    g = build_graph([("a", "r", "b")])
    emb = FileEmbeddings({l: np.array([1.0, 0.0]) for l in ("a", "b", "r")})
    p = Path([Triple(0, 0, 1)])
    assert verify(p, table_for(g, emb.embed("a"), emb)) == pytest.approx(1.0)
    assert verify(p, table_for(g, np.array([-1.0, 0.0]), emb)) \
        == pytest.approx(0.0)
    assert verify(p, table_for(g, np.array([0.0, 1.0]), emb)) \
        == pytest.approx(0.5)


def test_verify_hard_gates_on_refutation():
    g = build_graph([("a", "r", "b"), ("b", "r", "c")])
    emb = FileEmbeddings({l: np.array([1.0, 0.0]) for l in ("a", "b", "c", "r")})
    table = table_for(g, emb.embed("a"), emb)
    p = Path([Triple(0, 0, 1)])
    # refuted edge on the path
    assert verify(p, table, refuted={Triple(0, 0, 1)}) == 0.0
    # path terminating at the subject of a refuted fact
    assert verify(p, table, refuted={Triple(1, 0, 2)}) == 0.0
    # unrelated refutation leaves the heuristic value intact
    assert verify(p, table, refuted={Triple(2, 0, 0)}) == pytest.approx(1.0)


def test_verify_plugin_is_clamped():
    g = build_graph([("a", "r", "b")])
    emb = FileEmbeddings({l: np.array([1.0, 0.0]) for l in ("a", "b", "r")})
    p = Path([Triple(0, 0, 1)])
    assert verify(p, table_for(g, emb.embed("a"), emb),
                  verifier=lambda *a, **k: 7.0) == 1.0


def select(us, vs, **kwargs):
    g, paths = star_paths(len(us))
    cands = score_candidates(paths, table_for(g, EMB.embed("q")),
                             scorer=lambda p, *a, **k: us[p.terminal - 1])
    gumbel_soft_weights(cands, GumbelConfig(temperature=1.0, deterministic=True))
    for c, v in zip(cands, vs):
        c.verifier = v
    return select_and_inject(cands, **kwargs), cands


def test_select_and_inject_gating_and_normalization():
    selected, _ = select([1.0, 0.0, -1.0], [1.0, 1.0, 1.0], top_k=2)
    assert len(selected) == 2
    assert sum(c.injection for c in selected) == pytest.approx(1.0)
    assert selected[0].injection > selected[1].injection


def test_select_threshold_filters():
    with pytest.raises(EmptySelectionError):
        select([0.0, 0.0], [0.0, 0.0], top_k=2, threshold=0.5)
    selected, _ = select([5.0, 0.0], [1.0, 1.0], top_k=2, threshold=0.5)
    assert len(selected) == 1


def test_seed_confidence_attenuation():
    # two candidates with equal weight; path through node 1 attenuated
    selected, _ = select([0.0, 0.0], [1.0, 1.0], top_k=2,
                         seed_confidence={1: 0.25}, rho=1.0)
    a = {c.path.terminal: c.adjusted_injection for c in selected}
    assert a[2] == pytest.approx(0.8)   # 0.5 vs 0.5*0.25, renormalized
    assert a[1] == pytest.approx(0.2)
    # rho = 0 disables attenuation
    selected, _ = select([0.0, 0.0], [1.0, 1.0], top_k=2,
                         seed_confidence={1: 0.25}, rho=0.0)
    a = {c.path.terminal: c.adjusted_injection for c in selected}
    assert a[1] == pytest.approx(0.5)


def test_select_validation():
    with pytest.raises(ValueError):
        select([0.0], [1.0], top_k=0)
    for rho in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho must be finite and >= 0"):
            select([0.0], [1.0], rho=rho)
