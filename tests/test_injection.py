import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import HashEmbeddings
from kgpaths.errors import CapabilityError, KgError, ParseError
from kgpaths.graph import Triple
from kgpaths.injection import (
    AttentionMatrix,
    alignment_loss,
    attention_mass,
    causal_effect,
    context_mixture,
    cross_attention,
    encode_path,
    load_attention_json,
)
from kgpaths.loop import ScriptedReasoner
from kgpaths.paths import Path, pool_path_vector
from kgpaths.scoring import ScoredCandidate
from kgpaths.weights import ScoreTable, WeightCoefficients

from conftest import build_graph, full_subgraph

EMB = HashEmbeddings(dimension=8, seed=0)


def table_for(graph):
    return ScoreTable(full_subgraph(graph), WeightCoefficients(), EMB)


def test_attention_matrix_validation():
    AttentionMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        AttentionMatrix(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        AttentionMatrix(np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError):
        AttentionMatrix(np.zeros((2, 0)))
    with pytest.raises(ValueError):  # no token rows
        AttentionMatrix(np.zeros((0, 2)))


_TOL = 1e-6 + 1e-5  # np.allclose's atol as passed, plus its default rtol
_ROW_SUMS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(1.0 - 3e-5, 1.0 + 3e-5),
    st.sampled_from([
        math.nan, math.inf, -math.inf, 1.0, 1.0 - _TOL, 1.0 + _TOL,
        *(math.nextafter(1.0 + sign * _TOL, toward)
          for sign in (-1, 1) for toward in (0.0, math.inf)),
    ]),
)


_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2e-12, 1.0 + 2e-12),
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-12, 1.0 + 1e-12,
        math.nextafter(-1e-12, -1.0), math.nextafter(1.0 + 1e-12, 2.0),
        -0.5, 1.5,
    ]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda width: st.lists(st.one_of(
    _ROW_SUMS.map(lambda s: [s / width] * width),
    st.lists(_ENTRIES, min_size=width, max_size=width),
), min_size=1, max_size=4)))
def test_row_sum_check_matches_allclose(rows):
    """Rows of ``width`` equal entries sum to about ``s``; other rows hold
    any entries, NaN, infinities and negatives among them. Up to 12
    columns, numpy's eight-accumulator sum runs. The matrix is accepted
    exactly when numpy's own ``allclose`` accepts the row sums and the
    entries' minimum and maximum pass numpy's range check."""
    rows = np.array(rows)
    try:
        AttentionMatrix(rows)
        accepted = True
    except ValueError:
        accepted = False
    with np.errstate(all="ignore"):
        expected = (np.allclose(rows.sum(axis=1), 1.0, atol=1e-6)
                    and not rows.min() < -1e-12
                    and not rows.max() > 1.0 + 1e-12)
    assert accepted == expected


def test_load_attention_json_shape_check():
    ok = json.dumps({"tokens": 1, "keys": 2, "rows": [[0.25, 0.75]]})
    att = load_attention_json(io.StringIO(ok))
    assert att.num_tokens == 1 and att.rows.shape == (1, 2)
    bad = json.dumps({"tokens": 2, "keys": 2, "rows": [[0.25, 0.75]]})
    with pytest.raises(KgError, match="disagrees"):
        load_attention_json(io.StringIO(bad))


@pytest.mark.parametrize("text", [
    "nope",  # not JSON
    "[1, 2]",  # not an object
    '{"tokens": 1}',  # no keys or rows
    '{"tokens": 1, "keys": 2, "rows": [[0.5, 0.4]]}',  # a row sums to 0.9
    '{"tokens": 1, "keys": 2, "rows": [[1.5, -0.5]]}',  # outside [0, 1]
    '{"tokens": 1, "keys": 2, "rows": [[0.5, "x"]]}',  # not a number
    '{"tokens": 2, "keys": 2, "rows": [[1.0], [0.5, 0.5]]}',  # ragged
    '{"tokens": 2, "keys": 2, "rows": [[0.25, 0.75]]}',  # shape disagrees
    '{"tokens": 1, "keys": 2, "rows": 0.5}',  # shape disagrees
    '{"tokens": true, "keys": 2, "rows": [[0.25, 0.75]]}',  # not an integer
])
def test_load_attention_json_raises_parse_error_for_every_malformed_file(
        text):
    with pytest.raises(ParseError, match="^attention: "):
        load_attention_json(io.StringIO(text))


def test_encode_path_matches_pooling(chain_graph):
    p = Path([Triple(0, 0, 1)])
    latent = encode_path(p, table_for(chain_graph), path_id=3)
    assert latent.path_id == 3
    assert np.array_equal(latent.vector, pool_path_vector(p, EMB, chain_graph))


def test_context_mixture_weighted_sum(chain_graph):
    p1 = Path([Triple(0, 0, 1)])
    p2 = Path([Triple(1, 1, 2)])
    table = table_for(chain_graph)
    l1, l2 = encode_path(p1, table, 0), encode_path(p2, table, 1)
    mix = context_mixture([(l1, 0.25), (l2, 0.75)])
    assert np.allclose(mix.z_ctx, 0.25 * l1.vector + 0.75 * l2.vector)
    assert mix.key_index == {0: (0,), 1: (1,)}
    with pytest.raises(ValueError):
        context_mixture([(l1, 0.5), (l2, 0.6)])
    with pytest.raises(ValueError):
        context_mixture([])


def test_cross_attention_softmax_rows():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    out, att = cross_attention(q, k, v)
    assert out.shape == (3, 4)
    assert np.allclose(att.rows.sum(axis=1), 1.0, atol=1e-9)
    # single key: attention is all ones, values returned exactly
    out1, att1 = cross_attention(q, k[:1], v[:1])
    assert np.allclose(att1.rows, 1.0)
    assert np.array_equal(out1, np.tile(v[:1], (3, 1)))


def test_cross_attention_validation():
    with pytest.raises(ValueError):
        cross_attention(np.zeros((1, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        cross_attention(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cross_attention(np.zeros((1, 3)), np.zeros((2, 3)), np.zeros((3, 3)))


def test_attention_mass_partition_sums_to_one():
    rng = np.random.default_rng(1)
    rows = rng.random((4, 6))
    rows /= rows.sum(axis=1, keepdims=True)
    att = AttentionMatrix(rows)
    key_index = {0: (0, 1), 1: (2,), 2: (3, 4, 5)}
    masses = {p: attention_mass(att, key_index, p) for p in key_index}
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(KeyError):
        attention_mass(att, key_index, 99)


def test_alignment_loss_zero_iff_equal():
    alphas = {0: 0.3, 1: 0.7}
    assert alignment_loss(alphas, dict(alphas)) == 0.0
    assert alignment_loss(alphas, {0: 0.4, 1: 0.6}) > 0.0
    with pytest.raises(ValueError):
        alignment_loss(alphas, {0: 1.0})
    with pytest.raises(ValueError):
        alignment_loss({}, {})


class _FakeReasoner:
    def answer_for(self, question, selected):
        return "a"

    def log_prob(self, question, selected, answer):
        # answer mass proportional to how many paths remain
        return math.log(len(selected) / 10 + 0.01)


def test_causal_effect_requires_capability():
    class NoLogProbs:
        pass

    with pytest.raises(CapabilityError):
        causal_effect(NoLogProbs(), "q", [], None)


def test_causal_effect_requires_answer_for():
    class NoAnswerFor:
        def log_prob(self, question, selected, answer):
            return 0.0

    candidate = ScoredCandidate(Path([Triple(0, 0, 1)]))
    with pytest.raises(CapabilityError, match="answer_for"):
        causal_effect(NoAnswerFor(), "q", [candidate], candidate)


def test_causal_effect_refuses_a_path_not_among_selected(chain_graph):
    """``path`` is one of the ``selected`` candidates, by identity: their
    ``Path``, or an equal candidate, would ablate nothing."""
    reasoner = ScriptedReasoner(chain_graph)
    ab, bc = Triple(0, 0, 1), Triple(1, 1, 2)
    selected = [ScoredCandidate(Path([ab]), adjusted_injection=0.75,
                                verifier=1.0),
                ScoredCandidate(Path([ab, bc]), adjusted_injection=0.25,
                                verifier=1.0)]
    assert causal_effect(reasoner, "q", selected, selected[0]) > 0.0
    for path in (selected[0].path, ScoredCandidate(selected[0].path)):
        with pytest.raises(ValueError, match="path"):
            causal_effect(reasoner, "q", selected, path)


def test_causal_effect_is_logprob_drop():
    paths = ["p1", "p2", "p3"]
    effect = causal_effect(_FakeReasoner(), "q", paths, "p2")
    assert effect == pytest.approx(math.log(0.31) - math.log(0.21))
