"""The per-round scalar forms against the numpy formulas they replace.

Each oracle below is the numpy code the scalar form replaced, kept here as
the bit-for-bit reference; every comparison is ``==`` on the bits (with
the sign of zero), not a tolerance. Lengths reach 12, so numpy's
eight-accumulator summation runs. The ``add_reduce`` test is the guard
that numpy has not changed its summation order: it runs on every numpy
the CI matrix installs, the pyproject floor included.
"""

import math
import random
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpaths.embeddings import add_reduce, running_sum
from kgpaths.graph import (
    CONFIRM_MULTIPLIER,
    REFUTE_MULTIPLIER,
    Triple,
    sigmoid,
)
from kgpaths.injection import (
    AttentionMatrix,
    alignment_loss,
    attention_mass,
    attention_masses,
)
from kgpaths.loop import ScriptedReasoner
from kgpaths.paths import Path
from kgpaths.scoring import (
    GumbelConfig,
    ScoredCandidate,
    gumbel_soft_weights,
    gumbel_uniforms,
    normalise,
    select_and_inject,
)

from conftest import build_graph


def same_bits(a: float, b: float) -> bool:
    """Equal, with the same sign of zero; any NaN equals any NaN."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def all_same_bits(xs, ys) -> bool:
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(map(same_bits, xs, ys))


# --- the sum helper ----------------------------------------------------------

_VALUE = st.one_of(
    st.floats(),  # NaN, +-inf, subnormals and +-0.0 among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-300, -1e-300, 1e300, -1e300]),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.floats(-1.0, 1.0),
)
_LENGTH = st.one_of(
    st.integers(0, 300),
    st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137,
                     256, 257, 300]),
)


@settings(max_examples=400, deadline=None)
@given(_LENGTH.flatmap(lambda n: st.lists(_VALUE, min_size=n, max_size=n)))
def test_add_reduce_matches_numpy(values):
    with np.errstate(all="ignore"):
        expected = float(np.add.reduce(np.array(values, dtype=float)))
    assert same_bits(add_reduce(values), expected)


def test_add_reduce_matches_numpy_around_each_boundary():
    """Values of one magnitude and both signs round differently in almost
    any other order, so a wrong split or accumulator count shows."""
    rng = random.Random(0)
    for n in (*range(20), 63, 64, 127, 128, 129, 130, 136, 137, 150, 255,
              256, 257, 300, 1000):
        for _ in range(50):
            values = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            assert same_bits(add_reduce(values),
                             float(np.add.reduce(np.array(values, dtype=float))))


def test_add_reduce_sums_zeros_to_positive_zero():
    for n in (1, 7, 8, 128, 129):
        assert same_bits(add_reduce([-0.0] * n), 0.0)
        assert same_bits(add_reduce([-0.0] * n),
                         float(np.add.reduce(np.full(n, -0.0))))


# --- oracles: the numpy formulas the scalar forms replaced -------------------


def gumbel_oracle(us, config):
    u = np.array(us, dtype=float)
    if config.deterministic:
        g = np.zeros_like(u)
    else:
        rng = random.Random(config.rng_seed)
        uniforms = np.array([rng.random() for _ in us])
        uniforms = np.clip(uniforms, 1e-300, 1.0 - 1e-16)
        g = -np.log(-np.log(uniforms))
    z = (u + g) / config.temperature
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return [float(x) for x in w]


def injection_oracle(selected, seed_confidence, rho):
    raw = np.array([c.soft_weight * c.verifier for c in selected], dtype=float)
    total = raw.sum()
    alphas = (raw / total if total > 0
              else np.full(len(selected), 1.0 / len(selected)))
    conf = seed_confidence or {}
    adjusted = np.array([
        a * math.prod(conf.get(n, 1.0) ** rho for n in c.path.nodes)
        for a, c in zip(alphas, selected)
    ])
    total_adj = adjusted.sum()
    if total_adj > 0:
        adjusted /= total_adj
    else:
        adjusted = np.full(len(selected), 1.0 / len(selected))
    return [float(a) for a in alphas], [float(a) for a in adjusted]


def reason_rows_oracle(selected, n_tok):
    alphas = np.array([c.adjusted_injection for c in selected], dtype=float)
    if alphas.sum() <= 0:
        alphas = np.full(len(selected), 1.0 / len(selected))
    else:
        alphas = alphas / alphas.sum()
    return np.tile(alphas, (n_tok, 1))


def mass_oracle(rows, cols):
    return float(rows[:, list(cols)].sum() / rows.shape[0])


def alignment_oracle(alphas, masses):
    return float(np.mean([(alphas[p] - masses[p]) ** 2 for p in alphas]))


# --- the scalar forms --------------------------------------------------------


def star(n, words=lambda i: 1):
    """``s`` joined to ``n`` leaves; leaf ``i``'s label is ``words(i)``
    words long. Returns the graph and the one-edge path to each leaf."""
    graph = build_graph([("s", "r", " ".join([f"t{i}"] * words(i)))
                         for i in range(n)])
    return graph, [Path([Triple(0, 0, i + 1)]) for i in range(n)]


_UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1.0]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
    st.floats(0.01, 10.0),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_gumbel_soft_weights_match_the_numpy_formula(us, tau, seed,
                                                     deterministic):
    config = GumbelConfig(temperature=tau, rng_seed=seed,
                          deterministic=deterministic)
    _, paths = star(len(us))
    cands = [ScoredCandidate(p, u=u) for p, u in zip(paths, us)]
    gumbel_soft_weights(cands, config)
    assert all_same_bits((c.soft_weight for c in cands),
                         gumbel_oracle(us, config))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(_UNIT, min_size=n, max_size=n),
        st.lists(_UNIT, min_size=n, max_size=n),
        st.dictionaries(st.integers(0, n), _UNIT, max_size=4))),
    st.floats(0.0, 3.0),
)
def test_select_and_inject_matches_the_numpy_formula(drawn, rho):
    weights, verifiers, seed_confidence = drawn
    _, paths = star(len(weights))
    cands = [ScoredCandidate(p, soft_weight=w, verifier=v)
             for p, w, v in zip(paths, weights, verifiers)]
    selected = select_and_inject(cands, top_k=12,
                                 seed_confidence=seed_confidence, rho=rho)
    with np.errstate(all="ignore"):
        alphas, adjusted = injection_oracle(selected, seed_confidence, rho)
    assert all_same_bits((c.injection for c in selected), alphas)
    assert all_same_bits((c.adjusted_injection for c in selected), adjusted)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(_UNIT, min_size=n, max_size=n)))
def test_scripted_reasoner_rows_match_the_numpy_formula(alphas):
    graph, paths = star(len(alphas), words=lambda i: 1 + i % 3)
    cands = [ScoredCandidate(p, adjusted_injection=a, verifier=1.0)
             for p, a in zip(paths, alphas)]
    reply = ScriptedReasoner(graph).reason("q", cands)
    expected = reason_rows_oracle(cands, len(reply.answer.split()))
    assert reply.attention.rows.shape == expected.shape
    assert reply.attention.rows.tobytes() == expected.tobytes()


@st.composite
def attention_and_keys(draw):
    """A row-stochastic (T, M) matrix, M <= 12, and its columns split into
    paths of one or more columns each, in a drawn order."""
    t = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    raw = np.array([[draw(st.floats(0.01, 1.0)) for _ in range(m)]
                    for _ in range(t)])
    rows = raw / raw.sum(axis=1, keepdims=True)
    cols = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1))
                  if m > 1 else set())
    bounds = [0, *cuts, m]
    key_index = {p: tuple(cols[a:b])
                 for p, (a, b) in enumerate(zip(bounds, bounds[1:]))}
    return rows, key_index


@settings(max_examples=300, deadline=None)
@given(attention_and_keys())
def test_attention_masses_match_the_numpy_formula(drawn):
    rows, key_index = drawn
    att = AttentionMatrix(rows)
    masses = attention_masses(att, key_index)
    assert list(masses) == list(key_index)
    for p, cols in key_index.items():
        expected = mass_oracle(rows, cols)
        assert same_bits(masses[p], expected)
        assert same_bits(attention_mass(att, key_index, p), expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n),
    st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n))))
def test_alignment_loss_matches_the_numpy_formula(drawn):
    alphas = dict(enumerate(drawn[0]))
    masses = dict(enumerate(drawn[1]))
    with np.errstate(all="ignore"):
        expected = alignment_oracle(alphas, masses)
    assert same_bits(alignment_loss(alphas, masses), expected)


# --- the one-implementation helpers against the inline forms they replaced --


@settings(max_examples=100, deadline=None)
@given(_LENGTH.flatmap(lambda n: st.lists(_VALUE, min_size=n, max_size=n)))
def test_running_sum_is_a_left_to_right_loop(values):
    total = 0.0
    for v in values:
        total += v
    assert same_bits(running_sum(values), total)
    assert same_bits(running_sum(iter(values)), total)
    if len(values) < 8:
        assert same_bits(running_sum(values), add_reduce(values))
    if sys.version_info < (3, 12) and values:
        # from 3.12 on, builtin ``sum`` compensates float rounding
        assert same_bits(running_sum(values), sum(values))


def test_running_sum_of_nothing_or_negative_zeros_is_positive_zero():
    for n in (0, 1, 9):
        assert same_bits(running_sum([-0.0] * n), 0.0)


def select_alphas_oracle(raw):
    """The inline sum-to-one that ``select_and_inject`` wrote twice."""
    n = len(raw)
    total = add_reduce(raw)
    return [r / total for r in raw] if total > 0 else [1.0 / n] * n


def scripted_alphas_oracle(alphas):
    """The inline sum-to-one of ``ScriptedReasoner.reason``."""
    total = add_reduce(alphas)
    if total <= 0:
        return [1.0 / len(alphas)] * len(alphas)
    return [a / total for a in alphas]


_FINITE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0]))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.one_of(
    st.lists(_FINITE, min_size=n, max_size=n),  # any sign of sum
    st.lists(_FINITE, min_size=n // 2, max_size=n // 2).map(  # a zero sum
        lambda vs: [x for v in vs for x in (v, -v)] + [0.0] * (n % 2)),
    _FINITE.map(lambda v: [v] * n))))  # all equal
def test_normalise_equals_both_old_formulas(values):
    got = normalise(values)
    assert all_same_bits(got, select_alphas_oracle(values))
    assert all_same_bits(got, scripted_alphas_oracle(values))


def test_normalise_makes_a_sum_that_is_not_positive_uniform():
    for values in ([0.0, 0.0], [1.0, -1.0], [-0.5, 0.2, 0.1]):
        assert normalise(values) == [1.0 / len(values)] * len(values)
    assert normalise([1.0, 3.0]) == [0.25, 0.75]


@settings(max_examples=400, deadline=None)
@given(st.floats(-700.0, 700.0))
def test_sigmoid_equals_the_inline_formula(x):
    assert same_bits(sigmoid(x), 1.0 / (1.0 + math.exp(-x)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(max_value=-709.79, allow_nan=False),
                 st.sampled_from([-709.79, -1e300, -math.inf])))
def test_sigmoid_is_zero_where_the_exponential_overflows(x):
    assert sigmoid(x) == 0.0


def test_edit_multipliers_are_the_sigmoid_of_four():
    assert same_bits(CONFIRM_MULTIPLIER, 1.0 / (1.0 + math.exp(-4.0)))
    assert same_bits(REFUTE_MULTIPLIER, 1.0 / (1.0 + math.exp(4.0)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 50))
def test_gumbel_uniforms_equal_the_old_draws(seed, n):
    rng = random.Random(seed)
    expected = [min(max(rng.random(), 1e-300), 1.0 - 1e-16)
                for _ in range(n)]
    assert gumbel_uniforms(random.Random(seed), n) == expected
