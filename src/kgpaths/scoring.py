"""Candidate scoring, Gumbel soft selection, verifier gating, and
injection coefficients.

The default scorer is the path score itself; the default verifier is a
semantic-match heuristic hard-gated by episode refutations. Both defaults
read the episode's ``ScoreTable``, so a path scored during enumeration is
not scored again in the round, and a path matched against the query in an
earlier round is not matched again. Both are pluggable, with file-loadable
linear models as the trained option. A plugin is called as
``scorer(path, table)`` or ``verifier(path, table)`` with that same table,
so its edge costs and semantic match are the ones already computed.
Whatever it raises, or a value that is not finite, fails the episode.

The soft weights and injection coefficients are plain Python on the few
values a round has, with the bits of the numpy formulas they replaced:
every sum is ``embeddings.add_reduce``, numpy's summation order, and
every sum-to-one is ``normalise``. The Gumbel noise's logarithms and the
softmax's exponentials stay numpy's array calls, as ``math.log`` and
``math.exp`` round some values differently.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .embeddings import add_reduce, running_sum
from .errors import EmptySelectionError, KgError, ParseError
from .graph import Triple, read_keyed, sigmoid
from .paths import Path
from .weights import DEFAULT_TAU, ScoreTable
from .weights import path_score  # noqa: F401  perfbench/tracing.py wraps it here


@dataclass
class ScoredCandidate:
    path: Path
    u: float = 0.0
    soft_weight: float = 0.0
    verifier: float = 0.0
    injection: float = 0.0
    adjusted_injection: float = 0.0


@dataclass(frozen=True)
class GumbelConfig:
    temperature: float = DEFAULT_TAU
    rng_seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature (tau) must be finite and > 0")


def _path_features(path: Path, table: ScoreTable) -> dict[str, float]:
    return {
        "bias": 1.0,
        "length": float(len(path)),
        "cost": running_sum(table[e] for e in path.edges),
        "sem": table.sem(path),
    }


def _load_weight_tsv(source) -> dict[str, float]:
    weights: dict[str, float] = {}
    for lineno, (name, weight) in read_keyed(source, "feature", "weight"):
        try:
            weights[name] = float(weight)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if not math.isfinite(weights[name]):
            raise ParseError(f"non-finite weight {weight!r}", lineno)
    return weights


class LinearScorer:
    """u = w . features(path); weights from a feature->weight TSV."""

    def __init__(self, weights: dict[str, float]):
        self.weights = dict(weights)

    @classmethod
    def load(cls, source) -> "LinearScorer":
        return cls(_load_weight_tsv(source))

    def __call__(self, path: Path, table: ScoreTable) -> float:
        feats = _path_features(path, table)
        return running_sum(w * feats.get(name, 0.0)
                           for name, w in self.weights.items())


class LinearVerifier(LinearScorer):
    """v = sigmoid(w . features(path)); same TSV format as LinearScorer."""

    def __call__(self, path: Path, table: ScoreTable) -> float:
        return sigmoid(super().__call__(path, table))


def _call_plugin(kind: str, plugin, path: Path, table: ScoreTable) -> float:
    """``plugin(path, table)`` as a float; whatever it raises, and a value
    that is not finite, is a ``KgError`` naming ``kind`` and the path."""
    try:
        value = float(plugin(path, table))
    except Exception as exc:
        raise KgError(f"{kind} failed on {path!r}: {exc}") from exc
    if not math.isfinite(value):
        raise KgError(f"{kind} returned non-finite {value} for {path!r}")
    return value


def score_candidates(
    paths: list[Path],
    table: ScoreTable,
    scorer=None,
) -> list[ScoredCandidate]:
    """Fill the scorer output u for every candidate (default: path score)."""
    if not paths:
        raise ValueError("paths must be nonempty")
    out = []
    for path in paths:
        u = (table.score(path) if scorer is None
             else _call_plugin("scorer", scorer, path, table))
        if not math.isfinite(u):
            raise KgError(f"scorer produced non-finite u for {path!r}")
        out.append(ScoredCandidate(path=path, u=u))
    return out


def gumbel_uniforms(rng: random.Random, n: int) -> list[float]:
    """``n`` draws of ``rng``, clamped so that ``log(-log(u))`` is finite."""
    return [min(max(rng.random(), 1e-300), 1.0 - 1e-16) for _ in range(n)]


def normalise(values: list[float]) -> list[float]:
    """Divide by the ``add_reduce`` total; all equal when it is not > 0."""
    total = add_reduce(values)
    if total > 0:
        return [v / total for v in values]
    return [1.0 / len(values)] * len(values)


def gumbel_soft_weights(
    candidates: list[ScoredCandidate], config: GumbelConfig
) -> list[ScoredCandidate]:
    """Soft selection weights: softmax((u + g) / tau) over the candidate set.

    g ~ Gumbel(0,1) sampled as -ln(-ln(U)); the deterministic flag forces
    g = 0, reducing to a plain softmax(u / tau).
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if config.deterministic:
        g = [0.0] * len(candidates)
    else:
        uniforms = gumbel_uniforms(random.Random(config.rng_seed),
                                   len(candidates))
        g = (-np.log(-np.log(np.array(uniforms)))).tolist()
    z = [(c.u + gi) / config.temperature for c, gi in zip(candidates, g)]
    peak = max(z)  # shift invariance keeps the exp stable
    w = np.exp(np.array([zi - peak for zi in z])).tolist()
    total = add_reduce(w)
    for c, weight in zip(candidates, w):
        c.soft_weight = weight / total
    return candidates


def verify(
    path: Path,
    table: ScoreTable,
    refuted: set[Triple] = frozenset(),
    verifier=None,
) -> float:
    """Path utility in [0, 1].

    The default heuristic maps semantic match into [0, 1]. Episode
    refutations hard-gate to 0: either a refuted edge lies on the path, or
    the path terminates at the subject entity of a refuted fact (the
    refutation then concerns the candidate answer itself).
    """
    if refuted and (any(e in refuted for e in path.edges)
                    or path.terminal in {t.head for t in refuted}):
        return 0.0
    if verifier is not None:
        return min(max(_call_plugin("verifier", verifier, path, table), 0.0),
                   1.0)
    return min(max((table.sem(path) + 1.0) / 2.0, 0.0), 1.0)


def select_and_inject(
    candidates: list[ScoredCandidate],
    top_k: int = 8,
    threshold: float = 0.0,
    seed_confidence: dict[int, float] | None = None,
    rho: float = 1.0,
) -> list[ScoredCandidate]:
    """Select candidates by gated weight and assign injection coefficients.

    Selection keeps candidates with soft_weight * verifier >= threshold,
    truncated to ``top_k`` by that product. Injection coefficients are the
    products renormalized to sum 1, then attenuated per entity-link
    confidence (non-seed entities count as 1.0) and renormalized again.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not 0 <= rho < math.inf:
        raise ValueError("rho must be finite and >= 0")
    gated = [(c.soft_weight * c.verifier, c) for c in candidates]
    passing = [(g, c) for g, c in gated if g >= threshold]
    passing.sort(key=lambda gc: (-gc[0], gc[1].path.nodes, gc[1].path.relations))
    kept = passing[:top_k]
    if not kept:
        raise EmptySelectionError("no candidate passed the selection gate")

    selected = [c for _, c in kept]
    alphas = normalise([g for g, _ in kept])
    conf = seed_confidence or {}
    adjusted = normalise([
        a * math.prod(conf.get(node, 1.0) ** rho for node in c.path.nodes)
        for a, c in zip(alphas, selected)
    ])
    for c, a, aa in zip(selected, alphas, adjusted):
        c.injection = a
        c.adjusted_injection = aa
    return selected
