"""Path latents, soft context mixtures, standalone cross-attention, and
injection-utilization diagnostics.

Keys/values are one row per selected path with identity projections; the
diagnostics also accept attention matrices ingested from a JSON file for
offline analysis of external model runs.

The attention matrix's checks, the per-path attention masses and the
alignment loss are plain Python on a handful of values, with the bits of
the numpy formulas they replaced: every sum is ``embeddings.add_reduce``,
numpy's summation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import add_reduce, running_sum
from .errors import CapabilityError, ParseError
from .graph import json_value, open_text
from .paths import Path
from .weights import ScoreTable


@dataclass(frozen=True)
class PathLatent:
    vector: np.ndarray
    path_id: int


@dataclass(frozen=True)
class ContextMixture:
    z_ctx: np.ndarray
    key_index: dict[int, tuple[int, ...]]  # path_id -> key column positions


class AttentionMatrix:
    """Row-stochastic attention from output tokens to injected keys."""

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or 0 in rows.shape:
            raise ValueError("attention must be a nonempty 2-D matrix")
        table = rows.tolist()
        # np.allclose(rows.sum(axis=1), 1.0, atol=1e-6) in scalar
        # arithmetic: each row's sum within atol + rtol * |1.0| (rtol its
        # default), false for NaN and +-inf
        if not all(abs(add_reduce(row) - 1.0) <= 1e-6 + 1e-5 * 1.0
                   for row in table):
            raise ValueError("attention rows must sum to 1")
        # a NaN or an infinity already failed its row's sum
        if not all(-1e-12 <= v <= 1.0 + 1e-12 for row in table for v in row):
            raise ValueError("attention entries must lie in [0, 1]")
        self.rows = rows

    @property
    def num_tokens(self) -> int:
        return self.rows.shape[0]


def load_attention_json(source) -> AttentionMatrix:
    """Ingest ``{"tokens": T, "keys": M, "rows": [[...]]}``: T and M
    integers, ``rows`` a T x M matrix that ``AttentionMatrix`` accepts.
    Any other file raises ``ParseError``."""
    with open_text(source) as lines:
        text = "".join(lines)
    try:
        payload = json.loads(text)
        shape = tuple(json_value(payload[k], int, k)
                      for k in ("tokens", "keys"))
        rows = np.asarray(payload["rows"], dtype=float)
        if rows.shape != shape:
            raise ValueError(f"shape {rows.shape} disagrees with declared "
                             f"{shape}")
        return AttentionMatrix(rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"attention: {type(exc).__name__}: {exc}") from None


def encode_path(path: Path, table: ScoreTable, path_id: int = 0) -> PathLatent:
    """Path latent: the pooled vector (normalized mean over node and relation
    embeddings) that the episode's ``ScoreTable`` already holds for
    scoring."""
    return PathLatent(vector=table.vector(path), path_id=path_id)


def context_mixture(selected: list[tuple[PathLatent, float]]) -> ContextMixture:
    """Coefficient-weighted mixture of path latents (coefficients sum to 1)."""
    if not selected:
        raise ValueError("cannot mix an empty selection")
    total = running_sum(coeff for _, coeff in selected)
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"mixture coefficients sum to {total}, expected 1")
    z = np.zeros_like(selected[0][0].vector, dtype=float)
    for latent, coeff in selected:
        z = z + coeff * latent.vector
    key_index = {latent.path_id: (i,) for i, (latent, _) in enumerate(selected)}
    return ContextMixture(z_ctx=z, key_index=key_index)


def cross_attention(
    queries: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, AttentionMatrix]:
    """Scaled dot-product attention: softmax(QK^T / sqrt(d)) V."""
    queries = np.asarray(queries, dtype=float)
    keys = np.asarray(keys, dtype=float)
    values = np.asarray(values, dtype=float)
    if keys.shape[0] == 0:
        raise ValueError("attention requires at least one key")
    if queries.ndim != 2 or keys.ndim != 2 or values.ndim != 2:
        raise ValueError("queries, keys, values must be 2-D")
    if queries.shape[1] != keys.shape[1]:
        raise ValueError("query/key dimension mismatch")
    if keys.shape[0] != values.shape[0]:
        raise ValueError("key/value row count mismatch")
    d = queries.shape[1]
    logits = queries @ keys.T / math.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ values, AttentionMatrix(weights)


def attention_mass(
    attention: AttentionMatrix,
    key_index: dict[int, tuple[int, ...]],
    path_id: int,
) -> float:
    """Mean attention output tokens place on the keys owned by one path."""
    if path_id not in key_index:
        raise KeyError(f"unknown path_id {path_id}")
    return attention_masses(attention, {path_id: key_index[path_id]})[path_id]


def attention_masses(
    attention: AttentionMatrix,
    key_index: dict[int, tuple[int, ...]],
) -> dict[int, float]:
    """``attention_mass`` of every path in ``key_index``, in one pass over
    the columns: the bits of ``rows[:, cols].sum() / num_tokens``. numpy
    lays ``rows[:, cols]`` out column by column and sums it in that order,
    so each path's entries are summed so, by ``add_reduce``. A column
    outside the matrix raises ``IndexError``."""
    columns = attention.rows.T.tolist()
    n_tok = attention.num_tokens
    return {p: add_reduce([v for c in cols for v in columns[c]]) / n_tok
            for p, cols in key_index.items()}


def alignment_loss(alphas: dict[int, float], masses: dict[int, float]) -> float:
    """Mean squared difference between injection coefficients and attention
    masses over the selected path set: ``np.mean`` of the squares, as
    ``add_reduce`` over the count."""
    if set(alphas) != set(masses):
        raise ValueError("alpha and mass path sets differ")
    if not alphas:
        raise ValueError("empty path set")
    squares = [(alphas[p] - masses[p]) ** 2 for p in alphas]
    return add_reduce(squares) / len(squares)


def causal_effect(reasoner, question: str, selected, path) -> float:
    """Answer log-probability drop when ``path``, one of the ``selected``
    candidates (by identity), is ablated from the selection, by the
    reasoner's ``answer_for`` and ``log_prob``. A reasoner without either
    raises ``CapabilityError``, and a ``path`` that is not one of
    ``selected`` ``ValueError``."""
    if not all(hasattr(reasoner, m) for m in ("answer_for", "log_prob")):
        raise CapabilityError("reasoner lacks answer_for or log_prob")
    if not any(c is path for c in selected):
        raise ValueError(f"path {path!r} is not one of the selected "
                         "candidates")
    answer = reasoner.answer_for(question, selected)
    full = reasoner.log_prob(question, selected, answer)
    reduced = [c for c in selected if c is not path]
    ablated = reasoner.log_prob(question, reduced, answer)
    return full - ablated
