"""Path latents, soft context mixtures, standalone cross-attention, and
injection-utilization diagnostics.

Keys/values are one row per selected path with identity projections; the
diagnostics also accept attention matrices ingested from a JSON file for
offline analysis of external model runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, KgError
from .graph import open_text
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
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValueError("attention must be a nonempty 2-D matrix")
        sums = rows.sum(axis=1)
        # np.allclose(sums, 1.0, atol=1e-6) without its wrappers: within
        # atol + rtol * |1.0| (rtol its default), false for NaN and +-inf
        if not (np.abs(sums - 1.0) <= 1e-6 + 1e-5 * 1.0).all():
            raise ValueError("attention rows must sum to 1")
        if rows.min() < -1e-12 or rows.max() > 1.0 + 1e-12:
            raise ValueError("attention entries must lie in [0, 1]")
        self.rows = rows

    @property
    def num_tokens(self) -> int:
        return self.rows.shape[0]


def load_attention_json(source) -> AttentionMatrix:
    """Ingest ``{"tokens": T, "keys": M, "rows": [[...]]}``."""
    with open_text(source) as fh:
        payload = json.load(fh)
    rows = np.asarray(payload["rows"], dtype=float)
    if rows.shape != (payload["tokens"], payload["keys"]):
        raise KgError(
            f"attention shape {rows.shape} disagrees with declared "
            f"({payload['tokens']}, {payload['keys']})"
        )
    return AttentionMatrix(rows)


def encode_path(path: Path, table: ScoreTable, path_id: int = 0) -> PathLatent:
    """Path latent: the pooled vector (normalized mean over node and relation
    embeddings) that the episode's ``ScoreTable`` already holds for
    scoring."""
    return PathLatent(vector=table.vector(path), path_id=path_id)


def context_mixture(selected: list[tuple[PathLatent, float]]) -> ContextMixture:
    """Coefficient-weighted mixture of path latents (coefficients sum to 1)."""
    if not selected:
        raise ValueError("cannot mix an empty selection")
    total = sum(coeff for _, coeff in selected)
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
    cols = list(key_index[path_id])
    return float(attention.rows[:, cols].sum() / attention.num_tokens)


def alignment_loss(alphas: dict[int, float], masses: dict[int, float]) -> float:
    """Mean squared difference between injection coefficients and attention
    masses over the selected path set."""
    if set(alphas) != set(masses):
        raise ValueError("alpha and mass path sets differ")
    if not alphas:
        raise ValueError("empty path set")
    return float(
        np.mean([(alphas[p] - masses[p]) ** 2 for p in alphas])
    )


def causal_effect(reasoner, question: str, selected, path) -> float:
    """Answer log-probability drop when one path is ablated from the
    selection, by the reasoner's ``answer_for`` and ``log_prob``; a
    reasoner without ``log_prob`` raises ``CapabilityError``."""
    if not hasattr(reasoner, "log_prob"):
        raise CapabilityError("reasoner does not expose log-probabilities")
    answer = reasoner.answer_for(question, selected)
    full = reasoner.log_prob(question, selected, answer)
    reduced = [c for c in selected if c is not path]
    ablated = reasoner.log_prob(question, reduced, answer)
    return full - ablated
