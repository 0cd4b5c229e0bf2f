"""Run configuration: every tunable with its default, checked when a
``RunConfig`` is built (so every instance is valid), flat ``key = value``
config-file parsing, and the string overrides of the CLI's ``--set``."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .graph import read_lines
from .pathenum import EnumerationBudget
from .scoring import GumbelConfig
from .weights import WeightCoefficients


@dataclass(frozen=True)
class RunConfig:
    # edge/path weighting
    alpha: float = 0.4
    beta: float = 0.4
    gamma: float = 0.2
    lambda_sem: float = 0.70
    # enumeration budget
    L: int = 4
    K: int = 200
    beam: int = 32
    walks: int = 100
    restart: float = 0.15
    pair_mode: bool = False
    # soft selection
    tau: float = 0.2
    select_top_k: int = 8
    select_threshold: float = 0.0
    rho: float = 1.0
    # retrieval loop
    rounds: int = 3
    conf_threshold: float = 0.7
    edit_budget: int = 4
    radius: int = 2
    knn: int = 0
    # soft-to-discrete updates
    mask_gain: float = 4.0
    mask_uncertainty_gain: float = 0.0
    # execution
    seed: int = 0
    deterministic: bool = True
    add_inverse: bool = False
    include_timings: bool = False
    embed_dim: int = 64
    # ablations
    no_verifier: bool = False

    def __post_init__(self):
        """Check every value once, so an invalid config cannot be built
        (``dataclasses.replace`` runs this too): first each value's type
        against its field's, then the weighting, budget and Gumbel values
        by building the objects that own them, the rest here."""
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, _TYPES[kind]) or (
                    kind != "bool" and isinstance(value, bool)):
                raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, "
                                  f"not {value!r}")
        try:
            self.coefficients()
            self.budget()
            GumbelConfig(temperature=self.tau)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        checks = [
            (self.select_top_k >= 1, "select_top_k must be >= 1"),
            (math.isfinite(self.select_threshold),
             "select_threshold must be finite"),
            (0 <= self.rho < math.inf, "rho must be finite and >= 0"),
            (self.rounds >= 1, "rounds must be >= 1"),
            (0.0 < self.conf_threshold <= 1.0,
             "conf_threshold must lie in (0, 1]"),
            (self.edit_budget >= 0, "edit_budget must be >= 0"),
            (self.radius >= 1, "radius must be >= 1"),
            (self.knn >= 0, "knn must be >= 0"),
            # beyond 36, a mask value's sigmoid rounds to 1.0 (which
            # discretize_topk refuses) or overflows math.exp
            (abs(self.mask_gain) + abs(self.mask_uncertainty_gain) <= 36,
             "|mask_gain| + |mask_uncertainty_gain| must be <= 36"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    # -- derived views ---------------------------------------------------

    def coefficients(self) -> WeightCoefficients:
        return WeightCoefficients(
            alpha=self.alpha, beta=self.beta, gamma=self.gamma,
            lambda_sem=self.lambda_sem,
        )

    def budget(self) -> EnumerationBudget:
        return EnumerationBudget(
            max_length=self.L, max_candidates=self.K, beam_size=self.beam,
            walks=self.walks, restart_prob=self.restart,
        )

    def with_overrides(self, **overrides) -> "RunConfig":
        return replace(self, **_coerce(overrides))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# what each field type takes; a bool is an int to ``isinstance``, so
# ``__post_init__`` refuses one outside the bool fields
_TYPES = {"int": int, "float": (int, float), "bool": bool}
_TYPE_NAMES = {"int": "an int", "float": "an int or a float", "bool": "a bool"}


def _coerce(raw: dict) -> dict:
    coerced = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key!r}")
        if not isinstance(value, str):
            coerced[key] = value
            continue
        kind = _FIELD_TYPES[key]
        try:
            if kind == "bool":
                lowered = value.strip().lower()
                if lowered not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(value)
                coerced[key] = lowered in ("true", "1", "yes")
            elif kind == "int":
                coerced[key] = int(value)
            elif kind == "float":
                coerced[key] = float(value)
            else:
                coerced[key] = value
        except ValueError:
            raise ConfigError(f"bad value for {key}: {value!r}") from None
    return coerced


def load_config(source) -> RunConfig:
    """Parse a flat ``key = value`` text file into a RunConfig; a key set
    on two lines is a ``ConfigError`` naming both."""
    raw: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, line in read_lines(source):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        earlier = first.setdefault(key, lineno)
        if earlier != lineno:
            raise ConfigError(f"line {lineno}: {key} repeats line {earlier}")
        raw[key] = value.strip()
    return RunConfig(**_coerce(raw))
