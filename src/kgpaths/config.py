"""Run configuration: every tunable with defaults, range validation, flat
``key = value`` config-file parsing, and CLI-style overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError
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
    struct_mode: str = "uniform"
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
    discretize_tau: float = 0.2
    # execution
    seed: int = 0
    deterministic: bool = True
    jobs: int = 1
    add_inverse: bool = False
    include_timings: bool = False
    embed_dim: int = 64
    # ablations
    no_verifier: bool = False
    no_soft_injection: bool = False
    no_align_diagnostics: bool = False

    def validate(self) -> "RunConfig":
        """Check every value once: the weighting, budget and Gumbel values
        by building the objects that own them, the rest here."""
        try:
            self.coefficients()
            self.budget()
            GumbelConfig(temperature=self.tau)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        checks = [
            (self.select_top_k >= 1, "select_top_k must be >= 1"),
            (self.rho >= 0, "rho must be >= 0"),
            (self.rounds >= 1, "rounds must be >= 1"),
            (0.0 < self.conf_threshold <= 1.0,
             "conf_threshold must lie in (0, 1]"),
            (self.edit_budget >= 0, "edit_budget must be >= 0"),
            (self.radius >= 1, "radius must be >= 1"),
            (self.knn >= 0, "knn must be >= 0"),
            (self.discretize_tau > 0, "discretize_tau must be > 0"),
            (self.jobs >= 1, "jobs must be >= 1"),
            (self.embed_dim >= 1, "embed_dim must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    # -- derived views ---------------------------------------------------

    def coefficients(self) -> WeightCoefficients:
        return WeightCoefficients(
            alpha=self.alpha, beta=self.beta, gamma=self.gamma,
            lambda_sem=self.lambda_sem, struct_mode=self.struct_mode,
        )

    def budget(self) -> EnumerationBudget:
        return EnumerationBudget(
            max_length=self.L, max_candidates=self.K, beam_size=self.beam,
            walks=self.walks, restart_prob=self.restart,
        )

    def effective_top_k(self) -> int:
        return 1 if self.no_soft_injection else self.select_top_k

    def with_overrides(self, **overrides) -> "RunConfig":
        return replace(self, **_coerce(overrides)).validate()


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


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
    """Parse a flat ``key = value`` text file into a validated RunConfig."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, encoding="utf-8")
        close = True
    else:
        fh, close = source, False
    raw: dict[str, str] = {}
    try:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    finally:
        if close:
            fh.close()
    return RunConfig(**_coerce(raw)).validate()
