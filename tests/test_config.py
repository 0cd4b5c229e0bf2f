import pytest

from kgpaths.config import RunConfig
from kgpaths.errors import ConfigError


@pytest.mark.parametrize("key, value", [
    ("alpha", -0.1), ("beta", -1.0), ("gamma", -0.5), ("lambda_sem", -0.7),
    ("struct_mode", "bogus"), ("L", 0), ("K", 0), ("beam", 0), ("walks", -1),
    ("restart", 0.0), ("restart", 1.0), ("tau", 0.0), ("select_top_k", 0),
    ("rho", -1.0), ("rounds", 0), ("conf_threshold", 0.0),
    ("conf_threshold", 1.5), ("edit_budget", -1), ("radius", 0), ("knn", -1),
    ("discretize_tau", 0.0), ("jobs", 0), ("embed_dim", 0),
])
def test_validate_rejects_each_bad_value_as_config_error(key, value):
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        RunConfig().with_overrides(**{key: value})


def test_validate_accepts_defaults_and_edges():
    assert RunConfig().validate() == RunConfig()
    RunConfig(alpha=0.0, beta=0.0, gamma=0.0, lambda_sem=0.0, walks=0,
              conf_threshold=1.0, edit_budget=0, knn=0, rho=0.0).validate()
