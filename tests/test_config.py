import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from kgpaths.config import RunConfig, load_config
from kgpaths.errors import ConfigError
from kgpaths.synthetic import FIXTURES


@pytest.mark.parametrize("key, value", [
    ("alpha", -0.1), ("beta", -1.0), ("gamma", -0.5), ("lambda_sem", -0.7),
    ("L", 0), ("K", 0), ("beam", 0), ("walks", -1),
    ("restart", 0.0), ("restart", 1.0), ("tau", 0.0), ("select_top_k", 0),
    ("rho", -1.0), ("rounds", 0), ("conf_threshold", 0.0),
    ("conf_threshold", 1.5), ("edit_budget", -1), ("radius", 0), ("knn", -1),
    ("embed_dim", 0), ("mask_gain", 800.0),
    ("mask_uncertainty_gain", 33.0),
    # non-finite values, each of which used to fail every episode or
    # force an EXPAND in every round without an error
    ("alpha", math.nan), ("alpha", math.inf), ("beta", math.nan),
    ("gamma", math.inf), ("lambda_sem", math.nan), ("lambda_sem", math.inf),
    ("tau", math.nan), ("tau", math.inf), ("select_threshold", math.nan),
    ("select_threshold", -math.inf), ("select_threshold", math.inf),
    ("rho", math.inf),
    # values of the wrong type: an int field takes an int, a float field an
    # int or a float, a bool field a bool, and no number field a bool
    ("rounds", 2.0), ("K", 3.5), ("select_top_k", 2.5), ("edit_budget", 1.5),
    ("knn", 0.5), ("L", 2.5), ("radius", 1.5), ("beam", 2.5), ("walks", 3.5),
    ("embed_dim", 8.0), ("seed", 1.5), ("rounds", True), ("alpha", True),
    ("tau", False), ("pair_mode", 1), ("deterministic", None),
])
def test_validate_rejects_each_bad_value_as_config_error(key, value):
    # construction, dataclasses.replace (the sweep path) and the string
    # overrides of --set all run the same check
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        replace(RunConfig(), **{key: value})
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        RunConfig().with_overrides(**{key: value})


@pytest.mark.parametrize("key, text, value", [
    ("pair_mode", "no", False), ("L", "3", 3), ("alpha", "1", 1.0),
])
def test_a_string_is_refused_unless_an_override_converts_it(key, text, value):
    # --set and config files give strings, which with_overrides converts;
    # a string given to the constructor or to replace is the wrong type
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        RunConfig(**{key: text})
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        replace(RunConfig(), **{key: text})
    assert RunConfig().with_overrides(**{key: text}) == RunConfig(
        **{key: value})


def test_struct_mode_is_an_unknown_key():
    # the structural edge cost is always 1.0; the option that chose the
    # out-degree cost instead is gone, and naming it is an error
    with pytest.raises(ConfigError, match="unknown config key: 'struct_mode'"):
        RunConfig().with_overrides(struct_mode="uniform")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(["struct_mode = uniform\n"])


def test_validate_accepts_defaults_and_edges():
    assert RunConfig().with_overrides() == RunConfig()
    RunConfig(alpha=0.0, beta=0.0, gamma=0.0, lambda_sem=0.0, walks=0,
              conf_threshold=1.0, edit_budget=0, knn=0, rho=0.0,
              mask_gain=-4.0, mask_uncertainty_gain=32.0)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_load_config_reads_back_each_fixture_config(name, tmp_path):
    fx = FIXTURES[name]()
    assert load_config(fx.write(tmp_path)["config.cfg"]) == fx.config


def test_load_config_rejects_removed_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# written by an older version\n\nrounds = 2\n"
                    "  # top-1 injection is select_top_k = 1\n"
                    "no_soft_injection = False\n\n")
    with pytest.raises(ConfigError, match=r"\bno_soft_injection\b"):
        load_config(path)
    for line in ["discretize_tau = 0.2", "no_align_diagnostics = False"]:
        key = line.split()[0]
        path.write_text(f"rounds = 2\n{line}\n")
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            load_config(path)


def test_readme_set_lines_build_a_run_config():
    # each `--set KEY=VALUE` the README gives names a field and a valid value
    readme = Path(__file__).resolve().parents[1] / "README.md"
    found = set(re.findall(r"--set (\w+)=([^\s`]+)",
                           readme.read_text(encoding="utf-8")))
    found.discard(("KEY", "VALUE"))  # the syntax, not an example
    assert len(found) >= 9
    for key, value in found:
        RunConfig().with_overrides(**{key: value})
