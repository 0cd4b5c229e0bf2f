import io
import json

import pytest

from kgpaths.config import RunConfig
from kgpaths.embeddings import HashEmbeddings
from kgpaths.errors import ParseError
from kgpaths.evaluation import (
    BenchmarkRecord,
    answer_metrics,
    average_precision,
    coverage,
    expand_grid,
    load_benchmark,
    median_mad,
    rank_metrics,
    run_benchmark,
    simplex_grid,
    sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from kgpaths.loop import ScriptedReasoner
from kgpaths.synthetic import metrics_fixture

from conftest import build_graph


def test_benchmark_record_validation():
    with pytest.raises(ValueError):
        BenchmarkRecord("q", (), frozenset({"a"}))
    with pytest.raises(ValueError):
        BenchmarkRecord("q", (("s", 1.0),), frozenset())
    with pytest.raises(ValueError):
        BenchmarkRecord("q", (("s", 1.0),), frozenset({"a"}), hops=0)


def test_load_benchmark_jsonl():
    line = json.dumps({
        "question": "q", "seeds": [{"entity": "s", "confidence": 0.8}],
        "answers": ["a"], "hops": 2,
        "gold_paths": [{"nodes": ["s", "a"], "relations": ["r"]}],
    })
    records = load_benchmark(io.StringIO(line + "\n\n"))
    assert len(records) == 1
    rec = records[0]
    assert rec.seeds == (("s", 0.8),)
    assert rec.gold_paths == ((("s", "a"), ("r",)),)
    with pytest.raises(ParseError, match="line 1"):
        load_benchmark(io.StringIO("{bad json\n"))


def test_answer_metrics():
    assert answer_metrics(["a"], {"a"}) == (1.0, 1.0)
    assert answer_metrics(["a", "b"], {"a"}) == (1.0, pytest.approx(2 / 3))
    assert answer_metrics(["b"], {"a"}) == (0.0, 0.0)
    assert answer_metrics([], {"a"}) == (0.0, 0.0)


def test_rank_metrics():
    assert rank_metrics(["x", "a"], {"a"}, 10) == (0.5, 0.5, 1.0)
    assert rank_metrics(["a"], {"a"}, 10) == (1.0, 1.0, 1.0)
    assert rank_metrics(["x", "y"], {"a"}, 10) == (0.0, 0.0, 0.0)
    # MAP penalizes unretrieved relevant items through its denominator
    assert average_precision(["a"], {"a", "b"}) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        rank_metrics(["a", "a"], {"a"}, 10)


def test_coverage_excludes_missing_gold():
    assert coverage([(("s", "a"), ("r",))], [(("s", "a"), ("r",))]) == 1.0
    assert coverage([(("s", "a"), ("r",))], [(("s", "b"), ("r",))]) == 0.0
    assert coverage([(("s", "a"), ("r",))], []) is None


def test_median_mad():
    assert median_mad([1, 2, 3, 4, 100]) == (3, 1)
    with pytest.raises(ValueError):
        median_mad([])


def test_run_benchmark_empty_is_fine():
    g = build_graph([("a", "r", "b")])
    report = run_benchmark([], g, RunConfig(), ScriptedReasoner(g),
                           HashEmbeddings(8))
    assert report["overall"]["questions"] == 0
    assert report["efficiency"] == {}


def test_run_benchmark_records_per_question_failures():
    g = build_graph([("a", "r", "b")])
    records = [BenchmarkRecord("q", (("missing_entity", 1.0),),
                               frozenset({"b"}))]
    report = run_benchmark(records, g, RunConfig(walks=0), ScriptedReasoner(g),
                           HashEmbeddings(8))
    assert report["overall"]["failures"] == 1
    assert report["per_question"][0]["failed"] == 1


def test_run_benchmark_jobs_parallel_matches_serial():
    fx = metrics_fixture()
    reasoner = ScriptedReasoner(fx.graph)
    serial = run_benchmark(fx.records, fx.graph, fx.config, reasoner,
                           fx.embeddings)
    parallel = run_benchmark(fx.records, fx.graph,
                             fx.config.with_overrides(jobs=4), reasoner,
                             fx.embeddings)
    assert serial["overall"] == parallel["overall"]
    assert serial["per_question"] == parallel["per_question"]


def test_report_timings_opt_in():
    fx = metrics_fixture()
    reasoner = ScriptedReasoner(fx.graph)
    plain = run_benchmark(fx.records[:2], fx.graph, fx.config, reasoner,
                          fx.embeddings)
    assert "timings" not in plain
    assert "latency" not in plain["per_question"][0]
    timed = run_benchmark(fx.records[:2], fx.graph,
                          fx.config.with_overrides(include_timings=True),
                          reasoner, fx.embeddings)
    assert timed["timings"]["wall_seconds"] > 0
    assert "latency" in timed["per_question"][0]


def test_report_writers(tmp_path):
    fx = metrics_fixture()
    reasoner = ScriptedReasoner(fx.graph)
    report = run_benchmark(fx.records[:3], fx.graph, fx.config, reasoner,
                           fx.embeddings)
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    write_report_json(report, jp)
    assert json.loads(jp.read_text())["overall"] == report["overall"]
    write_report_csv(report, cp)
    assert cp.read_text().count("\n") == 4  # header + 3 rows


def test_simplex_grid_counts():
    grid = simplex_grid(0.2)
    assert len(grid) == 21
    assert all(abs(sum(p) - 1.0) < 1e-9 for p in grid)
    assert (0.4, 0.4, 0.2) in grid
    with pytest.raises(ValueError):
        simplex_grid(0.3)


def test_expand_grid():
    points = expand_grid({"tau": [0.1, 0.2], "K": [10]})
    assert points == [{"K": 10, "tau": 0.1}, {"K": 10, "tau": 0.2}]
    triple = expand_grid({"alpha,beta,gamma": [(1.0, 0.0, 0.0)]})
    assert triple == [{"alpha": 1.0, "beta": 0.0, "gamma": 0.0}]
    with pytest.raises(ValueError):
        expand_grid({})


def test_sweep_single_point_matches_run_benchmark(tmp_path):
    fx = metrics_fixture()
    reasoner = ScriptedReasoner(fx.graph)
    rows = sweep(fx.records, fx.graph, fx.config, {"tau": [fx.config.tau]},
                 reasoner, fx.embeddings)
    direct = run_benchmark(fx.records, fx.graph, fx.config, reasoner,
                           fx.embeddings)
    assert len(rows) == 1
    for key, value in direct["overall"].items():
        assert rows[0][key] == value
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    assert out.read_text().startswith("coverage,")
