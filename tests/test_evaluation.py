import io
import json
import re
import sys
from collections import Counter

import numpy as np
import pytest

import kgpaths.embeddings
from kgpaths.config import RunConfig
from kgpaths.embeddings import HashEmbeddings
from kgpaths.errors import ConfigError, ParseError
from kgpaths.evaluation import (
    BenchmarkRecord,
    answer_metrics,
    average_precision,
    coverage,
    evaluate_episode,
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
from kgpaths.graph import Subgraph
from kgpaths.loop import EpisodeResult, ScriptedReasoner
from kgpaths.synthetic import FIXTURES, metrics_fixture

from conftest import build_graph, cosine_oracle, pool_vectors_oracle


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


@pytest.mark.parametrize("confidence", ["1.5", "-0.1", "NaN", "Infinity"])
def test_load_benchmark_rejects_seed_confidence_outside_unit_interval(
        confidence):
    good = json.dumps({"question": "q", "seeds": [{"entity": "s"}],
                       "answers": ["a"]})
    bad = ('{"question": "q", "seeds": [{"entity": "s", "confidence": %s}], '
           '"answers": ["a"]}' % confidence)
    with pytest.raises(ParseError, match=r"line 2: seed confidence .* "
                                         r"outside \[0, 1\]"):
        load_benchmark(io.StringIO(good + "\n" + bad + "\n"))
    with pytest.raises(ValueError, match="outside"):
        BenchmarkRecord("q", (("s", float(confidence)),), frozenset({"a"}))


@pytest.mark.parametrize("hops", ["NaN", "2.5", "true", '"2"'])
def test_load_benchmark_rejects_hops_that_are_not_positive_integers(hops):
    good = json.dumps({"question": "q", "seeds": [{"entity": "s"}],
                       "answers": ["a"], "hops": 2})
    bad = ('{"question": "q", "seeds": [{"entity": "s"}], "answers": ["a"], '
           '"hops": %s}' % hops)
    with pytest.raises(ParseError, match=r"line 2: hops must be an integer"):
        load_benchmark(io.StringIO(good + "\n" + bad + "\n"))
    with pytest.raises(ValueError, match="hops must be an integer"):
        BenchmarkRecord("q", (("s", 1.0),), frozenset({"a"}),
                        hops=json.loads(hops))


@pytest.mark.parametrize("where, value, message", [
    ("question", 5, "question 5 is not a string"),
    ("confidence", True, "seed confidence True is not a number"),
    ("confidence", "0.5", "seed confidence '0.5' is not a number"),
    ("entity", 7, "seed entity 7 is not a string"),
    ("nodes", "ab", "gold path nodes 'ab' is not a list of strings"),
    ("nodes", ["s", 1], "gold path nodes ['s', 1] is not a list of strings"),
    ("relations", "r", "gold path relations 'r' is not a list of strings"),
])
def test_load_benchmark_rejects_each_wrong_json_type(where, value, message):
    def line(value=None):
        obj = {"question": "q", "seeds": [{"entity": "s", "confidence": 0.5}],
               "answers": ["a"],
               "gold_paths": [{"nodes": ["s", "a"], "relations": ["r"]}]}
        if value is not None:
            part = (obj if where == "question"
                    else obj["seeds"][0] if where in ("entity", "confidence")
                    else obj["gold_paths"][0])
            part[where] = value
        return json.dumps(obj)

    assert len(load_benchmark(io.StringIO(line()))) == 1
    with pytest.raises(ParseError, match="^line 2: " + re.escape(message)):
        load_benchmark(io.StringIO(line() + "\n" + line(value) + "\n"))


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


def _fixture_reports() -> dict[str, str]:
    """Each shipped fixture's report as ``kgpaths bench`` writes it, with
    timings off."""
    out = {}
    for name, build in sorted(FIXTURES.items()):
        fx = build()  # fresh: the loop edits the graph
        config = fx.config.with_overrides(include_timings=False)
        reasoner = ScriptedReasoner(fx.graph,
                                    conf_threshold=config.conf_threshold,
                                    probes=fx.probes)
        report = run_benchmark(fx.records, fx.graph, config, reasoner,
                               fx.embeddings)
        out[name] = json.dumps(report, sort_keys=True, indent=2)
    return out


def test_fixture_reports_equal_under_numpy_formula_kernels(monkeypatch):
    """The cosine and pooling kernels that the score table and the
    reference functions share, against numpy's formulas, end to end: the
    one-value forms ``normed_cosine`` and ``pool_vectors``, and the batched
    forms ``normed_cosines`` and ``pool_vector_stack``, which the table's
    ``match`` calls on the coverage suite's wide rounds. The cosine oracle
    recomputes both norms, so the norms the table keeps, and those that
    ``match`` takes in a batch, are checked too."""
    shipped = _fixture_reports()
    calls = Counter()

    def counted(name, oracle):
        def kernel(*args):
            calls[name] += 1
            return oracle(*args)
        return kernel

    def normed_cosine_oracle(a, b, na, nb):
        return cosine_oracle(a, b)

    def normed_cosines_oracle(rows, b, row_norms, nb):
        return np.array([cosine_oracle(row, b) for row in rows])

    def pool_vector_stack_oracle(stack, paths):
        return np.array([pool_vectors_oracle(list(vectors), path)
                         for vectors, path in zip(stack, paths)])

    kernels = (
        ("normed_cosine", kgpaths.embeddings.normed_cosine,
         normed_cosine_oracle),
        ("normed_cosines", kgpaths.embeddings.normed_cosines,
         normed_cosines_oracle),
        ("pool_vectors", kgpaths.embeddings.pool_vectors, pool_vectors_oracle),
        ("pool_vector_stack", kgpaths.embeddings.pool_vector_stack,
         pool_vector_stack_oracle))
    for name, ref, oracle in kernels:
        kernel = counted(name, oracle)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if (module_name == "kgpaths" or module_name.startswith("kgpaths.")) \
                    and getattr(module, name, None) is ref:
                monkeypatch.setattr(module, name, kernel)
    assert _fixture_reports() == shipped
    assert all(calls[name] > 0 for name, _, _ in kernels), calls


def test_report_means_add_left_to_right():
    """Report means are left-to-right sums over the rows, the same bits on
    every Python: a compensated sum (builtin ``sum`` from Python 3.12 on)
    gives 0.7125, 0.1764705882352941 and 0.04241840612377919 here."""
    overall = {name: json.loads(report)["overall"]
               for name, report in _fixture_reports().items()}
    assert overall["metrics"]["mrr"] == 0.7125000000000001
    assert overall["adversarial"]["path_mrr"] == 0.17647058823529407
    assert overall["coverage"]["path_mrr"] == 0.04241840612377916


REPORT_COLUMNS = (
    "question,answer,confidence,hit_at_1,f1,mrr,covered,path_mrr,path_map,"
    "path_hit10,hops,rounds,reasoner_calls,tokens,edits,failed")


@pytest.mark.parametrize("timings", [False, True])
def test_report_csv_header_is_pinned(tmp_path, timings):
    fx = metrics_fixture()
    config = fx.config.with_overrides(include_timings=timings)
    report = run_benchmark(fx.records[:2], fx.graph, config,
                           ScriptedReasoner(fx.graph), fx.embeddings)
    write_report_csv(report, tmp_path / "r.csv")
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == REPORT_COLUMNS + (",latency" if timings else "")


def test_empty_report_csv_header_is_pinned(tmp_path):
    g = build_graph([("a", "r", "b")])
    report = run_benchmark([], g, RunConfig(), ScriptedReasoner(g),
                           HashEmbeddings(8))
    write_report_csv(report, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().splitlines() == [REPORT_COLUMNS]


def test_simplex_grid_counts():
    grid = simplex_grid(0.2)
    assert len(grid) == 21
    assert all(abs(sum(p) - 1.0) < 1e-9 for p in grid)
    assert (0.4, 0.4, 0.2) in grid
    with pytest.raises(ValueError):
        simplex_grid(0.3)


def test_sweep_single_point_matches_run_benchmark(tmp_path):
    fx = metrics_fixture()
    reasoner = ScriptedReasoner(fx.graph)
    rows = sweep(fx.records, fx.graph, fx.config, [{"tau": fx.config.tau}],
                 reasoner, fx.embeddings)
    direct = run_benchmark(fx.records, fx.graph, fx.config, reasoner,
                           fx.embeddings)
    assert len(rows) == 1
    for key, value in direct["overall"].items():
        assert rows[0][key] == value
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    assert out.read_text().startswith("coverage,")


def test_sweep_checks_every_point_before_the_first_run(monkeypatch):
    """A bad point is refused before any benchmark runs, not after the
    points before it have run."""
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr("kgpaths.evaluation.run_benchmark", no_run)
    fx = metrics_fixture()
    points = [{"K": 200}, {"K": 100}, {"K": 0}]
    with pytest.raises(ConfigError, match="max_candidates"):
        sweep(fx.records, fx.graph, fx.config, points,
              ScriptedReasoner(fx.graph), fx.embeddings)
    with pytest.raises(ConfigError, match="unknown config key"):
        sweep(fx.records, fx.graph, fx.config, [{"tau": 0.1}, {"bogus": 1}],
              ScriptedReasoner(fx.graph), fx.embeddings)


def test_evaluate_episode_compares_id_paths_with_the_gold_paths(chain_graph):
    """The retrieved paths stay ids; the gold paths are interned. A gold
    path naming a label the graph lacks still counts as relevant and never
    matches, so the metrics are those of comparing label paths."""
    result = EpisodeResult(
        answer="c", subgraph=Subgraph(chain_graph),
        retrieved_keys=[((0, 1), (0,)), ((0, 2), (2,)), ((0, 1, 2), (0, 1))])
    assert result.retrieved_paths == [
        (("a", "b"), ("r1",)), (("a", "c"), ("r3",)),
        (("a", "b", "c"), ("r1", "r2"))]
    record = BenchmarkRecord("q", (("a", 1.0),), frozenset({"c"}), gold_paths=(
        (("a", "b", "c"), ("r1", "r2")),
        (("a", "zz"), ("r1",)),  # no entity zz
        (("a", "c"), ("r9",)),  # no relation r9
    ))
    gold = list(record.gold_paths)
    m = evaluate_episode(record, result)
    assert (m.path_mrr, m.path_map, m.path_hit10) == rank_metrics(
        result.retrieved_paths, gold, 10) == (1 / 3, 1 / 9, 1.0)
    assert m.covered == coverage(result.retrieved_paths, gold) == 1.0
    # nothing retrieved: no match, every gold path still relevant
    m = evaluate_episode(record, EpisodeResult(answer="c"))
    assert (m.covered, m.path_mrr, m.path_map, m.path_hit10) == (
        0.0, 0.0, 0.0, 0.0)
