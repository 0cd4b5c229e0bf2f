"""Tests of the benchmark's own code: generator determinism, self-time
arithmetic, the tail rule, and that tracing changes no report.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import time

import numpy as np
import pytest

import run
import tracing
import workloads
from kgpaths import run_benchmark

HERE = os.path.dirname(os.path.abspath(__file__))

SMALL = {
    "hub_dialogue": dict(entities=600, background_triples=1200, questions=2,
                         hub_degree=40),
    "pair_island": dict(questions=2, cluster_size=25, out_degree=4),
}


def small(name, seed):
    return workloads.WORKLOADS[name](seed, **SMALL.get(name, {}))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_triples(name):
    first = workloads.digest(small(name, 5))
    assert workloads.digest(small(name, 5)) == first
    other = workloads.digest(small(name, 6))
    if name == "fixtures":
        assert other == first  # the shipped fixtures ignore the seed
    else:
        assert other != first


def test_default_sizes():
    (hub,) = workloads.hub_dialogue(0)
    assert 45_000 <= hub.graph.num_entities <= 50_010
    assert 100_000 <= len(hub.graph.triples) <= 110_000
    assert hub.graph.num_relations == 100
    hub_id = hub.graph.entity_id("hub0")
    assert hub.graph.out_degree(hub_id) == 3001
    (pair,) = workloads.pair_island(0)
    assert 1900 <= pair.graph.num_entities <= 2100
    assert pair.config.pair_mode and pair.config.L == 4


def test_self_times_subtract_children_and_leaf():
    # root [0, 10] holds a [1, 4] (0.5 s of leaf calls) and b [5, 9];
    # b holds c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    leaf = [0.0, 0.5, 0.0, 0.0]
    own = tracing.self_times(start, end, parent, leaf)
    assert own.tolist() == [3.0, 2.5, 3.0, 1.0]
    assert own.sum() + sum(leaf) == end[0] - start[0]


def test_tracer_self_times_cover_the_root_exactly():
    tracer = tracing.Tracer()

    def leafy(n):
        for _ in range(n):  # as CountingEmbeddings.embed times a lookup
            t0 = time.perf_counter()
            sum(range(100))
            tracer._leaf += time.perf_counter() - t0
        return n

    inner = tracer.span("b.inner", leafy)

    def outer(n):
        return sum(inner(i) for i in range(n))

    root = tracer.span("a.root", tracer.span("a.outer", outer),
                       before=tracer.next_episode)
    assert root(4) == 6
    spans = tracer.arrays()
    own = tracing.self_times(spans["start"], spans["end"], spans["parent"],
                             spans["leaf"])
    names = [tracer.names[i] for i in spans["name"]]
    assert names.count("b.inner") == 4
    assert (spans["episode"] == 0).all()
    assert np.all(own > -1e-12)
    total = spans["end"][0] - spans["start"][0]
    assert own.sum() + spans["leaf"].sum() == pytest.approx(total, abs=1e-12)
    assert spans["leaf"].sum() > 0


def test_tail_rule():
    xs = [float(i) for i in range(1, 101)]
    t = run.tail(xs)
    assert t["percentile"] == 90.0 and t["beyond"] == 10
    assert run.tail(xs * 50)["percentile"] == 99.0
    short = run.tail(xs[:15])
    assert short["percentile"] == 50.0 and short["value"] == 8.0


def test_iqm_of_question_medians():
    # two passes over four questions with medians 1.1, 5.5, 3.1 and 8.0;
    # the middle half is 3.1 and 5.5
    plan = ["q0", "q1", "q2", "q3"]
    latencies = [1.0, 2.0, 3.0, 8.0, 1.2, 9.0, 3.2, 8.0]
    assert run.iqm(plan, latencies) == pytest.approx(4.3)
    # below four questions nothing is set aside
    assert run.iqm(plan[:3], [1.0, 2.0, 6.0]) == pytest.approx(3.0)


@pytest.mark.parametrize("name", ["hub_dialogue", "pair_island"])
def test_tracing_changes_no_report(name):
    (suite,) = small(name, 3)
    plain = run_benchmark(suite.records, suite.graph, suite.config,
                          suite.reasoner(), suite.embeddings)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_benchmark(
            suite.records, suite.graph, suite.config,
            tracing.CountingReasoner(suite.reasoner(), tracer),
            tracing.CountingEmbeddings(suite.embeddings, tracer))
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert tracer.counts["trace.hook_errors"] == 0
    assert tracer.embed_calls > 0
    # uninstall restored every original binding
    for module, attr, _ in tracing.WRAPPED:
        assert not hasattr(getattr(module, attr), "__wrapped__")


def test_traced_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer()
    (suite,) = small("pair_island", 1)
    root = tracer.span(tracing.ROOT, run_benchmark, before=tracer.next_episode)
    with tracer:
        root(suite.records[:1], suite.graph, suite.config,
             tracing.CountingReasoner(suite.reasoner(), tracer),
             tracing.CountingEmbeddings(suite.embeddings, tracer))
    printed = set(tracing.layer_metrics(tracer, 1)) | {"trace.eps_ratio"}
    assert printed == {m["name"] for m in spec["per_layer"]}


def test_measure_runs_whole_passes():
    (suite,) = small("pair_island", 2)
    plan = [(suite, i) for i in range(len(suite.records))]
    book = run.Book(plan)
    latencies, wall = run.measure(plan, 0, book, run_benchmark,
                                  {suite.name: suite.reasoner()},
                                  {suite.name: suite.embeddings})
    assert len(latencies) == len(plan) and wall >= sum(latencies)
    assert book.errors == [] and book.attempted == len(plan)
    assert book.finish([suite])["hit_at_1"] == 0.5
