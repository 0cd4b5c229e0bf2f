"""Byte-identity check: one ``<artefact> <sha256>`` line per item of a fixed
matrix of runs.

    python3 tools/digests.py [--select PREFIX ...] > digests.txt

Run it from any directory, at two commits, and ``diff`` the outputs: a
change meant to keep answers, traces and reports as they are must print
the same lines. The program under test is this checkout's ``src/kgpaths``;
the workloads come from its ``perfbench/workloads.py``. The matrix:

* ``cli/<fixture>/...``: ``kgpaths bench`` report JSON, report CSV and
  standard output on each of the four shipped fixtures, and for argo also
  ``kgpaths query --trace``'s JSONL and standard output;
* ``run/<workload>/s<seed>/<variant>/...``: for every question of the
  workload, run through ``run_loop`` with the suite's own config changed
  as ``VARIANTS`` says: the trace JSONL, the retrieved paths, the subgraph
  (``Subgraph.to_json()``, node entry order, pruned edges and warnings)
  and the ``run_benchmark`` report. The suite's ``ScriptedReasoner`` only
  ever asks to VERIFY, so the ``cycled_edits`` variant swaps in
  ``CyclingReasoner``, which asks for every edit kind. Workloads are
  ``fixtures`` (which
  ignores the seed), ``pair_island`` and a small ``hub_dialogue`` (3,000
  entities, 6,000 background triples, hub degree 300), seeds 1 and 2;
* ``demo/<name>``: each demo's standard output.

``--select`` keeps the artefacts whose name starts with one of the given
prefixes and runs only what they need. No digest is pinned anywhere:
``cosine`` calls BLAS, so the bits may differ between machines. Compare
outputs from the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from functools import cache, partial

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
sys.path[:0] = [SRC, os.path.join(CHECKOUT, "perfbench")]

import workloads  # noqa: E402
from kgpaths import cli  # noqa: E402
from kgpaths.evaluation import run_benchmark  # noqa: E402
from kgpaths.graph import SeedCandidate  # noqa: E402
from kgpaths.loop import (  # noqa: E402
    DISAMBIGUATE,
    EXPAND,
    PRUNE,
    VERIFY,
    ScriptedReasoner,
    run_loop,
)
from kgpaths.synthetic import ARGO_QUESTION, FIXTURES  # noqa: E402

VARIANTS = {
    "default": {},
    "pair_mode": {"pair_mode": True},
    "rounds=5": {"rounds": 5},
    "knn=3": {"knn": 3},
    "radius=1": {"radius": 1},
    "edit_budget=1": {"edit_budget": 1},
    "select_top_k=1": {"select_top_k": 1},
    "no_verifier": {"no_verifier": True},
    "deterministic=False": {"deterministic": False},
    "edit_budget=8,rounds=6": {"edit_budget": 8, "rounds": 6},
    "cycled_edits": {"edit_budget": 8, "rounds": 6},
}
SEEDS = {"fixtures": (1,), "pair_island": (1, 2), "hub_dialogue": (1, 2)}


class CyclingReasoner(ScriptedReasoner):
    """Never confident; its diagnostics cycle through PRUNE, DISAMBIGUATE,
    EXPAND and VERIFY, call by call, each built from one of the round's
    selected paths: prune a candidate, swap the path's terminal for its
    first node, expand two hops around the terminal, verify the first
    edge. Two hops, because with one no line changed when
    ``Subgraph.add_nodes`` was made to keep stale out-edge lists."""

    def __init__(self, graph, **kwargs):
        super().__init__(graph, **kwargs)
        self.calls = 0

    def reason(self, question, selected, mixture=None):
        reply = super().reason(question, selected, mixture=mixture)
        i, self.calls = self.calls, self.calls + 1
        pick = i % len(selected)
        path, labels = selected[pick].path, self.graph.entity_labels
        if i % 4 == 0:
            diagnostic = f"{PRUNE}({pick})"
        elif i % 4 == 1:
            diagnostic = (f"{DISAMBIGUATE}({labels[path.terminal]}, "
                          f"{labels[path.nodes[0]]})")
        elif i % 4 == 2:
            diagnostic = f"{EXPAND}({labels[path.terminal]}, 2)"
        else:
            diagnostic = "{}({}, {}, {})".format(
                VERIFY, *self.graph.triple_labels(path.edges[0]))
        return replace(reply, confidence=0.0, diagnostic=diagnostic)


def small_hub_dialogue(seed: int):
    return workloads.hub_dialogue(seed, entities=3000,
                                  background_triples=6000, hub_degree=300)


BUILD = {"fixtures": workloads.fixtures, "pair_island": workloads.pair_island,
         "hub_dialogue": small_hub_dialogue}


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def cli_artefacts(name: str) -> dict[str, str]:
    """``kgpaths bench`` (and for argo ``kgpaths query``) on one fixture,
    written out as the CLI's file set."""
    with tempfile.TemporaryDirectory() as tmp:
        files = FIXTURES[name]().write(tmp)
        common = ["--config", files["config.cfg"]]
        for flag, file in (("--embeddings", "embeddings.tsv"),
                           ("--probes", "probes.json"),
                           ("--priors", "priors.tsv")):
            if file in files:
                common += [flag, files[file]]
        report_json = os.path.join(tmp, "report.json")
        report_csv = os.path.join(tmp, "report.csv")
        out = {f"cli/{name}/bench.stdout": _cli(
            ["bench", files["triples.tsv"], files["bench.jsonl"],
             "--report-json", report_json, "--report-csv", report_csv]
            + common)}
        out[f"cli/{name}/report.json"] = _read(report_json)
        out[f"cli/{name}/report.csv"] = _read(report_csv)
        if name == "argo":
            trace = os.path.join(tmp, "trace.jsonl")
            out[f"cli/{name}/query.stdout"] = _cli(
                ["query", files["triples.tsv"], ARGO_QUESTION,
                 "--seed-entity", "Argo", "--trace", trace] + common)
            out[f"cli/{name}/query.trace"] = _read(trace)
    return out


def run_artefacts(suites, prefix: str, overrides: dict,
                  make_reasoner=ScriptedReasoner) -> dict[str, str]:
    """Every question of ``suites()`` under one config variant, with
    reasoners built by ``make_reasoner``."""
    parts = {"trace": [], "paths": [], "subgraph": [], "report": []}
    for suite in suites():
        config = replace(suite.config, **overrides)
        graph = suite.graph

        def reasoner():
            return make_reasoner(graph, conf_threshold=config.conf_threshold,
                                 probes=suite.probes)

        for record in suite.records:
            seeds = [SeedCandidate(graph.entity_id(label), conf)
                     for label, conf in record.seeds]
            trace = io.StringIO()
            result = run_loop(record.question, seeds, graph, config,
                              reasoner(), suite.embeddings, trace_file=trace)
            parts["trace"].append(trace.getvalue())
            parts["paths"].append(json.dumps(result.retrieved_paths))
            sub = result.subgraph
            parts["subgraph"].append("" if sub is None else json.dumps([
                sub.to_json(), list(sub.nodes), sorted(sub.pruned),
                sub.warnings]))
        report = run_benchmark(suite.records, graph, config, reasoner(),
                               suite.embeddings)
        parts["report"].append(json.dumps(report, sort_keys=True))
    return {f"{prefix}/{kind}": "\n".join(texts)
            for kind, texts in parts.items()}


def demo_artefacts(name: str) -> dict[str, str]:
    proc = subprocess.run([sys.executable, os.path.join("demos", name)],
                          cwd=CHECKOUT, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    return {f"demo/{name}": f"{proc.stdout}exit {proc.returncode}\n"}


def jobs():
    """(artefact-name prefix, producer of {artefact: text}), in output
    order."""
    for name in FIXTURES:
        yield f"cli/{name}/", partial(cli_artefacts, name)
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            suites = cache(partial(BUILD[workload], seed))  # built on first use
            for variant, overrides in VARIANTS.items():
                prefix = f"run/{workload}/s{seed}/{variant}"
                reasoner = (CyclingReasoner if variant == "cycled_edits"
                            else ScriptedReasoner)
                yield prefix + "/", partial(run_artefacts, suites, prefix,
                                            overrides, reasoner)
    for name in sorted(os.listdir(os.path.join(CHECKOUT, "demos"))):
        if name.endswith(".py"):
            yield f"demo/{name}", partial(demo_artefacts, name)


def digest_lines(select: list[str] | None = None) -> list[str]:
    """``<artefact> <sha256>`` lines for the artefacts whose name starts
    with one of ``select`` (all when ``None``)."""
    lines = []
    for prefix, produce in jobs():
        if select is not None and not any(
                prefix.startswith(s) or s.startswith(prefix) for s in select):
            continue
        for artefact, text in produce().items():
            if select is None or any(artefact.startswith(s) for s in select):
                lines.append(f"{artefact} {sha256(text)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--select", action="append", metavar="PREFIX",
                        help="only artefacts whose name starts with PREFIX "
                             "(repeatable)")
    args = parser.parse_args(argv)
    for line in digest_lines(args.select):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
