"""Command-line entry points: query (one episode), bench (full benchmark
report), and sweep (parameter-grid benchmark runs).

Flags name inputs, services and outputs; every ``RunConfig`` field is set
through ``--config`` or ``--set``. Exit codes: 0 success, 1 runtime
failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .config import RunConfig, _coerce, load_config
from .embeddings import FileEmbeddings, HashEmbeddings, ServiceEmbeddings
from .errors import ConfigError, KgError, ParseError
from .evaluation import (
    load_benchmark,
    run_benchmark,
    simplex_grid,
    sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .graph import SeedCandidate, load_prior_overrides, load_triples, open_text
from .loop import ExternalReasoner, ScriptedReasoner, run_loop


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config tunable by its canonical name "
             "(see kgpaths.config.RunConfig)")
    # each pair names one source two ways: argparse refuses both at once
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--embeddings", metavar="TSV",
                        help="file embeddings (label<TAB>v1,v2,...); "
                             "default: hash-deterministic")
    source.add_argument("--embed-service", metavar="URL",
                        help="HTTP embedding service endpoint")
    parser.add_argument("--priors", metavar="TSV",
                        help="relation prior overrides (relation<TAB>cost)")
    reasoning = parser.add_mutually_exclusive_group()
    reasoning.add_argument("--probes", metavar="JSON",
                           help="scripted-reasoner verification probes: "
                                "{question: [relation, object]}")
    reasoning.add_argument("--reasoner-url", metavar="URL",
                           help="external reasoner endpoint "
                                "(default: scripted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgpaths",
        description="Path-based retrieval over knowledge graphs with an "
                    "iterative retrieval-reasoning loop.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="answer one question",
                       allow_abbrev=False)
    q.add_argument("graph", help="triple TSV")
    q.add_argument("question")
    q.add_argument("--seed-entity", action="append", required=True,
                   metavar="LABEL[@CONF]",
                   help="linked seed entity, optional @confidence")
    q.add_argument("--trace", metavar="JSONL", help="write per-round trace")
    _add_common(q)

    b = sub.add_parser("bench", help="run a benchmark", allow_abbrev=False)
    b.add_argument("graph", help="triple TSV")
    b.add_argument("benchmark", help="benchmark JSONL")
    b.add_argument("--report-json", metavar="PATH")
    b.add_argument("--report-csv", metavar="PATH")
    _add_common(b)

    s = sub.add_parser("sweep", help="benchmark across a parameter grid",
                       allow_abbrev=False)
    s.add_argument("graph", help="triple TSV")
    s.add_argument("benchmark", help="benchmark JSONL")
    s.add_argument("--grid", action="append", required=True,
                   metavar="NAME=V1,V2,...",
                   help="swept values; 'alpha,beta,gamma=simplex:STEP' "
                        "sweeps the coefficient simplex, or list triples "
                        "as a:b:c;a:b:c")
    s.add_argument("--out", metavar="CSV", help="grid CSV output")
    _add_common(s)

    return parser


def _build_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return config.with_overrides(**overrides)


def _load_probes(source) -> dict[str, tuple[str, str]]:
    """Read probes JSON: an object mapping each question to a
    ``[relation, object]`` pair of strings."""
    with open_text(source) as lines:
        try:
            raw = json.loads("".join(lines))
        except json.JSONDecodeError as exc:
            raise ParseError(f"probes: {exc}") from None
    if not isinstance(raw, dict) or not all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(x, str) for x in p) for p in raw.values()):
        raise ParseError("probes: expected a JSON object of "
                         "question -> [relation, object] strings")
    return {q: tuple(p) for q, p in raw.items()}


def _load_world(args, config):
    graph = load_triples(args.graph, add_inverse=config.add_inverse)
    if args.priors:
        load_prior_overrides(graph, args.priors)
    if args.embeddings:
        embeddings = FileEmbeddings.load(args.embeddings)
    elif args.embed_service:
        embeddings = ServiceEmbeddings(config.embed_dim, url=args.embed_service)
    else:
        embeddings = HashEmbeddings(dimension=config.embed_dim,
                                    seed=config.seed)
    if args.reasoner_url:
        reasoner = ExternalReasoner(graph, url=args.reasoner_url)
    else:
        probes = _load_probes(args.probes) if args.probes else {}
        reasoner = ScriptedReasoner(graph,
                                    conf_threshold=config.conf_threshold,
                                    probes=probes)
    return graph, embeddings, reasoner


def _parse_seed_entity(spec: str, graph) -> SeedCandidate:
    label, confidence = spec, 1.0
    if "@" in spec:
        candidate, _, conf_s = spec.rpartition("@")
        try:
            confidence = float(conf_s)
            label = candidate
        except ValueError:
            pass  # the @ belongs to the label
    return SeedCandidate(graph.entity_id(label), confidence)


def cmd_query(args) -> int:
    config = _build_config(args)
    graph, embeddings, reasoner = _load_world(args, config)
    seeds = [_parse_seed_entity(s, graph) for s in args.seed_entity]
    result = run_loop(args.question, seeds, graph, config, reasoner,
                      embeddings)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as trace:
            trace.write(result.trace_jsonl())
    print(f"answer: {result.answer}")
    print(f"confidence: {result.confidence}")
    print(f"rounds: {len(result.rounds)}")
    if result.failed:
        print(f"failed: {result.failure}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    config = _build_config(args)
    graph, embeddings, reasoner = _load_world(args, config)
    records = load_benchmark(args.benchmark)
    report = run_benchmark(records, graph, config, reasoner, embeddings)
    if args.report_json:
        write_report_json(report, args.report_json)
    if args.report_csv:
        write_report_csv(report, args.report_csv)
    print(json.dumps({"overall": report["overall"],
                      "efficiency": report["efficiency"]}, sort_keys=True))
    return 0


def _grid_values(name: str, values: str) -> list[dict]:
    """The override dicts one ``--grid NAME=...`` spec lists."""
    if name != "alpha,beta,gamma":
        return [_coerce({name: v}) for v in values.split(",") if v != ""]
    try:
        if values.startswith("simplex:"):
            triples = simplex_grid(float(values[len("simplex:"):]))
        else:
            triples = []
            for point in values.split(";"):
                parts = point.split(":")
                if len(parts) != 3:
                    raise ConfigError(
                        f"coefficient point must be a:b:c, got {point!r}")
                triples.append(tuple(map(float, parts)))
    except ValueError as exc:
        raise ConfigError(f"bad coefficient grid {values!r}: {exc}") from None
    return [dict(zip(("alpha", "beta", "gamma"), t)) for t in triples]


def _parse_grid(specs: list[str]) -> list[dict]:
    """The sweep points of ``--grid`` specs, as override dicts: the product
    over the names in sorted order (a later spec of a name replaces an
    earlier one), so ``alpha,beta,gamma`` overrides a swept ``alpha``. A
    point equal to an earlier one is dropped, so each runs once."""
    grid: dict[str, list[dict]] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--grid expects NAME=V1,V2,..., got {spec!r}")
        name, _, values = (part.strip() for part in spec.partition("="))
        grid[name] = _grid_values(name, values)
        if not grid[name]:
            raise ConfigError(f"empty value list in grid spec {spec!r}")
    points: dict[tuple, dict] = {}
    for combo in itertools.product(*(grid[n] for n in sorted(grid))):
        point = {k: v for part in combo for k, v in part.items()}
        points.setdefault(tuple(sorted(point.items())), point)
    return list(points.values())


def cmd_sweep(args) -> int:
    config = _build_config(args)
    points = _parse_grid(args.grid)
    graph, embeddings, reasoner = _load_world(args, config)
    records = load_benchmark(args.benchmark)
    rows = sweep(records, graph, config, points, reasoner, embeddings)
    if args.out:
        write_sweep_csv(rows, args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"query": cmd_query, "bench": cmd_bench, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
