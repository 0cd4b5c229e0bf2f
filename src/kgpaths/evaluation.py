"""Benchmark harness: answer/retrieval metrics, per-hop breakdowns,
parameter sweeps, and report writers.

Reports are deterministic: JSON with sorted keys, no timestamps, and wall
times excluded unless explicitly requested via ``include_timings``.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass, fields

from .config import RunConfig
from .embeddings import running_sum
from .errors import (
    KgError,
    ParseError,
    UnknownEntityError,
    UnknownRelationError,
)
from .graph import KnowledgeGraph, SeedCandidate, json_value, read_lines
from .loop import EpisodeResult, run_loop


@dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark question: linked seeds, gold answers, optional gold
    paths (as label sequences) and hop count."""

    question: str
    seeds: tuple[tuple[str, float], ...]
    answers: frozenset[str]
    gold_paths: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    hops: int | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("record needs at least one seed")
        if not self.answers:
            raise ValueError("record needs at least one gold answer")
        for _, confidence in self.seeds:
            # the check ``SeedCandidate`` makes when the run links the seed;
            # made here, a bad record fails its load, with its line number
            if not 0.0 <= confidence <= 1.0:
                raise ValueError(f"seed confidence {confidence} outside [0, 1]")
        # type(...) is int, as a bool (JSON true) is an int too
        if self.hops is not None and not (type(self.hops) is int
                                          and self.hops >= 1):
            raise ValueError(f"hops must be an integer >= 1, got {self.hops!r}")
        for nodes, relations in self.gold_paths:
            if len(nodes) != len(relations) + 1:
                raise ValueError(f"gold path of {len(nodes)} nodes and "
                                 f"{len(relations)} relations")


def load_benchmark(source) -> list[BenchmarkRecord]:
    """Load benchmark JSONL: one object per line with ``question`` (a
    string), ``seeds`` ([{"entity": string, "confidence"?: number}]),
    ``answers`` (a list of strings), and optionally ``gold_paths``
    ([{"nodes", "relations"}], lists of strings, one more node than
    relations) and ``hops`` (an integer >= 1). A line that breaks this
    shape raises ``ParseError`` naming the line."""
    records = []
    for lineno, line in read_lines(source):
        try:
            obj = json.loads(line)
            records.append(BenchmarkRecord(
                question=json_value(obj["question"], str, "question"),
                seeds=tuple(
                    (json_value(s["entity"], str, "seed entity"),
                     float(json_value(s.get("confidence", 1.0), float,
                                      "seed confidence")))
                    for s in obj["seeds"]
                ),
                answers=frozenset(json_value(obj["answers"], list, "answers")),
                gold_paths=tuple(
                    (tuple(json_value(p["nodes"], list, "gold path nodes")),
                     tuple(json_value(p["relations"], list,
                                      "gold path relations")))
                    for p in obj.get("gold_paths", [])
                ),
                hops=obj.get("hops"),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(exc), lineno) from None
    return records


# --- metric primitives -----------------------------------------------------


def answer_metrics(predicted: list[str], gold) -> tuple[float, float]:
    """(hit@1, set-F1) for a ranked answer prediction.

    hit@1 checks the first element; F1 compares the full predicted set
    against the gold set. An empty prediction scores (0, 0).
    """
    gold = set(gold)
    if not predicted:
        return 0.0, 0.0
    hit1 = 1.0 if predicted[0] in gold else 0.0
    overlap = len(set(predicted) & gold)
    if overlap == 0:
        return hit1, 0.0
    precision = overlap / len(set(predicted))
    recall = overlap / len(gold)
    return hit1, 2 * precision * recall / (precision + recall)


def reciprocal_rank(ranked: list, relevant) -> float:
    """1/rank of the first relevant item; 0 when none appears."""
    relevant = set(relevant)
    for i, item in enumerate(ranked, start=1):
        if item in relevant:
            return 1.0 / i
    return 0.0


def average_precision(ranked: list, relevant) -> float:
    """AP with the full relevant set as denominator, so unretrieved
    relevant items count against the score."""
    relevant = set(relevant)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for i, item in enumerate(ranked, start=1):
        if item in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def rank_metrics(ranked: list, relevant, k: int = 10) -> tuple[float, float, float]:
    """(MRR, MAP, Hit@k) of a duplicate-free ranked list against a
    relevant set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(set(ranked)) != len(ranked):
        raise ValueError("ranked list contains duplicates")
    relevant = set(relevant)
    hit = 1.0 if any(item in relevant for item in ranked[:k]) else 0.0
    return (reciprocal_rank(ranked, relevant),
            average_precision(ranked, relevant), hit)


def coverage(retrieved, gold_paths) -> float | None:
    """1 if any gold path — (node seq, relation seq) identity — was
    retrieved; ``None`` (excluded from averages) without gold paths."""
    if not gold_paths:
        return None
    retrieved_keys = set(retrieved)
    return 1.0 if any(g in retrieved_keys for g in gold_paths) else 0.0


def median_mad(values: list[float]) -> tuple[float, float]:
    """Median and median absolute deviation."""
    if not values:
        raise ValueError("empty sample")
    med = statistics.median(values)
    mad = statistics.median([abs(v - med) for v in values])
    return med, mad


# --- per-episode evaluation --------------------------------------------------


@dataclass
class EpisodeMetrics:
    question: str
    answer: str | None
    confidence: float | None
    hit_at_1: float
    f1: float
    mrr: float
    covered: float | None
    path_mrr: float | None
    path_map: float | None
    path_hit10: float | None
    hops: int | None
    rounds: int
    reasoner_calls: int
    tokens: int
    edits: int
    failed: bool
    latency: float  # last: the one column reports carry only with timings

    def to_row(self, include_timings: bool = False) -> dict:
        """The report row: every field (all scalars) in order, ``None`` as
        ``""`` and ``failed`` as 0/1; ``latency`` only with
        ``include_timings``."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row = {k: "" if v is None else v for k, v in row.items()}
        row["failed"] = int(self.failed)
        if not include_timings:
            del row["latency"]
        return row


def _gold_keys(gold_paths, graph: KnowledgeGraph) -> list:
    """Gold paths of labels as (node ids, relation ids), the form of
    ``EpisodeResult.retrieved_keys``. A path naming a label the graph
    lacks stays as labels: it still counts as relevant, and no id path
    equals it."""
    keys = []
    for nodes, relations in gold_paths:
        try:
            keys.append((tuple(graph.entity_id(n) for n in nodes),
                         tuple(graph.relation_id(r) for r in relations)))
        except (UnknownEntityError, UnknownRelationError):
            keys.append((nodes, relations))
    return keys


def evaluate_episode(record: BenchmarkRecord, result: EpisodeResult,
                     latency: float = 0.0) -> EpisodeMetrics:
    predicted = [result.answer] if result.answer else []
    hit1, f1 = answer_metrics(predicted, record.answers)
    gold_paths = list(record.gold_paths)
    retrieved = result.retrieved_keys
    if gold_paths and retrieved:
        gold_paths = _gold_keys(gold_paths, result.subgraph.graph)
    if gold_paths:
        path_mrr, path_map, path_hit10 = rank_metrics(retrieved, gold_paths, 10)
    else:
        path_mrr = path_map = path_hit10 = None
    return EpisodeMetrics(
        question=record.question,
        answer=result.answer,
        confidence=result.confidence,
        hit_at_1=hit1,
        f1=f1,
        mrr=reciprocal_rank(result.ranked_answers, record.answers),
        covered=coverage(retrieved, gold_paths),
        path_mrr=path_mrr,
        path_map=path_map,
        path_hit10=path_hit10,
        hops=record.hops,
        rounds=len(result.rounds),
        reasoner_calls=result.reasoner_calls,
        tokens=result.tokens,
        edits=result.edits_applied,
        failed=result.failed,
        latency=latency,
    )


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return running_sum(values) / len(values) if values else None


def _aggregate(metrics: list[EpisodeMetrics]) -> dict:
    return {
        "questions": len(metrics),
        "hit_at_1": _mean(m.hit_at_1 for m in metrics),
        "f1": _mean(m.f1 for m in metrics),
        "mrr": _mean(m.mrr for m in metrics),
        "coverage": _mean(m.covered for m in metrics),
        "path_mrr": _mean(m.path_mrr for m in metrics),
        "path_map": _mean(m.path_map for m in metrics),
        "path_hit10": _mean(m.path_hit10 for m in metrics),
        "failures": sum(1 for m in metrics if m.failed),
    }


def efficiency_summary(metrics: list[EpisodeMetrics]) -> dict:
    """Median +/- MAD efficiency counters per episode."""
    if not metrics:
        return {}
    out = {}
    for name, values in (
        ("rounds", [m.rounds for m in metrics]),
        ("reasoner_calls", [m.reasoner_calls for m in metrics]),
        ("tokens", [m.tokens for m in metrics]),
        ("edits", [m.edits for m in metrics]),
    ):
        med, mad = median_mad(values)
        out[name] = {"median": med, "mad": mad}
    return out


def run_benchmark(
    records: list[BenchmarkRecord],
    graph: KnowledgeGraph,
    config: RunConfig,
    reasoner,
    embeddings,
    scorer=None,
    verifier=None,
) -> dict:
    """Evaluate every record and aggregate overall, per hop bucket, and
    by efficiency counters.

    Per-question failures are recorded as failed rows; the run continues.
    """

    def one(record: BenchmarkRecord) -> EpisodeMetrics:
        started = time.monotonic()
        try:
            seeds = [SeedCandidate(graph.entity_id(label), conf)
                     for label, conf in record.seeds]
            result = run_loop(record.question, seeds, graph, config, reasoner,
                              embeddings, scorer=scorer, verifier=verifier)
        except KgError:
            return evaluate_episode(record, EpisodeResult(failed=True))
        return evaluate_episode(record, result,
                                latency=time.monotonic() - started)

    started = time.monotonic()
    metrics = [one(r) for r in records]
    elapsed = time.monotonic() - started

    by_hops: dict[str, list[EpisodeMetrics]] = {}
    for m in metrics:
        bucket = str(m.hops) if m.hops is not None else "unknown"
        by_hops.setdefault(bucket, []).append(m)

    report = {
        "config": {f: getattr(config, f)
                   for f in sorted(config.__dataclass_fields__)},
        "overall": _aggregate(metrics),
        "by_hops": {bucket: _aggregate(ms)
                    for bucket, ms in sorted(by_hops.items())},
        "efficiency": efficiency_summary(metrics),
        "per_question": [m.to_row(config.include_timings) for m in metrics],
    }
    if config.include_timings:
        latencies = [m.latency for m in metrics]
        report["timings"] = {"wall_seconds": elapsed}
        if latencies:
            med, mad = median_mad(latencies)
            report["timings"]["latency"] = {"median": med, "mad": mad}
    return report


def write_report_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(rows: list[dict], fieldnames: list[str], path) -> None:
    """Write ``rows`` as UTF-8 CSV with a ``fieldnames`` header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def write_report_csv(report: dict, path) -> None:
    rows = report["per_question"]
    _write_csv(rows, list(rows[0]) if rows else [
        f.name for f in fields(EpisodeMetrics) if f.name != "latency"], path)


# --- sweeps ------------------------------------------------------------------


def simplex_grid(step: float) -> list[tuple[float, float, float]]:
    """All (alpha, beta, gamma) with each coordinate a multiple of ``step``
    and the triple summing to 1."""
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 evenly")
    out = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            out.append((round(i * step, 10), round(j * step, 10),
                        round(k * step, 10)))
    return out


def sweep(
    records: list[BenchmarkRecord],
    graph: KnowledgeGraph,
    base_config: RunConfig,
    points: list[dict],
    reasoner,
    embeddings,
    scorer=None,
    verifier=None,
) -> list[dict]:
    """Run the benchmark at every point, a dict of ``RunConfig`` field
    overrides, with a shared RNG seed so rows differ only through the
    overrides. Every point's config is built before the first run, so a
    bad point raises ``ConfigError`` before any work. Returns one flat row
    per point: its overrides plus the overall aggregate."""
    configs = [base_config.with_overrides(**point) for point in points]
    rows = []
    for point, config in zip(points, configs):
        report = run_benchmark(records, graph, config, reasoner, embeddings,
                               scorer=scorer, verifier=verifier)
        rows.append({**dict(sorted(point.items())), **report["overall"]})
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    _write_csv(rows, sorted({k for row in rows for k in row}), path)
