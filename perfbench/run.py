"""kgpaths benchmark: episode throughput and latency on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
``src/kgpaths``. One process, one client, closed loop: every episode goes
through the public ``kgpaths.run_benchmark`` (one record per call, with
``jobs=1``, the local embedding providers and ``ScriptedReasoner``), the
next one starting when the previous one returns. BLAS threads are pinned
to 1.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures half the time untraced and half traced (see
``tracing.py``), prints the per-layer metrics and writes the spans to
``perfbench/out/<workload>.spans.npz``. Either way every episode's report
(timings off) is hashed; the same question must give the same report every
time it runs, traced or not, and reach the outcome its workload plants.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details: environment, the tail percentile and sample count, set-up
samples, report digests and any failed check.
"""

import os
import sys
import time

T0 = time.perf_counter()
LOAD_AT_START = os.getloadavg()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Set-up samples per run: this process, then fresh child processes, half
# started before the timed loop and half after it, so the median spans the
# host's speed over the whole run.
SETUP_RUNS = 5
MAX_TAIL_PERCENTILE = 99.0
TAIL_BEYOND = 10

# Report fields the fixtures oracle covers. Fields a later version adds to
# the report are outside it; floats are compared to 10 significant digits.
ORACLE_OVERALL = ("questions", "hit_at_1", "f1", "mrr", "coverage",
                  "path_mrr", "path_map", "path_hit10", "failures")
ORACLE_ROW = ("question", "answer", "confidence", "hit_at_1", "f1", "mrr",
              "covered", "path_mrr", "path_map", "path_hit10", "hops",
              "rounds", "reasoner_calls", "tokens", "edits", "failed")
FIXTURES_ORACLE_SHA256 = (
    "b7f69e6975d930687b48da568be15a5b49ce492539a0460593cdfb784bb8d4ac")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(LOAD_AT_START),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it, capped at p99 and floored at p50; below 20 samples
    the floor binds and ``beyond`` says how many samples lie above."""
    xs = sorted(latencies)
    n = len(xs)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    pct = min(MAX_TAIL_PERCENTILE, max(50.0, pct))
    value = percentile(xs, pct)
    return {"value": value, "percentile": round(pct, 3), "samples": n,
            "beyond": sum(1 for x in xs if x > value)}


def iqm(plan: list, latencies: list[float]) -> float:
    """Interquartile mean over questions of each question's median latency:
    the mean of the middle half once the fastest and the slowest quarter of
    the questions are set aside. Every question runs equally often. A plain
    median would sit on one cluster of alike questions (on ``fixtures``,
    two ranks above a 4 ms gap) and follow that cluster's jitter rather
    than the workload's."""
    n = len(plan)
    per_question = sorted(statistics.median(latencies[q::n]) for q in range(n))
    return statistics.mean(per_question[n // 4:n - n // 4])


def _rounded(value):
    return float(f"{value:.10g}") if isinstance(value, float) else value


def oracle_view(report: dict) -> dict:
    row = report["per_question"][0]
    return {
        "overall": {k: _rounded(report["overall"].get(k)) for k in ORACLE_OVERALL},
        "row": {k: _rounded(row.get(k)) for k in ORACLE_ROW},
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Book:
    """Output checks across every episode of a run."""

    def __init__(self, plan: list):
        self.plan = plan
        self.digests: dict = {}
        self.views: dict = {}
        self.rows: dict = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(self, k: int, report: dict) -> None:
        suite, i = self.plan[k]
        key = (suite.name, i)
        digest = sha256(json.dumps(report, sort_keys=True))
        row = report["per_question"][0]
        self.attempted += 1
        if row["failed"]:
            self.failed += 1
            self.error(f"{suite.name}[{i}]: episode failed")
        if key in self.digests:
            if self.digests[key] != digest:
                self.error(f"{suite.name}[{i}]: report differs from its "
                           "first run")
            return
        self.digests[key] = digest
        self.views[key] = oracle_view(report)
        self.rows[key] = row
        expect = suite.expect[i]
        for field in ("answer", "rounds", "edits", "covered"):
            want = getattr(expect, field)
            if want is not None and row[field] != want:
                self.error(f"{suite.name}[{i}]: {field} {row[field]!r}, "
                           f"expected {want!r}")

    def fail_rest(self, k: int, exc: BaseException) -> None:
        """An exception at plan position ``k`` fails every episode of the
        pass not yet run."""
        rest = len(self.plan) - k % len(self.plan)
        self.attempted += rest
        self.failed += rest
        self.error(f"{type(exc).__name__} at episode {k}: {exc}")

    def finish(self, suites) -> dict:
        """Per-suite and workload-level means over one pass of rows."""
        if len(self.rows) < len(self.plan):
            self.error("not every question ran")
            return {}
        for suite in suites:
            rows = [self.rows[(suite.name, i)] for i in range(len(suite.records))]
            for key, want in suite.expect_overall.items():
                got = mean(rows, ROW_FIELD[key])
                if got is None or abs(got - want) > 1e-9:
                    self.error(f"{suite.name}: {key} {got}, expected {want}")
        rows = [self.rows[(s.name, i)] for s, i in self.plan]
        return {
            "hit_at_1": mean(rows, "hit_at_1"),
            "coverage": mean(rows, "covered"),
            "reasoner_calls_per_episode": mean(rows, "reasoner_calls"),
            "tokens_per_episode": mean(rows, "tokens"),
        }

    def report_sha256(self) -> str:
        return sha256("".join(self.digests[(s.name, i)] for s, i in self.plan))

    def oracle_sha256(self) -> str:
        views = [self.views[(s.name, i)] for s, i in self.plan]
        return sha256(json.dumps(views, sort_keys=True))


ROW_FIELD = {"hit_at_1": "hit_at_1", "coverage": "covered"}


def mean(rows: list[dict], field: str):
    values = [r[field] for r in rows if r[field] != ""]
    return sum(values) / len(values) if values else None


def measure(plan, seconds, book, call, reasoners, embeddings):
    """Closed loop over whole passes of ``plan``, at least one, until
    ``seconds`` have passed, so every question runs equally often. Returns
    per-episode latencies and the wall time."""
    latencies = []
    k = 0
    started = time.perf_counter()
    deadline = started + seconds
    while k == 0 or k % len(plan) or time.perf_counter() < deadline:
        suite, i = plan[k % len(plan)]
        try:
            t = time.perf_counter()
            report = call([suite.records[i]], suite.graph, suite.config,
                          reasoners[suite.name], embeddings[suite.name])
            latencies.append(time.perf_counter() - t)
        except Exception as exc:  # the run reports it and stops
            book.fail_rest(k, exc)
            break
        book.record(k % len(plan), report)
        k += 1
    return latencies, time.perf_counter() - started


def child_setups(args, book, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes, one after another."""
    samples = []
    try:
        for _ in range(n):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-only"],
                cwd=CHECKOUT, capture_output=True, text=True, timeout=60,
                check=True)
            samples.append(float(
                json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    except (subprocess.SubprocessError, ValueError, KeyError) as exc:
        book.error(f"set-up run failed: {exc}")
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads; children inherit it
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "kgpaths", "__init__.py")):
        print(f"error: no kgpaths sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kgpaths

    if os.path.dirname(os.path.abspath(kgpaths.__file__)) != os.path.join(SRC, "kgpaths"):
        print(f"error: kgpaths imported from {kgpaths.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    suites = workloads.build(args.workload, args.seed)
    plan = [(suite, i) for suite in suites for i in range(len(suite.records))]
    reasoners = {s.name: s.reasoner() for s in suites}
    embeddings = {s.name: s.embeddings for s in suites}
    book = Book(plan)
    warm_suite, _ = plan[0]
    kgpaths.run_benchmark(warm_suite.records[:1], warm_suite.graph,
                          warm_suite.config, reasoners[warm_suite.name],
                          embeddings[warm_suite.name])
    setup = [time.perf_counter() - T0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0

    detail = {"workload": args.workload, "seed": args.seed,
              "env": environment(),
              "triples_sha256": workloads.digest(suites)}
    metrics = {}
    if args.trace:
        import tracing

        lat_u, wall_u = measure(plan, args.seconds / 2, book,
                                kgpaths.run_benchmark, reasoners, embeddings)
        tracer = tracing.Tracer()
        root = tracer.span(tracing.ROOT, kgpaths.run_benchmark,
                           before=tracer.next_episode)
        traced_reasoners = {k: tracing.CountingReasoner(v, tracer)
                            for k, v in reasoners.items()}
        traced_embeddings = {k: tracing.CountingEmbeddings(v, tracer)
                             for k, v in embeddings.items()}
        with tracer:
            lat_t, wall_t = measure(plan, args.seconds / 2, book, root,
                                    traced_reasoners, traced_embeddings)
        if lat_t and lat_u:
            for name, (value, unit) in tracing.layer_metrics(
                    tracer, len(lat_t)).items():
                metrics[name] = {"value": value, "unit": unit}
            ratio = (len(lat_t) / wall_t) / (len(lat_u) / wall_u)
            metrics["trace.eps_ratio"] = {"value": ratio, "unit": "ratio"}
            os.makedirs(OUT, exist_ok=True)
            spans_file = os.path.join(OUT, f"{args.workload}.spans.npz")
            tracer.save(spans_file)
            detail["spans_file"] = os.path.relpath(spans_file, CHECKOUT)
            detail["spans"] = tracer._next
            detail["hook_errors"] = tracer.counts["trace.hook_errors"]
        detail["episodes"] = {"untraced": len(lat_u), "traced": len(lat_t)}
        means = book.finish(suites)
    else:
        before = (SETUP_RUNS - 1) // 2
        setup += child_setups(args, book, before)
        latencies, wall = measure(plan, args.seconds, book,
                                  kgpaths.run_benchmark, reasoners, embeddings)
        means = book.finish(suites)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += child_setups(args, book, SETUP_RUNS - 1 - before)
        if latencies and means:
            t = tail(latencies)
            detail["tail"] = {k: v for k, v in t.items() if k != "value"}
            detail["setup_samples_s"] = setup
            detail["suite_pass_s"] = suite_pass_times(plan, latencies)
            values = {
                "setup_s": (statistics.median(setup), "s"),
                "episodes_per_s": (len(latencies) / wall, "1/s"),
                "episode_iqm_ms": (1000 * iqm(plan, latencies), "ms"),
                "episode_tail_ms": (1000 * t["value"], "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "hit_at_1": (means["hit_at_1"], "ratio"),
                "coverage": (means["coverage"], "ratio"),
                "completed_share": (
                    1 - book.failed / max(book.attempted, 1), "ratio"),
                "reasoner_calls_per_episode": (
                    means["reasoner_calls_per_episode"], "count"),
                "tokens_per_episode": (means["tokens_per_episode"], "count"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    if book.rows and len(book.rows) == len(plan):
        detail["report_sha256"] = book.report_sha256()
        detail["oracle_sha256"] = book.oracle_sha256()
        if args.workload == "fixtures" and (
                detail["oracle_sha256"] != FIXTURES_ORACLE_SHA256):
            book.error("fixtures reports differ from the committed oracle")
    detail["errors"] = book.errors
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not book.errors and bool(metrics),
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def suite_pass_times(plan, latencies) -> dict:
    """Median over whole passes of each suite's summed episode latency (s)."""
    per_pass: dict[str, list[float]] = {}
    whole = len(latencies) // len(plan) * len(plan)
    for p in range(0, whole, len(plan)):
        sums: dict[str, float] = {}
        for (suite, _), lat in zip(plan, latencies[p:p + len(plan)]):
            sums[suite.name] = sums.get(suite.name, 0.0) + lat
        for name, value in sums.items():
            per_pass.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in per_pass.items()}


if __name__ == "__main__":
    sys.exit(main())
