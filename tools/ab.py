"""In-process A/B of two checkouts on one benchmark workload.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload W [--seed S]
        [--rounds R] [--passes N] [--profile parent|change]

Each round starts one child process per checkout, one after the other,
and swaps which goes first every round, so a drift of the host's speed
falls on both sides alike. A child imports ``kgpaths`` from its
checkout's ``src/`` and the workload from its ``perfbench/workloads.py``,
writing nothing there (no bytecode), with BLAS threads pinned to 1. It
builds the workload, runs one warm pass, then ``--passes`` timed passes;
a pass runs every question once through ``run_benchmark``, one record
per call, as ``perfbench/run.py`` does. The side whose median pass is
shorter wins the round.

It prints each child's pass times, the winner of each round, and per
side: the median pass, the full (generation 2) collections and their time
per pass, read through ``gc.callbacks``, and the objects the collector
tracks after loading. Then one more child per side counts the Python
calls into its checkout's ``src/kgpaths/`` code during one pass after the
warm one, with a ``sys.setprofile`` hook that no timed pass carries, and
the tool prints both counts and their difference. The counts repeat
exactly from run to run, so they show a change in the work done that
timing is too noisy to resolve; an A/A run prints a difference of 0.
Last come each side's code lines in ``src/kgpaths/``: lines that hold a
token of code, so no blank line, comment or docstring (a string constant
that is the first statement of a module, class or function) counts. One
line gives both totals and their difference, then one line per module
whose count differs.
``--profile SIDE`` then runs one more child of that side under cProfile
and prints its top functions by cumulative time.

It is a second opinion beside the benchmark's pairs of runs, not a
replacement: one process per side, no set-up or memory measurement.
Passing the same directory twice (an A/A run) shows the noise.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import json
import os
import statistics
import subprocess
import sys
import tokenize

SIDES = ("parent", "change")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
PROFILE_TOP = 25
# the first argument of a child process: CHILD CHECKOUT WORKLOAD SEED PASSES
# MODE, with MODE one of MODES
CHILD = "--child"
MODES = ("time", "profile", "count")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("change", metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--passes", type=int, default=30)
    parser.add_argument("--profile", choices=SIDES)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be >= 1")
    return args


# --- pairing and win counting ------------------------------------------------


def round_order(r: int) -> tuple[str, str]:
    """The order the two sides run in round ``r`` (from 0): the parent
    first in even rounds, the change first in odd ones."""
    return SIDES if r % 2 == 0 else SIDES[::-1]


def round_winner(times: dict[str, list[float]]) -> str:
    """The side with the shorter median pass; ``"tie"`` when equal."""
    parent = statistics.median(times["parent"])
    change = statistics.median(times["change"])
    return "parent" if parent < change else "change" if change < parent else "tie"


def count_wins(winners: list[str]) -> dict[str, int]:
    return {side: winners.count(side) for side in (*SIDES, "tie")}


def _versus(parent: int, change: int) -> str:
    """Both sides' figures and their difference, change minus parent."""
    return f"parent {parent}, change {change}, difference {change - parent}"


def count_line(calls: dict[str, int]) -> str:
    """The line that reports each side's call count and their
    difference, change minus parent."""
    return ("calls into src/kgpaths/ in one warm pass: "
            + _versus(calls["parent"], calls["change"]))


# --- code lines -------------------------------------------------------------

NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token of code, every line of a
    token that spans several counted; docstrings, comments and blank lines
    count nothing."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def package_code_lines(checkout: str) -> dict[str, int]:
    """``code_lines`` of each module in ``checkout``'s ``src/kgpaths/``."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "kgpaths",
                                              "*.py"))):
        with open(path, encoding="utf-8") as f:
            counts[os.path.basename(path)] = code_lines(f.read())
    return counts


def code_line_report(counts: dict[str, dict[str, int]]) -> list[str]:
    """Both sides' code lines in ``src/kgpaths/`` and their difference,
    change minus parent, then the same for each module whose count
    differs (a module one side lacks counts 0 there)."""
    parent, change = (counts[side] for side in SIDES)
    report = ["code lines in src/kgpaths/: "
              + _versus(sum(parent.values()), sum(change.values()))]
    for module in sorted(parent.keys() | change.keys()):
        before, after = parent.get(module, 0), change.get(module, 0)
        if before != after:
            report.append(f"  {module}: " + _versus(before, after))
    return report


# --- the child: one checkout, one workload -----------------------------------


def count_calls(prefix: str, run) -> int:
    """The Python calls into code under ``prefix`` while ``run()`` runs,
    each function call and generator resumption counted once by a
    ``sys.setprofile`` hook; builtins and code elsewhere count nothing."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            calls += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def child(checkout: str, workload: str, seed: int, passes: int,
          mode: str) -> dict:
    """Build ``workload`` from ``checkout`` and run a warm pass; then, by
    ``mode``: ``passes`` timed passes, giving per-pass times and collector
    counts; ``passes`` passes under cProfile, giving its top list; or one
    pass under ``count_calls``, giving the calls into ``kgpaths``."""
    sys.dont_write_bytecode = True
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import gc
    import time

    import kgpaths
    import workloads

    where = os.path.dirname(os.path.abspath(kgpaths.__file__))
    if where != os.path.join(src, "kgpaths"):
        raise SystemExit(f"kgpaths imported from {where}, not {src}")

    suites = workloads.build(workload, seed)
    plan = [(suite, suite.reasoner(), record)
            for suite in suites for record in suite.records]
    tracked = len(gc.get_objects())

    def one_pass():
        for suite, reasoner, record in plan:
            kgpaths.run_benchmark([record], suite.graph, suite.config,
                                  reasoner, suite.embeddings)

    one_pass()  # warm
    if mode == "count":
        return {"calls": count_calls(where + os.sep, one_pass)}
    if mode == "profile":
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(passes):
            one_pass()
        profiler.disable()
        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats(
            "cumulative").print_stats(PROFILE_TOP)
        return {"profile": out.getvalue()}

    full = {"count": 0, "seconds": 0.0, "started": 0.0}

    def on_gc(phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            full["started"] = time.perf_counter()
        else:
            full["count"] += 1
            full["seconds"] += time.perf_counter() - full["started"]

    gc.callbacks.append(on_gc)
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - started)
    gc.callbacks.remove(on_gc)
    return {"times": times, "episodes": len(plan), "tracked": tracked,
            "full_collections": full["count"], "gc_seconds": full["seconds"]}


def run_child(checkout: str, args, mode: str = "time") -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    env.update((var, "1") for var in BLAS_THREAD_VARS)
    argv = [sys.executable, os.path.abspath(__file__), CHILD, checkout,
            args.workload, str(args.seed), str(args.passes), mode]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"child for {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- the driver ----------------------------------------------------------------


def _ms(seconds: float) -> str:
    return f"{1000 * seconds:.1f}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [CHILD]:
        checkout, workload, seed, passes, mode = argv[1:]
        if mode not in MODES:
            raise SystemExit(f"unknown child mode {mode!r}")
        print(json.dumps(child(checkout, workload, int(seed), int(passes),
                               mode)))
        return 0
    args = parse_args(argv)
    dirs = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    for side, path in dirs.items():
        if not os.path.isfile(os.path.join(path, "src", "kgpaths", "__init__.py")):
            print(f"error: no src/kgpaths under {side} {path}", file=sys.stderr)
            return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds "
          f"of {args.passes} timed passes per side")
    print(f"parent {dirs['parent']}\nchange {dirs['change']}")
    results = {side: [] for side in SIDES}
    winners = []
    for r in range(args.rounds):
        times = {}
        for side in round_order(r):
            result = run_child(dirs[side], args)
            results[side].append(result)
            times[side] = result["times"]
        winners.append(round_winner(times))
        print(f"round {r + 1} ({' then '.join(round_order(r))}): "
              + ", ".join(f"{side} median "
                          f"{_ms(statistics.median(times[side]))} ms"
                          for side in SIDES)
              + f" -> {winners[-1]}")
        for side in SIDES:
            print(f"  {side} passes (ms): " + " ".join(map(_ms, times[side])))
    for side in SIDES:
        runs = results[side]
        passes = [t for run in runs for t in run["times"]]
        print(f"{side}: median pass {_ms(statistics.median(passes))} ms "
              f"({runs[0]['episodes']} episodes); full collections "
              f"{sum(run['full_collections'] for run in runs) / len(passes):.2f} "
              f"per pass, {_ms(sum(run['gc_seconds'] for run in runs) / len(passes))} "
              f"ms per pass; tracked objects after loading "
              f"{statistics.median(run['tracked'] for run in runs):.0f}")
    wins = count_wins(winners)
    print(f"wins: change {wins['change']}, parent {wins['parent']}, "
          f"tie {wins['tie']} of {args.rounds} rounds")
    print(count_line({side: run_child(dirs[side], args, "count")["calls"]
                      for side in SIDES}))
    print("\n".join(code_line_report(
        {side: package_code_lines(dirs[side]) for side in SIDES})))
    if args.profile:
        print(f"profile of {args.profile}, {args.passes} passes:")
        print(run_child(dirs[args.profile], args, "profile")["profile"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
