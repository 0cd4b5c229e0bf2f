"""Run the benchmark on many seeds and summarise it as one results file.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/NAME.json

For each workload in ``BENCHMARK.json`` (or those named by
``--workloads``) this runs ``run.py --trace 0`` once per seed, one run at a
time, then one ``--trace 1`` run on the first seed. The file holds every
run's metrics and details, and per end-to-end metric the median, the
quartiles and the spread: the distance between the quartiles as a share of
the median, set beside the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=900, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return {"seed": seed, "detail": json.loads(detail),
            "result": json.loads(result)}


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else None
        out[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": metric["bound"], "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = seed_range(args.seeds)
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, seconds, 0))
            print(name, seed, runs[-1]["result"]["correct"], file=sys.stderr)
        traced = run(name, seeds[0], seconds, 1)
        report["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "end_to_end": summarise(runs, spec),
            "runs": runs,
            "traced": traced,
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, w in report["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:13s} {metric:27s} median {s['median']:12.4f} "
                  f"spread {s['spread']:.4f} bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
