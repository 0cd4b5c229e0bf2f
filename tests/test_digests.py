"""``tools/digests.py`` prints the same lines however often and under
whichever string-hash seed it runs."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "digests.py")
SUBSET = ["cli/argo/", "run/pair_island/s1/knn=3/",
          "run/hub_dialogue/s1/default/", "demo/01_path_search.py"]


def _load():
    spec = importlib.util.spec_from_file_location("digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_in_process_and_under_another_hash_seed():
    digests = _load()
    first = digests.digest_lines(SUBSET)
    assert [line.split()[0] for line in first] == [
        "cli/argo/bench.stdout", "cli/argo/report.json", "cli/argo/report.csv",
        "cli/argo/query.stdout", "cli/argo/query.trace",
        "run/pair_island/s1/knn=3/trace", "run/pair_island/s1/knn=3/paths",
        "run/pair_island/s1/knn=3/subgraph", "run/pair_island/s1/knn=3/report",
        "run/hub_dialogue/s1/default/trace",
        "run/hub_dialogue/s1/default/paths",
        "run/hub_dialogue/s1/default/subgraph",
        "run/hub_dialogue/s1/default/report", "demo/01_path_search.py"]
    assert digests.digest_lines(SUBSET) == first

    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    argv = [sys.executable, SCRIPT]
    for prefix in SUBSET:
        argv += ["--select", prefix]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                          check=True)
    assert proc.stdout.splitlines() == first
