"""``tools/ab.py``'s pairing and win counting; no timing."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location(
        "ab", os.path.join(ROOT, "tools", "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load()


def test_rounds_alternate_which_side_runs_first():
    orders = [ab.round_order(r) for r in range(4)]
    assert orders == [("parent", "change"), ("change", "parent"),
                      ("parent", "change"), ("change", "parent")]
    # over any even number of rounds, each side goes first equally often
    firsts = [ab.round_order(r)[0] for r in range(10)]
    assert firsts.count("parent") == firsts.count("change") == 5


def test_round_winner_compares_median_passes():
    # the change's one slow pass does not outweigh its shorter median
    assert ab.round_winner({"parent": [2.0, 2.1, 2.2],
                            "change": [1.0, 1.1, 9.0]}) == "change"
    assert ab.round_winner({"parent": [1.0, 3.0],
                            "change": [2.5, 2.5]}) == "parent"
    assert ab.round_winner({"parent": [1.0, 2.0],
                            "change": [1.5]}) == "tie"


def test_count_wins():
    assert ab.count_wins(["change", "parent", "change", "tie"]) == {
        "parent": 1, "change": 2, "tie": 1}
    assert ab.count_wins([]) == {"parent": 0, "change": 0, "tie": 0}


def test_arguments():
    args = ab.parse_args(["a", "b", "--workload", "pair_island",
                          "--passes", "2", "--profile", "change"])
    assert (args.parent, args.change, args.workload) == ("a", "b",
                                                         "pair_island")
    assert (args.passes, args.profile) == (2, "change")
