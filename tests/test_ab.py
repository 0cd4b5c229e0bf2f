"""``tools/ab.py``'s pairing, win counting, call counting and code-line
counting; no timing."""

import importlib.util
import json
import os

import pytest

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


def _leaf():
    return 1


def _outer():
    total = 0
    for _ in range(3):
        total += _leaf()
    json.dumps(total)  # stdlib code, outside the counted tree
    return total


def test_count_calls_counts_python_calls_under_the_prefix_only():
    here = os.path.dirname(os.path.abspath(__file__)) + os.sep
    assert ab.count_calls(here, _outer) == 4  # _outer, then _leaf 3 times
    assert ab.count_calls(os.path.join(ROOT, "src") + os.sep, _outer) == 0


def test_count_line_gives_change_minus_parent():
    assert ab.count_line({"parent": 5480, "change": 5444}) == (
        "calls into src/kgpaths/ in one warm pass: parent 5480, "
        "change 5444, difference -36")
    assert ab.count_line({"parent": 7, "change": 7}).endswith(
        "difference 0")


def test_a_count_child_repeats_its_count():
    args = ab.parse_args([ROOT, ROOT, "--workload", "pair_island",
                          "--passes", "1"])
    counts = [ab.run_child(ROOT, args, "count")["calls"] for _ in range(2)]
    assert counts[0] == counts[1] > 0


def test_an_unknown_child_mode_is_refused():
    with pytest.raises(SystemExit, match="unknown child mode"):
        ab.main([ab.CHILD, ROOT, "pair_island", "1", "1", "1"])


SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code


class Thing:
    """A class docstring."""

    LABEL = """a string
over two lines, not a docstring"""

    # a comment line
    def method(self):
        """A function
        docstring."""
        "a string statement after the docstring"
        return os.path.join(
            "a",

            "b",
        )


async def run():
    """An async function's docstring."""
    return 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import 1, class 1, LABEL 2, def 1, string statement 1, the call's
    # lines 4 (the blank one inside it not counted), async def 1, return 1
    assert ab.code_lines(SOURCE) == 12
    assert ab.code_lines('"""Only a docstring."""\n') == 0
    assert ab.code_lines("x = 1\n'a string after code, not a docstring'\n") \
        == 2


def test_package_code_lines_count_each_module():
    counts = ab.package_code_lines(ROOT)
    assert "pathenum.py" in counts and "__init__.py" in counts
    with open(os.path.join(ROOT, "src", "kgpaths", "pathenum.py"),
              encoding="utf-8") as f:
        assert counts["pathenum.py"] == ab.code_lines(f.read())


def test_code_line_report_gives_change_minus_parent():
    same = {"a.py": 10, "b.py": 5}
    assert ab.code_line_report({"parent": same, "change": dict(same)}) == [
        "code lines in src/kgpaths/: parent 15, change 15, difference 0"]
    assert ab.code_line_report({"parent": {"a.py": 10, "b.py": 5},
                                "change": {"a.py": 7, "c.py": 2}}) == [
        "code lines in src/kgpaths/: parent 15, change 9, difference -6",
        "  a.py: parent 10, change 7, difference -3",
        "  b.py: parent 5, change 0, difference -5",
        "  c.py: parent 0, change 2, difference 2"]
