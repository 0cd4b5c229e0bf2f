import json

import pytest

from kgpaths.cli import _parse_grid, build_parser, main
from kgpaths.errors import ConfigError
from kgpaths.synthetic import ARGO_QUESTION, argo_fixture, metrics_fixture


@pytest.fixture(scope="module")
def argo_files(tmp_path_factory):
    return argo_fixture().write(tmp_path_factory.mktemp("argo"))


@pytest.fixture(scope="module")
def metrics_files(tmp_path_factory):
    return metrics_fixture().write(tmp_path_factory.mktemp("metrics"))


def query_argv(files, *extra):
    return ["query", files["triples.tsv"], ARGO_QUESTION,
            "--seed-entity", "Argo",
            "--config", files["config.cfg"],
            "--embeddings", files["embeddings.tsv"],
            "--probes", files["probes.json"], *extra]


def test_query_dialogue(argo_files, capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(query_argv(argo_files, "--trace", str(trace))) == 0
    out = capsys.readouterr().out
    assert "answer: New_York_City" in out
    assert "rounds: 2" in out
    rounds = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(rounds) == 2
    assert rounds[0]["answer"] == "Boston"
    assert rounds[0]["edits"] and rounds[1]["answer"] == "New_York_City"


def test_query_single_round_stops_early(argo_files, capsys):
    assert main(query_argv(argo_files, "--set", "rounds=1")) == 0
    out = capsys.readouterr().out
    assert "answer: Boston" in out
    assert "rounds: 1" in out


def test_query_unknown_seed_entity_exits_1(argo_files, capsys):
    argv = query_argv(argo_files)
    argv[argv.index("Argo")] = "Nonexistent"
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_query_missing_graph_file_exits_1(argo_files, capsys):
    argv = query_argv(argo_files)
    argv[1] = "/nonexistent/triples.tsv"
    assert main(argv) == 1


def test_bad_set_value_exits_2(argo_files, capsys):
    assert main(query_argv(argo_files, "--set", "tau=-1")) == 2
    assert "config error" in capsys.readouterr().err
    assert main(query_argv(argo_files, "--set", "mask_gain=800")) == 2
    assert main(query_argv(argo_files, "--set", "alpha=nan")) == 2
    assert main(query_argv(argo_files, "--set", "nonsense")) == 2
    assert main(query_argv(argo_files, "--set", "jobs=2")) == 2
    for removed in ["no_soft_injection=true", "discretize_tau=0.2",
                    "no_align_diagnostics=true"]:
        assert main(query_argv(argo_files, "--set", removed)) == 2


# flags that would alias a RunConfig field: fields are set only through
# --config or --set
REMOVED_FLAGS = [["--seed", "3"], ["--add-inverse"], ["--timings"],
                 ["--rounds", "1"], ["--no-verifier"], ["--no-soft-injection"],
                 ["--single-round"], ["--fixed-weights"],
                 ["--no-align-diagnostics"]]


def test_argparse_usage_error_exits_2():
    query = ["query", "triples.tsv", "question", "--seed-entity", "Argo"]
    bench = ["bench", "triples.tsv", "bench.jsonl"]
    sweep = ["sweep", "triples.tsv", "bench.jsonl", "--grid", "tau=0.1"]
    bad = [["query"], bench + ["--jobs", "2"]]
    bad += [cmd + flag for flag in REMOVED_FLAGS
            for cmd in (query, bench, sweep)]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2, argv


def test_bench_reports_and_reproducibility(metrics_files, capsys, tmp_path):
    def run(json_path):
        argv = ["bench", metrics_files["triples.tsv"],
                metrics_files["bench.jsonl"],
                "--config", metrics_files["config.cfg"],
                "--report-json", str(json_path),
                "--report-csv", str(tmp_path / "report.csv")]
        assert main(argv) == 0
        return capsys.readouterr().out

    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    out1, out2 = run(p1), run(p2)
    assert out1 == out2
    assert p1.read_bytes() == p2.read_bytes()
    summary = json.loads(out1)
    assert summary["overall"]["hit_at_1"] == pytest.approx(0.55)
    assert summary["overall"]["coverage"] == pytest.approx(0.5)
    report = json.loads(p1.read_text())
    assert report["by_hops"]["1"]["hit_at_1"] == pytest.approx(0.625)
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert "latency" not in header


def test_bench_bad_seed_confidence_exits_1_with_its_line(metrics_files,
                                                        capsys, tmp_path):
    with open(metrics_files["bench.jsonl"]) as f:
        lines = f.read().splitlines()
    record = json.loads(lines[2])
    record["seeds"][0]["confidence"] = 1.5
    lines[2] = json.dumps(record)
    bench = tmp_path / "bench.jsonl"
    bench.write_text("\n".join(lines) + "\n")
    argv = ["bench", metrics_files["triples.tsv"], str(bench),
            "--config", metrics_files["config.cfg"]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: seed confidence 1.5 outside [0, 1]" in captured.err


def test_bench_ablation_flags(argo_files, capsys):
    base = ["bench", argo_files["triples.tsv"], argo_files["bench.jsonl"],
            "--config", argo_files["config.cfg"],
            "--embeddings", argo_files["embeddings.tsv"],
            "--probes", argo_files["probes.json"]]
    assert main(base) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["overall"]["hit_at_1"] == 1.0

    assert main(base + ["--set", "rounds=1"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert single["overall"]["hit_at_1"] == 0.0
    assert single["overall"]["coverage"] == full["overall"]["coverage"]

    assert main(base + ["--set", "no_verifier=true"]) == 0
    unverified = json.loads(capsys.readouterr().out)
    assert unverified["overall"]["hit_at_1"] == 0.0


@pytest.mark.parametrize("body", [{"q": 5}, ["host_event", "Boston"],
                                  {ARGO_QUESTION: ["host_event"]}])
def test_malformed_probes_exit_1(argo_files, body, capsys, tmp_path):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps(body))
    argv = ["bench", argo_files["triples.tsv"], argo_files["bench.jsonl"],
            "--config", argo_files["config.cfg"],
            "--embeddings", argo_files["embeddings.tsv"],
            "--probes", str(probes)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "probes" in err
    assert "Traceback" not in err


def test_parse_grid():
    grid = _parse_grid(["tau=0.1,0.2,0.5"])
    assert grid == {"tau": [0.1, 0.2, 0.5]}
    grid = _parse_grid(["alpha,beta,gamma=1:0:0;0:1:0"])
    assert grid["alpha,beta,gamma"] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    assert len(_parse_grid(["alpha,beta,gamma=simplex:0.2"])
               ["alpha,beta,gamma"]) == 21
    with pytest.raises(ConfigError):
        _parse_grid(["tau"])
    with pytest.raises(ConfigError):
        _parse_grid(["alpha,beta,gamma=1:0"])
    with pytest.raises(ConfigError):
        _parse_grid(["tau="])


def test_sweep_command(metrics_files, capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    argv = ["sweep", metrics_files["triples.tsv"],
            metrics_files["bench.jsonl"],
            "--config", metrics_files["config.cfg"],
            "--grid", "tau=0.1,0.2,0.5", "--out", str(out_csv)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(json.loads(line)["tau"] in (0.1, 0.2, 0.5) for line in lines)
    assert len(out_csv.read_text().splitlines()) == 4


def test_sweep_malformed_grid_exits_2(metrics_files, capsys):
    argv = ["sweep", metrics_files["triples.tsv"],
            metrics_files["bench.jsonl"], "--grid", "tau"]
    assert main(argv) == 2
    for removed in ["discretize_tau=0.1,0.2", "no_align_diagnostics=true"]:
        argv[-1] = removed
        assert main(argv) == 2
