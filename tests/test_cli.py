"""CLI workbench: subcommands, exit codes, reproducible reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latent_ising.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def model_file(tmp_path, capsys):
    path = tmp_path / "truth.nwk"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "6", "--low", "0.3", "--high", "0.8",
        "--seed", "5", "--out", str(path),
    )
    assert code == 0
    return path


def test_gen_writes_parseable_tree(model_file):
    from latent_ising import parse_tree

    tree = parse_tree(model_file.read_text())
    assert tree.topology.leaf_count == 6


def test_sample_estimate_pipeline(tmp_path, capsys, model_file):
    samples = tmp_path / "draws.dat"
    code, out, _ = run_cli(
        capsys, "sample", "--tree", str(model_file), "--m", "5000",
        "--seed", "1", "--out", str(samples),
    )
    assert code == 0
    assert json.loads(out)["metrics"]["m"] == 5000

    est = tmp_path / "est.json"
    code, out, _ = run_cli(
        capsys, "estimate", "--samples", str(samples), "--delta", "0.05",
        "--out", str(est),
    )
    assert code == 0
    payload = json.loads(est.read_text())
    assert payload["n"] == 6 and payload["m"] == 5000


def test_learn_known_and_eval_tv(tmp_path, capsys, model_file):
    samples = tmp_path / "draws.dat"
    run_cli(capsys, "sample", "--tree", str(model_file), "--m", "30000",
            "--seed", "2", "--out", str(samples))
    fitted = tmp_path / "fitted.nwk"
    code, out, _ = run_cli(
        capsys, "learn-known", "--tree", str(model_file), "--samples", str(samples),
        "--delta", "0.05", "--out", str(fitted),
    )
    assert code == 0
    assert json.loads(out)["metrics"]["signs_consistent"]

    code, out, _ = run_cli(capsys, "eval-tv", str(model_file), str(fitted))
    assert code == 0
    assert 0.0 <= json.loads(out)["metrics"]["tv"] <= 0.1


def test_eval_tv_identical_models(capsys, model_file):
    code, out, _ = run_cli(capsys, "eval-tv", str(model_file), str(model_file))
    assert code == 0
    assert json.loads(out)["metrics"]["tv"] == 0.0


def test_learn_unknown_and_identity(tmp_path, capsys, model_file):
    samples = tmp_path / "draws.dat"
    run_cli(capsys, "sample", "--tree", str(model_file), "--m", "80000",
            "--seed", "3", "--out", str(samples))
    forest = tmp_path / "forest.nwk"
    code, out, _ = run_cli(
        capsys, "learn-unknown", "--samples", str(samples), "--delta", "0.05",
        "--out", str(forest),
    )
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["components"] >= 1
    assert metrics["xi"] * metrics["delta_split"] >= metrics["eta"] - 1e-12
    covered = sorted(
        leaf for comp in metrics["component_detail"] for leaf in comp["leaves"]
    )
    assert covered == list(range(1, 7))

    code, out, _ = run_cli(
        capsys, "test-identity", "--samples", str(samples), "--tree", str(forest),
        "--eps", "0.3", "--delta", "0.05",
    )
    assert code == 0
    assert json.loads(out)["metrics"]["decision"] in ("accept", "reject")


def test_interpolate_emits_trace(tmp_path, capsys, model_file):
    other = tmp_path / "other.nwk"
    run_cli(capsys, "gen", "--n", "6", "--low", "0.3", "--high", "0.8",
            "--seed", "9", "--out", str(other))
    trace = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "interpolate", "--source", str(model_file), "--target", str(other),
        "--out", str(trace),
    )
    assert code == 0
    payload = json.loads(trace.read_text())
    assert payload["epochs"] <= 6


def test_bench_csv_format(tmp_path, capsys, model_file):
    out_csv = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--tree", str(model_file), "--m-list", "500,2000",
        "--trials", "2", "--delta", "0.1", "--seed", "0",
        "--out", str(out_csv), "--format", "csv",
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "m,trial,tv"
    assert len(lines) == 5
    assert "\r" not in out_csv.read_text()


def test_domain_error_exit_code(tmp_path, capsys):
    big = tmp_path / "big.nwk"
    run_cli(capsys, "gen", "--n", "20", "--low", "0.2", "--high", "0.8",
            "--seed", "1", "--out", str(big))
    code, out, err = run_cli(capsys, "eval-tv", str(big), str(big))
    assert code == 1
    assert json.loads(err)["error"] == "TooLarge"
    assert out == ""


def test_missing_input_file_exit_code(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "estimate", "--samples", str(tmp_path / "missing.txt"),
        "--out", str(tmp_path / "est.json"),
    )
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert out == ""


def test_sample_rejects_leaves_not_1_to_n(tmp_path, capsys):
    model = tmp_path / "gap.nwk"
    model.write_text("((0:0.5,2:0.5):0.8,(3:0.5,4:0.5):1.0);\n")
    samples = tmp_path / "draws.dat"
    code, out, err = run_cli(
        capsys, "sample", "--tree", str(model), "--m", "100", "--seed", "1",
        "--out", str(samples),
    )
    assert code == 1
    assert json.loads(err) == {
        "error": "DimensionMismatch", "message": "model leaves must be labeled 1..n",
    }
    assert out == ""
    assert not samples.exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["learn-known"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--low", "0.5", "--high", "0.2"], "need -1 <= low <= high <= 1, got low=0.5, high=0.2"),
        (["--low", "nan"], "need -1 <= low <= high <= 1, got low=nan, high=1.0"),
        (["--high", "1.5"], "need -1 <= low <= high <= 1, got low=-1.0, high=1.5"),
        (["--seed", "-1"], "seed must be non-negative"),
    ],
    ids=["low-above-high", "nan-low", "high-above-one", "negative-seed"],
)
def test_gen_bad_parameter_is_a_domain_error(tmp_path, capsys, flags, message):
    out_file = tmp_path / "t.nwk"
    code, out, err = run_cli(capsys, "gen", "--n", "5", *flags, "--out", str(out_file))
    assert code == 1
    assert json.loads(err) == {"error": "BadParameter", "message": message}
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("m_list", ["100,abc", ",", "", "1.5"], ids=["word", "comma", "empty", "float"])
def test_bench_malformed_m_list_is_a_usage_error(tmp_path, capsys, model_file, m_list):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--tree", str(model_file), "--m-list", m_list,
              "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
    assert "--m-list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "0"], "need at least one trial, got 0"),
        (["--m-list", "100"], "a slope needs at least two distinct m values, got [100]"),
        (["--m-list", "100,100"], "a slope needs at least two distinct m values, got [100]"),
    ],
    ids=["zero-trials", "one-m", "repeated-m"],
)
def test_bench_without_a_slope_is_a_domain_error(tmp_path, capsys, model_file, flags, message):
    out_file = tmp_path / "b.csv"
    code, out, err = run_cli(
        capsys, "bench", "--tree", str(model_file), "--trials", "1", *flags,
        "--out", str(out_file),
    )
    assert code == 1
    assert json.loads(err) == {"error": "BadParameter", "message": message}
    assert out == ""
    assert not out_file.exists()


def test_repeated_main_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    steps = [
        ["gen", "--n", "15", "--seed", "1", "--out", "big.nwk"],
        ["eval-tv", "big.nwk", "big.nwk"],  # TooLarge: exit 1
        ["learn-known"],  # missing required flags: exit 2
        ["gen", "--n", "5", "--seed", "2", "--out", "a.nwk"],
        ["eval-tv", "a.nwk", "a.nwk"],
        ["eval-tv", "a.nwk", "--bogus"],  # unknown flag: exit 2
        ["eval-tv", "a.nwk", "missing.nwk"],  # FileNotFoundError: exit 1
        ["gen", "--n", "5", "--seed", "2", "--out", "a.nwk"],
    ]
    fresh_dir, here_dir = tmp_path / "fresh", tmp_path / "here"
    fresh_dir.mkdir()
    here_dir.mkdir()
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    fresh = []
    for argv in steps:
        done = subprocess.run(
            [sys.executable, "-m", "latent_ising.cli", *argv], cwd=fresh_dir, env=env,
            capture_output=True, text=True, timeout=120,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    monkeypatch.chdir(here_dir)
    here = []
    for argv in steps:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        here.append((code, captured.out, captured.err))
    assert [code for code, _, _ in here] == [0, 1, 2, 0, 0, 2, 1, 0]
    assert here == fresh
    for name in ("big.nwk", "a.nwk"):
        assert (here_dir / name).read_bytes() == (fresh_dir / name).read_bytes()


def test_reports_byte_identical(tmp_path, capsys, model_file):
    samples = tmp_path / "draws.dat"
    args = ("sample", "--tree", str(model_file), "--m", "1000",
            "--seed", "4", "--out", str(samples))
    _, first, _ = run_cli(capsys, *args)
    first_file = samples.read_bytes()
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert samples.read_bytes() == first_file
