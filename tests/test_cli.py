"""CLI workbench: subcommands, exit codes, reproducible reports."""

import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import latent_ising.distribution as distribution
from latent_ising import (
    BadParameter,
    DimensionMismatch,
    EmptySample,
    correlations,
    normalize,
    parse_tree,
    random_weighted_tree,
)
from latent_ising.cli import bench_sweep, main


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
    assert set(metrics) == {"components", "component_detail", "eta", "xi", "clamped"}
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


@pytest.mark.parametrize("eps", ["nan", "1.5", "0"])
def test_identity_eps_outside_unit_interval_is_a_domain_error(tmp_path, capsys, model_file, eps):
    samples = tmp_path / "draws.dat"
    run_cli(capsys, "sample", "--tree", str(model_file), "--m", "200",
            "--seed", "3", "--out", str(samples))
    code, out, err = run_cli(
        capsys, "test-identity", "--samples", str(samples), "--tree", str(model_file),
        "--eps", eps, "--delta", "0.05",
    )
    assert code == 1
    assert json.loads(err) == {
        "error": "BadParameter", "message": f"eps must be in (0, 1], got {float(eps)}"
    }
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["learn-known", "--out", "{out}"], "samples have 6 columns, topology has 5 leaves"),
        (["test-identity", "--eps", "0.3"], "samples have 6 columns, topology has 5 leaves"),
    ],
    ids=["learn-known", "test-identity"],
)
def test_sample_width_mismatch_is_a_dimension_error(tmp_path, capsys, model_file, argv, message):
    samples, tree, out_file = tmp_path / "draws.dat", tmp_path / "five.nwk", tmp_path / "fit.nwk"
    run_cli(capsys, "sample", "--tree", str(model_file), "--m", "200",
            "--seed", "3", "--out", str(samples))
    tree.write_text("((1:0.5,2:0.5):0.5,3:0.5,(4:0.5,5:0.5):0.5);\n")
    argv = [a.format(out=out_file) for a in argv]
    code, out, err = run_cli(
        capsys, argv[0], "--samples", str(samples), "--tree", str(tree), *argv[1:]
    )
    assert code == 1
    assert json.loads(err) == {"error": "DimensionMismatch", "message": message}
    assert out == ""
    assert not out_file.exists()


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


def test_bench_csv_is_pinned(tmp_path, capsys):
    tree, out_csv = tmp_path / "truth8.nwk", tmp_path / "bench8.csv"
    assert main(["gen", "--n", "8", "--low", "-0.9", "--high", "0.9", "--seed", "13",
                 "--out", str(tree)]) == 0
    assert main(["bench", "--tree", str(tree), "--m-list", "500,2000", "--trials", "3",
                 "--format", "csv", "--out", str(out_csv)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert digest == "4e2bb36cf796634f89be0b96dadd2c6e1f52e283802d9196276b7ec72f4ef14e"


def test_bench_sweep_builds_the_truth_table_once(monkeypatch):
    built = []
    real = distribution.even_subset_coefficients

    def counted(topology, alpha):
        built.append(alpha.values.tobytes())
        return real(topology, alpha)

    monkeypatch.setattr(distribution, "even_subset_coefficients", counted)
    tree = random_weighted_tree(8, np.random.default_rng(13), -0.9, 0.9)
    rows = bench_sweep(tree, [500, 2000], 3, 0.05, 0)
    truth = correlations(normalize(tree)).values.tobytes()
    assert len(built) == 1 + len(rows)  # the truth once, then one table per fit
    assert built.count(truth) == 1


def test_domain_error_exit_code(tmp_path, capsys):
    big = tmp_path / "big.nwk"
    run_cli(capsys, "gen", "--n", "21", "--low", "0.2", "--high", "0.8",
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


#: leaves 2..5: four sample columns, but not the column labels 1..n
GAP_TREE = "((2:0.5,3:0.5):0.5,(4:0.5,5:0.5):0.5);\n"


def test_bench_sweep_rejects_leaves_not_1_to_n():
    with pytest.raises(DimensionMismatch, match=r"^tree leaves must be labeled 1\.\.n$"):
        bench_sweep(parse_tree(GAP_TREE), [100, 200], 1, 0.1, 0)


def test_bench_sweep_rejects_bad_labels_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking the leaf labels")

    monkeypatch.setattr("latent_ising.cli.sample", no_sampling)
    with pytest.raises(DimensionMismatch, match=r"^tree leaves must be labeled 1\.\.n$"):
        bench_sweep(parse_tree(GAP_TREE), [2_000_000], 1, 0.1, 0)


@pytest.mark.parametrize("m_list", [[4_000_000], [4_000_000, 4_000_000]], ids=["one-m", "repeated-m"])
def test_bench_sweep_rejects_one_distinct_m_before_sampling(monkeypatch, m_list):
    def no_sampling(*args):
        raise AssertionError("sampled before checking the m-list")

    monkeypatch.setattr("latent_ising.cli.sample", no_sampling)
    tree = parse_tree("((1:0.5,2:0.5):0.5,3:0.5,4:0.5);")
    message = r"^a slope needs at least two distinct m values, got \[4000000\]$"
    with pytest.raises(BadParameter, match=message):
        bench_sweep(tree, m_list, 3, 0.1, 0)


@pytest.mark.parametrize(
    "m_list, delta, seed, error, message",
    [
        ([4_000_000, 0], 0.1, 0, EmptySample, r"need at least one sample, got 0"),
        ([4_000_000, 8_000_000], 2.0, 0, BadParameter, r"delta must be in \(0, 1\), got 2\.0"),
        ([4_000_000, 8_000_000], 0.1, 2**128 - 1, BadParameter,  # trial 1's seed overflows
         rf"seed must be below 2\*\*128, got {2**128 - 1 + 7919}"),
    ],
    ids=["non-positive-m", "delta", "derived-seed"],
)
def test_bench_sweep_checks_every_draw_before_sampling(
    monkeypatch, m_list, delta, seed, error, message
):
    def no_sampling(*args):
        raise AssertionError("sampled before checking every draw's input")

    monkeypatch.setattr("latent_ising.cli.sample", no_sampling)
    tree = parse_tree("((1:0.5,2:0.5):0.5,3:0.5,4:0.5);")
    with pytest.raises(error, match=f"^{message}$"):
        bench_sweep(tree, m_list, 3, delta, seed)


#: sample counts whose (m, 6) matrix numpy refuses to shape, before allocating
#: anything: m * 6 is 2**63 or more; 10**400 is beyond float range too
HUGE_COUNTS = pytest.mark.parametrize(
    "m", [2**63, 10**24, 10**300, 10**400], ids=["2**63", "10**24", "10**300", "10**400"]
)


@HUGE_COUNTS
def test_sample_count_beyond_one_array_is_too_large(tmp_path, capsys, model_file, m):
    samples = tmp_path / "draws.dat"
    code, out, err = run_cli(
        capsys, "sample", "--tree", str(model_file), "--m", str(m), "--out", str(samples),
    )
    assert code == 1
    assert json.loads(err) == {
        "error": "TooLarge", "message": f"{m} samples of 6 leaves are more than one array can hold",
    }
    assert out == ""
    assert not samples.exists()


@HUGE_COUNTS
def test_bench_count_beyond_one_array_fails_before_sampling(
    tmp_path, capsys, monkeypatch, model_file, m
):
    def no_sampling(*args):
        raise AssertionError("sampled before checking every draw's sample count")

    monkeypatch.setattr("latent_ising.cli.sample", no_sampling)
    out_file = tmp_path / "bench.csv"
    code, out, err = run_cli(
        capsys, "bench", "--tree", str(model_file), "--m-list", f"100,{m}",
        "--trials", "1", "--out", str(out_file),
    )
    assert code == 1
    assert json.loads(err)["error"] == "TooLarge"
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-known", "--tree", "{tree}", "--samples", "{samples}", "--out", "{out}"],
        ["bench", "--tree", "{tree}", "--m-list", "100,200", "--trials", "1", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_learning_rejects_leaves_not_1_to_n(tmp_path, capsys, argv):
    tree = tmp_path / "gap.nwk"
    tree.write_text(GAP_TREE)
    samples = tmp_path / "draws.dat"
    samples.write_text("# n=4 m=2\n+1 -1 +1 -1\n-1 -1 +1 +1\n")
    out_file = tmp_path / "result"
    code, out, err = run_cli(capsys, *_fill(argv, tree=tree, samples=samples, out=out_file))
    assert code == 1
    assert json.loads(err) == {
        "error": "DimensionMismatch", "message": "tree leaves must be labeled 1..n",
    }
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-known", "--tree", "{forest}", "--samples", "{samples}", "--out", "{out}"],
        ["interpolate", "--source", "{forest}", "--target", "{forest}", "--out", "{out}"],
        ["bench", "--tree", "{forest}", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_forest_where_a_tree_is_needed_is_malformed(tmp_path, capsys, samples_file, argv):
    forest = tmp_path / "forest.nwk"
    forest.write_text("((1:0.5,2:0.5):0.5,3:0.5);\n(4:0.5,5:0.5);\n")
    out_file = tmp_path / "result"
    code, out, err = run_cli(
        capsys, *_fill(argv, forest=forest, samples=samples_file, out=out_file)
    )
    assert code == 1
    assert json.loads(err) == {
        "error": "MalformedTree",
        "message": f"{forest} holds a forest where a single tree is needed",
    }
    assert out == ""
    assert not out_file.exists()


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
        (["--seed", str(2**128)], f"seed must be below 2**128, got {2**128}"),
    ],
    ids=["low-above-high", "nan-low", "high-above-one", "negative-seed", "seed-too-large"],
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
    "flags, message, model",
    [
        (["--trials", "0"], "need at least one trial, got 0", None),
        (["--m-list", "100"], "a slope needs at least two distinct m values, got [100]", None),
        (["--m-list", "100,100"], "a slope needs at least two distinct m values, got [100]", None),
        # a zero weight fits exactly: every fitted weight clamps to 0
        (["--m-list", "100,200"], "mean TV is 0 at m=100, so log(mean TV) has no slope",
         "(1:0.0,2:1.0);\n"),
    ],
    ids=["zero-trials", "one-m", "repeated-m", "exact-fits"],
)
def test_bench_without_a_slope_is_a_domain_error(
    tmp_path, capsys, model_file, flags, message, model
):
    if model is not None:
        model_file = tmp_path / "zero.nwk"
        model_file.write_text(model)
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
        ["gen", "--n", "21", "--seed", "1", "--out", "big.nwk"],
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


@pytest.fixture
def samples_file(tmp_path, capsys, model_file):
    path = tmp_path / "draws.dat"
    code, _, _ = run_cli(capsys, "sample", "--tree", str(model_file), "--m", "2000",
                         "--seed", "6", "--out", str(path))
    assert code == 0
    return path


def _fill(argv, **paths):
    return [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in argv]


_REPORT_CASES = [
    (["gen", "--n", "5", "--low", "-0.5", "--high", "0.5", "--seed", "3", "--out", "{out}"],
     {"n": 5, "low": -0.5, "high": 0.5, "seed": 3}),
    (["sample", "--tree", "{tree}", "--m", "50", "--seed", "2", "--out", "{out}"],
     {"tree": "{tree}", "m": 50, "seed": 2}),
    (["estimate", "--samples", "{samples}", "--delta", "0.1", "--out", "{out}"],
     {"samples": "{samples}", "delta": 0.1}),
    (["learn-known", "--tree", "{tree}", "--samples", "{samples}", "--delta", "0.1",
      "--out", "{out}"],
     {"tree": "{tree}", "samples": "{samples}", "delta": 0.1}),
    (["learn-unknown", "--samples", "{samples}", "--delta", "0.1", "--out", "{out}"],
     {"samples": "{samples}", "delta": 0.1}),
    (["test-identity", "--samples", "{samples}", "--tree", "{tree}", "--eps", "0.3",
      "--delta", "0.1"],
     {"samples": "{samples}", "tree": "{tree}", "eps": 0.3, "delta": 0.1}),
    (["eval-tv", "{tree}", "{tree}"], {"model_a": "{tree}", "model_b": "{tree}"}),
    (["interpolate", "--source", "{tree}", "--target", "{tree}", "--out", "{out}"],
     {"source": "{tree}", "target": "{tree}"}),
    (["bench", "--tree", "{tree}", "--m-list", "500,02000", "--trials", "1",
      "--delta", "0.1", "--seed", "4", "--out", "{out}", "--format", "json"],
     {"tree": "{tree}", "m_list": "500,2000", "trials": 1, "delta": 0.1, "seed": 4,
      "format": "json"}),
]


@pytest.mark.parametrize("argv, config", _REPORT_CASES, ids=[argv[0] for argv, _ in _REPORT_CASES])
def test_report_config_is_the_arguments_but_out(
    tmp_path, capsys, model_file, samples_file, argv, config
):
    paths = dict(tree=model_file, samples=samples_file, out=tmp_path / "result")
    code, out, _ = run_cli(capsys, *_fill(argv, **paths))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == argv[0]
    assert report["config"] == {
        key: _fill([value], **paths)[0] if isinstance(value, str) else value
        for key, value in config.items()
    }
    assert report["artifacts"] == ([str(paths["out"])] if "{out}" in argv else [])


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--tree", "{bad}", "--m", "10", "--out", "{out}"],
        ["learn-known", "--tree", "{bad}", "--samples", "{samples}", "--out", "{out}"],
        ["test-identity", "--samples", "{samples}", "--tree", "{bad}", "--eps", "0.3"],
        ["eval-tv", "{bad}", "{bad}"],
        ["interpolate", "--source", "{bad}", "--target", "{bad}", "--out", "{out}"],
        ["bench", "--tree", "{bad}", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_undecodable_tree_file_is_a_domain_error(tmp_path, capsys, samples_file, argv):
    bad = tmp_path / "bad.nwk"
    bad.write_bytes(b"\xff\xfe((1:0.5,2:0.5):1,3:0.2);\n")
    out_file = tmp_path / "result"
    code, out, err = run_cli(capsys, *_fill(argv, bad=bad, samples=samples_file, out=out_file))
    assert code == 1
    assert json.loads(err)["error"] == "MalformedTree"
    assert out == ""
    assert not out_file.exists()


#: the commands that write an ``--out`` file
_WRITER_CASES = [argv for argv, _ in _REPORT_CASES if "{out}" in argv]


def _write_out(capsys, model_file, samples_file, argv, out):
    return run_cli(capsys, *_fill(argv, tree=model_file, samples=samples_file, out=out))


@pytest.mark.parametrize("argv", _WRITER_CASES, ids=lambda argv: argv[0])
def test_out_overwrites_a_longer_file_in_place(tmp_path, capsys, model_file, samples_file, argv):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert _write_out(capsys, model_file, samples_file, argv, fresh)[0] == 0
    old.write_bytes(b"x" * (fresh.stat().st_size + 5000))
    inode = old.stat().st_ino
    assert _write_out(capsys, model_file, samples_file, argv, old)[0] == 0
    assert old.read_bytes() == fresh.read_bytes()
    assert old.stat().st_ino == inode


@pytest.mark.parametrize("argv", _WRITER_CASES, ids=lambda argv: argv[0])
def test_out_symlink_is_written_through(tmp_path, capsys, model_file, samples_file, argv):
    fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
    assert _write_out(capsys, model_file, samples_file, argv, fresh)[0] == 0
    target.write_bytes(b"x" * (fresh.stat().st_size + 5000))
    link.symlink_to(target)
    assert _write_out(capsys, model_file, samples_file, argv, link)[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("argv", _WRITER_CASES, ids=lambda argv: argv[0])
def test_out_fifo_is_written_not_truncated(
    tmp_path, capsys, monkeypatch, model_file, samples_file, argv
):
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    assert _write_out(capsys, model_file, samples_file, argv, fresh)[0] == 0
    os.mkfifo(fifo)
    truncated = []
    monkeypatch.setattr(os, "ftruncate", lambda *args: truncated.append(args))
    got = []
    # a daemon, so a writer that never opens the FIFO fails the test, not hangs it
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = _write_out(capsys, model_file, samples_file, argv, fifo)[0]
    reader.join(timeout=30)
    assert code == 0 and got == [fresh.read_bytes()]
    assert truncated == [] and stat.S_ISFIFO(fifo.stat().st_mode)


@pytest.mark.parametrize("argv", _WRITER_CASES, ids=lambda argv: argv[0])
def test_out_dev_null(capsys, model_file, samples_file, argv):
    assert _write_out(capsys, model_file, samples_file, argv, os.devnull)[0] == 0


@pytest.mark.parametrize("argv", _WRITER_CASES, ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["directory", "missing parent", "full device"])
def test_out_that_cannot_be_written_is_a_file_error(
    tmp_path, capsys, model_file, samples_file, argv, where
):
    if where == "directory":
        out, error, code = str(tmp_path), "IsADirectoryError", errno.EISDIR
    elif where == "missing parent":
        out, error, code = str(tmp_path / "missing" / "out"), "FileNotFoundError", errno.ENOENT
    else:
        out, error, code = "/dev/full", "OSError", errno.ENOSPC
        if not os.path.exists(out):
            pytest.skip("no /dev/full on this system")
    message = f"[Errno {code}] {os.strerror(code)}"
    if where != "full device":  # the open fails, so the error names the path
        message += f": {out!r}"
    status, stdout, err = _write_out(capsys, model_file, samples_file, argv, out)
    assert status == 1 and stdout == ""
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_out_read_only_file_is_left_alone(tmp_path, capsys, model_file):
    out = tmp_path / "locked.nwk"
    out.write_bytes(b"keep")
    out.chmod(0o444)
    code, _, err = run_cli(capsys, "gen", "--n", "5", "--out", str(out))
    assert code == 1 and json.loads(err)["error"] == "PermissionError"
    assert out.read_bytes() == b"keep"


#: the pinned pipeline, written as shell commands in order, each with the
#: sha256 of the file it writes (``--out`` or its stdout) where one is pinned;
#: CI's "Installed entry point" step also runs a few through the installed script
_CI_PINS = [
    ("latent-ising gen --n 6 --low 0.3 --high 0.8 --seed 1 --out truth.nwk", None),
    ("latent-ising gen --n 6 --low 0.3 --high 0.8 --seed 3 --out other.nwk", None),
    ("latent-ising sample --tree truth.nwk --m 5000 --seed 2 --out draws.txt",
     "c0f9de86eb457c34b64974da253b87fba7a9b0e7e2a2f35c72d5ea92701409ce"),
    ("latent-ising estimate --samples draws.txt --out estimate.json",
     "16c17422f2a0363918aa98cb47986327142321efbc2196b841e4fc2bfcbd72b4"),
    ("cat draws.txt | latent-ising estimate --samples /dev/stdin --out piped.json",
     "16c17422f2a0363918aa98cb47986327142321efbc2196b841e4fc2bfcbd72b4"),
    ("latent-ising learn-known --tree truth.nwk --samples draws.txt --out fit.nwk",
     "daaca2996e4f5b91077b29a8c41c7b82cafab8d7fd826607dcbaf948504bc63f"),
    ("latent-ising learn-unknown --samples draws.txt --out forest.nwk",
     "58e38bb130fb44a06c060988b44915c7145ed3dcc9f73cafb97741fa84142c08"),
    ("latent-ising eval-tv truth.nwk fit.nwk > tv_fit.json",
     "92c6da941995ff08713154c628bfaacdfe098e953a766e56c003b9351611acc7"),
    ("latent-ising eval-tv truth.nwk forest.nwk > tv_forest.json",
     "4fc20ee9efc27aae22e5ca8df7432fead62d49661d40802f9790d334aa792c97"),
    ("latent-ising gen --n 12 --low -0.9 --high 0.9 --seed 5 --out a12.nwk", None),
    ("latent-ising gen --n 12 --low -0.9 --high 0.9 --seed 6 --out b12.nwk", None),
    ("latent-ising eval-tv a12.nwk b12.nwk > tv_12.json",
     "5e3d50ed00a5c6896827e7ecaf4d7ca951625d9517edf0f7ad836d18fbcd3fae"),
    ("latent-ising gen --n 20 --low -0.9 --high 0.9 --seed 7 --out a20.nwk", None),
    ("latent-ising gen --n 20 --low -0.9 --high 0.9 --seed 8 --out b20.nwk", None),
    ("latent-ising eval-tv a20.nwk b20.nwk > tv_20.json",
     "9783d43ee42cfa98a61a81672caa4a65dbe2ea92c656af7bb3ca5af73f4b3b40"),
    ("latent-ising interpolate --source a20.nwk --target b20.nwk --out trace20.json",
     "abe6dd2f8e247d2b4525ce7a39b5025337d2570d924259ae2b5b33444b52824e"),
    ("latent-ising gen --n 64 --low -0.9 --high 0.9 --seed 11 --out a64.nwk", None),
    ("latent-ising gen --n 64 --low -0.9 --high 0.9 --seed 12 --out b64.nwk", None),
    ("latent-ising interpolate --source a64.nwk --target b64.nwk --out trace64.json",
     "d94e75dbcecedb3c77e7beb42a5cf939b66c785f98703852a9b1f7c1339d8bcb"),
    ("latent-ising gen --n 12 --low -0.9 --high 0.9 --seed 9 --out truth12.nwk", None),
    ("latent-ising sample --tree truth12.nwk --m 5000 --seed 10 --out draws12.txt", None),
    ("latent-ising learn-known --tree truth12.nwk --samples draws12.txt --out fit12.nwk",
     "e80648e6c925722d88ccbaf40fa85c8780ea6352898f10022de4df011348a459"),
    ("latent-ising learn-unknown --samples draws12.txt --out forest12.nwk",
     "06cd78efae1f5ea71b6d65245d2e98b7795286c86f7152cc4c1a0f3df47bd433"),
    ("latent-ising eval-tv truth12.nwk fit12.nwk > tv_fit12.json",
     "d024f968ec6989caeec64068c3d22d16f5a0c1a935da8c8fc187753a110bc7aa"),
    ("latent-ising eval-tv truth12.nwk forest12.nwk > tv_forest12.json",
     "c8c9aec3d9eb4901deec6fc5edb0aa09c4815c95d229eb186d14d3ea530343d6"),
    ("latent-ising test-identity --samples draws.txt --tree truth.nwk --eps 0.1 > identity.json",
     "0685ff146af8f82f6de1b4dc87e49ffc3223702851b6e3f4f543ee30a64ae3ce"),
    ("latent-ising interpolate --source truth.nwk --target other.nwk --out trace.json",
     "a87d2942a130ecde2991ff5c1893ae681292daff28f2a00f82090053800daabc"),
    ("latent-ising bench --tree truth.nwk --m-list 2000,8000 --trials 2 --out bench.csv",
     "e9d14d69e9bd66c40dd5161310fb102a54c7835d333de83691f4549b4e14086f"),
]


def _main_on_piped_stdin(argv, writer) -> int:
    """``main(argv)`` with file descriptor 0 read from ``writer``'s standard
    output through a pipe, as a shell pipeline feeds it."""
    with subprocess.Popen(writer, stdout=subprocess.PIPE) as feeder:
        saved = os.dup(0)
        try:
            os.dup2(feeder.stdout.fileno(), 0)
            return main(argv)
        finally:
            # restoring fd 0, then leaving the block, closes the pipe's read
            # ends, so an unread rest cannot block the writer
            os.dup2(saved, 0)
            os.close(saved)


def test_ci_entry_point_pins(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sum(digest is not None for _, digest in _CI_PINS) == 18
    for line, digest in _CI_PINS:
        piped, _, command = line.rpartition(" | ")
        command, _, redirect = command.partition(" > ")
        argv = command.split()[1:]
        if piped:
            code = _main_on_piped_stdin(argv, piped.split())
        else:
            code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if redirect:
            Path(redirect).write_text(out)
        if digest is not None:
            written = redirect or argv[argv.index("--out") + 1]
            assert hashlib.sha256(Path(written).read_bytes()).hexdigest() == digest, line


def test_ci_workflow_checks_only_pinned_digests():
    # the workflow's "Installed entry point" step runs pinned commands and
    # checks each digest against the file a pinned command writes
    workflow = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()
    commands = re.findall(r"^ +((?:cat \S+ \| )?latent-ising (?!--version).*)$", workflow, re.M)
    checks = re.findall(r'^ +echo "([0-9a-f]{64})  (\S+)" \| sha256sum -c$', workflow, re.M)
    assert commands and checks
    assert set(commands) <= {line for line, _ in _CI_PINS}
    pinned = set()
    for line, digest in _CI_PINS:
        command, _, redirect = line.partition(" > ")
        argv = command.split()
        pinned.add((digest, redirect or argv[argv.index("--out") + 1]))
    assert set(checks) <= pinned


def test_ci_entry_point_pins_hold_over_longer_files(tmp_path, capsys, monkeypatch):
    # the second replay overwrites every artifact of the first, each padded
    # longer, so every pinned write is a shrinking overwrite in place
    monkeypatch.chdir(tmp_path)
    for replay in range(2):
        if replay:
            for path in tmp_path.iterdir():
                with open(path, "ab") as fh:
                    fh.write(b"padding\n" * 512)
        for line, digest in _CI_PINS:
            piped, _, command = line.rpartition(" | ")
            command, _, redirect = command.partition(" > ")
            argv = command.split()[1:]
            if piped:
                code = _main_on_piped_stdin(argv, piped.split())
            else:
                code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, (replay, line)
            if redirect:
                Path(redirect).write_text(out)
            if digest is not None:
                written = redirect or argv[argv.index("--out") + 1]
                assert hashlib.sha256(Path(written).read_bytes()).hexdigest() == digest, (
                    replay, line)
