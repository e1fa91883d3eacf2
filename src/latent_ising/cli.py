"""Command-line workbench.

Subcommands: gen, sample, estimate, learn-known, learn-unknown,
test-identity, eval-tv, interpolate, bench.  Every command prints one JSON
run report to stdout with the command name, the full configuration
(including the seed), numeric metrics, and the paths of files it wrote.
Reports are byte-identical across runs with identical arguments.

Exit status: 0 on success, 1 on domain and file errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import BadParameter, LatentIsingError
from .estimation import empirical_correlations, report_to_json, require_unit_labels
from .distribution import exact_tv, read_samples, sample, write_samples
from .forest import WeightedForest, as_forest
from .identity import test_identity
from .interpolate import interpolate, trace_to_json
from .learn_known import (
    _check_sample_columns,
    fit_known,
    fit_report,
    learn_from_samples_known,
)
from .learn_unknown import choose_params, learn_unknown_from_correlations
from .newick import parse_model, serialize_forest, serialize_tree
from .trees import correlations, diameter, normalize, random_weighted_tree


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise BadParameter("seed must be non-negative")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _read_model(path: str):
    with open(path) as fh:
        return parse_model(fh.read())


def _read_tree(path: str):
    model = _read_model(path)
    if isinstance(model, WeightedForest):
        raise LatentIsingError(f"{path} holds a forest where a single tree is needed")
    return model


def _report(command: str, config: Dict, metrics: Dict, artifacts: List[str]) -> Dict:
    return {
        "command": command,
        "config": config,
        "metrics": metrics,
        "artifacts": artifacts,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> Dict:
    tree = random_weighted_tree(args.n, _rng(args.seed), args.low, args.high)
    text = serialize_tree(tree)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    return _report(
        "gen",
        {"n": args.n, "low": args.low, "high": args.high, "seed": args.seed},
        {"edges": len(tree.topology.edges), "diameter": diameter(tree.topology)},
        [args.out],
    )


def _cmd_sample(args) -> Dict:
    model = _read_model(args.tree)
    # estimation labels the sample columns 1..n, so other labels cannot round-trip
    require_unit_labels(as_forest(model).leaves, "model")
    draws = sample(model, args.m, args.seed)
    write_samples(args.out, draws)
    return _report(
        "sample",
        {"tree": args.tree, "m": args.m, "seed": args.seed},
        {"n": int(draws.shape[1]), "m": int(draws.shape[0])},
        [args.out],
    )


def _cmd_estimate(args) -> Dict:
    samples = read_samples(args.samples)
    report = empirical_correlations(samples, args.delta)
    with open(args.out, "w") as fh:
        fh.write(report_to_json(report) + "\n")
    return _report(
        "estimate",
        {"samples": args.samples, "delta": args.delta},
        {"n": report.alpha_hat.n, "m": report.m, "eta": report.eta},
        [args.out],
    )


def _cmd_learn_known(args) -> Dict:
    topology = normalize(_read_tree(args.tree)).topology
    samples = read_samples(args.samples)
    _check_sample_columns(topology, samples)
    report = empirical_correlations(samples, args.delta)
    fit = fit_known(topology, report.alpha_hat, report.eta)
    with open(args.out, "w") as fh:
        fh.write(serialize_tree(fit.tree) + "\n")
    metrics = fit_report(fit, report.alpha_hat)
    return _report(
        "learn-known",
        {"tree": args.tree, "samples": args.samples, "delta": args.delta},
        metrics,
        [args.out],
    )


def _cmd_learn_unknown(args) -> Dict:
    samples = read_samples(args.samples)
    estimate = empirical_correlations(samples, args.delta)
    config = choose_params(estimate.eta, estimate.alpha_hat.n)
    forest = learn_unknown_from_correlations(estimate.alpha_hat, estimate.eta)
    with open(args.out, "w") as fh:
        fh.write(serialize_forest(forest))
    per_component = [
        {
            "leaves": list(c.topology.leaves),
            "edges": len(c.topology.edges),
            "binary": c.topology.is_binary(),
        }
        for c in forest.components
    ]
    return _report(
        "learn-unknown",
        {"samples": args.samples, "delta": args.delta},
        {
            "components": len(forest.components),
            "component_detail": per_component,
            "eta": estimate.eta,
            "xi": config.xi,
            "delta_split": config.delta_split,
            "eta_prime": config.eta_prime,
            "clamped": config.clamped,
        },
        [args.out],
    )


def _cmd_test_identity(args) -> Dict:
    samples = read_samples(args.samples)
    reference = as_forest(_read_model(args.tree))
    verdict = test_identity(samples, reference, args.eps, args.delta)
    return _report(
        "test-identity",
        {
            "samples": args.samples,
            "tree": args.tree,
            "eps": args.eps,
            "delta": args.delta,
        },
        {
            "decision": verdict.decision,
            "statistic": verdict.statistic,
            "threshold": verdict.threshold,
        },
        [],
    )


def _cmd_eval_tv(args) -> Dict:
    a = as_forest(_read_model(args.model_a))
    b = as_forest(_read_model(args.model_b))
    tv = exact_tv(a, b)
    return _report(
        "eval-tv",
        {"model_a": args.model_a, "model_b": args.model_b},
        {"tv": tv},
        [],
    )


def _cmd_interpolate(args) -> Dict:
    source = normalize(_read_tree(args.source))
    target = normalize(_read_tree(args.target))
    trace = interpolate(source.topology, target, correlations(source))
    payload = trace_to_json(trace)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return _report(
        "interpolate",
        {"source": args.source, "target": args.target},
        {
            "epochs": trace.epochs,
            "rounds": trace.rounds,
            "moves": len(trace.moves),
            "total_changed_quartets": payload["total_changed_quartets"],
        },
        [args.out],
    )


def bench_sweep(
    tree, m_values: List[int], trials: int, delta: float, seed: int
) -> List[Dict]:
    """TV against the truth for each (sample count, trial) pair."""
    if trials < 1:
        raise BadParameter(f"need at least one trial, got {trials}")
    truth = normalize(tree)
    rows = []
    for k, m in enumerate(m_values):
        for trial in range(trials):
            draws = sample(truth, m, seed + 7919 * trial + 104729 * k)
            fit = learn_from_samples_known(truth.topology, draws, delta)
            rows.append({"m": m, "trial": trial, "tv": exact_tv(truth, fit.tree)})
    return rows


def fitted_decay_exponent(rows: List[Dict]) -> float:
    """Slope of log(mean TV) against log(m)."""
    by_m: Dict[int, List[float]] = {}
    for row in rows:
        by_m.setdefault(row["m"], []).append(row["tv"])
    ms = sorted(by_m)
    if len(ms) < 2:
        raise BadParameter(f"a slope needs at least two distinct m values, got {ms}")
    logs = [math.log(sum(by_m[m]) / len(by_m[m])) for m in ms]
    slope = np.polyfit(np.log(ms), logs, 1)[0]
    return float(slope)


def _cmd_bench(args) -> Dict:
    tree = _read_tree(args.tree)
    rows = bench_sweep(tree, args.m_list, args.trials, args.delta, args.seed)
    slope = fitted_decay_exponent(rows)
    if args.format == "csv":
        lines = ["m,trial,tv"]
        lines += [f"{r['m']},{r['trial']},{r['tv']!r}" for r in rows]
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps(rows, sort_keys=True) + "\n"
    with open(args.out, "w") as fh:
        fh.write(body)
    return _report(
        "bench",
        {
            "tree": args.tree,
            "m_list": ",".join(map(str, args.m_list)),
            "trials": args.trials,
            "delta": args.delta,
            "seed": args.seed,
            "format": args.format,
        },
        {"rows": len(rows), "decay_exponent": slope},
        [args.out],
    )


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> List[int]:
    """Comma-separated integers, for ``--m-list``."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="latent-ising",
        description="workbench for tree Ising models observed at their leaves",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random weighted tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--low", type=float, default=-1.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="draw leaf samples from a model")
    p.add_argument("--tree", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="estimate pairwise correlations")
    p.add_argument("--samples", required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn-known", help="fit weights on a known topology")
    p.add_argument("--tree", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn-unknown", help="learn topology and weights")
    p.add_argument("--samples", required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True)

    p = sub.add_parser("test-identity", help="test samples against a reference model")
    p.add_argument("--samples", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)

    p = sub.add_parser("eval-tv", help="exact total variation of two models")
    p.add_argument("model_a")
    p.add_argument("model_b")

    p = sub.add_parser("interpolate", help="topology interpolation trace")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="sweep sample counts, reporting TV vs m")
    p.add_argument("--tree", required=True)
    p.add_argument("--m-list", type=_int_list, default="1000,4000,16000")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so that a handler
    # replaced after the first call (a test double, a tracing wrapper) runs
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        report = handler(args)
    except (LatentIsingError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
