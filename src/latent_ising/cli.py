"""Command-line workbench.

Subcommands: gen, sample, estimate, learn-known, learn-unknown,
test-identity, eval-tv, interpolate, bench.  Every command prints one JSON
run report to stdout with the command name, its ``config``, numeric
``metrics`` and its ``artifacts``.  ``config`` is every argument except
``--out`` (``--m-list`` as comma-joined integers), so it includes the seed;
``artifacts`` is the ``--out`` path, or empty for a command without one.
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
from .errors import BadParameter, LatentIsingError, MalformedTree
from .estimation import (
    require_sample_size,
    confidence_radius,
    empirical_correlations,
    report_to_json,
    require_sample_columns,
    require_unit_labels,
)
from .distribution import _generator, _overwrite, exact_tv, read_samples, sample, write_samples
from .identity import test_identity
from .interpolate import interpolate, trace_to_json
from .learn_known import fit_known, fit_report, learn_from_samples_known
from .learn_unknown import choose_params, learn_unknown_from_correlations
from .newick import parse_model, serialize_forest, serialize_tree
from .trees import (
    WeightedForest,
    as_forest,
    correlations,
    diameter,
    normalize,
    random_weighted_tree,
)


def _read_model(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedTree(f"tree file {path} is not text: {exc}") from None
    return parse_model(text)


def _write_artifact(path: str, text: str) -> None:
    with _overwrite(path) as fh:
        fh.write(text.encode())


def _read_tree(path: str):
    model = _read_model(path)
    if isinstance(model, WeightedForest):
        raise MalformedTree(f"{path} holds a forest where a single tree is needed")
    return model


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> Dict:
    tree = random_weighted_tree(args.n, _generator(args.seed), args.low, args.high)
    text = serialize_tree(tree)
    _write_artifact(args.out, text + "\n")
    return {"edges": len(tree.topology.edges), "diameter": diameter(tree.topology)}


def _cmd_sample(args) -> Dict:
    model = _read_model(args.tree)
    # estimation labels the sample columns 1..n, so other labels cannot round-trip
    require_unit_labels(as_forest(model).leaves, "model")
    draws = sample(model, args.m, args.seed)
    write_samples(args.out, draws)
    return {"n": int(draws.shape[1]), "m": int(draws.shape[0])}


def _cmd_estimate(args) -> Dict:
    samples = read_samples(args.samples)
    report = empirical_correlations(samples, args.delta)
    _write_artifact(args.out, report_to_json(report) + "\n")
    return {"n": report.alpha_hat.n, "m": report.m, "eta": report.eta}


def _cmd_learn_known(args) -> Dict:
    topology = normalize(_read_tree(args.tree)).topology
    samples = read_samples(args.samples)
    require_sample_columns(samples, topology.leaves, "tree")
    report = empirical_correlations(samples, args.delta)
    fit = fit_known(topology, report.alpha_hat, report.eta)
    _write_artifact(args.out, serialize_tree(fit.tree) + "\n")
    return fit_report(fit, report.alpha_hat)


def _cmd_learn_unknown(args) -> Dict:
    samples = read_samples(args.samples)
    estimate = empirical_correlations(samples, args.delta)
    config = choose_params(estimate.eta, estimate.alpha_hat.n)
    forest = learn_unknown_from_correlations(estimate.alpha_hat, estimate.eta)
    _write_artifact(args.out, serialize_forest(forest))
    per_component = [
        {
            "leaves": list(c.topology.leaves),
            "edges": len(c.topology.edges),
            "binary": c.topology.is_binary(),
        }
        for c in forest.components
    ]
    return {
        "components": len(forest.components),
        "component_detail": per_component,
        "eta": estimate.eta,
        "xi": config.xi,
        "clamped": config.clamped,
    }


def _cmd_test_identity(args) -> Dict:
    samples = read_samples(args.samples)
    verdict = test_identity(samples, _read_model(args.tree), args.eps, args.delta)
    return {
        "decision": verdict.decision,
        "statistic": verdict.statistic,
        "threshold": verdict.threshold,
    }


def _cmd_eval_tv(args) -> Dict:
    return {"tv": exact_tv(_read_model(args.model_a), _read_model(args.model_b))}


def _cmd_interpolate(args) -> Dict:
    source = normalize(_read_tree(args.source))
    target = normalize(_read_tree(args.target))
    trace = interpolate(source.topology, target, correlations(source))
    payload = trace_to_json(trace)
    _write_artifact(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return {
        "epochs": trace.epochs,
        "rounds": trace.rounds,
        "moves": len(trace.moves),
        "total_changed_quartets": payload["total_changed_quartets"],
    }


def bench_sweep(
    tree, m_values: List[int], trials: int, delta: float, seed: int
) -> List[Dict]:
    """TV against the truth for each (sample count, trial) pair."""
    if trials < 1:
        raise BadParameter(f"need at least one trial, got {trials}")
    truth = normalize(tree)
    require_unit_labels(truth.leaves, "tree")  # all before any sample is drawn
    _slope_points(m_values)
    runs = [(m, trial, seed + 7919 * trial + 104729 * k)
            for k, m in enumerate(m_values) for trial in range(trials)]
    for m, _, key in runs:  # every draw's m, delta and seed, as the draw checks them
        require_sample_size(m, len(truth.leaves))
        confidence_radius(len(truth.leaves), delta, m)
        _generator(key)
    rows = []
    for m, trial, key in runs:
        fit = learn_from_samples_known(truth.topology, sample(truth, m, key), delta)
        rows.append({"m": m, "trial": trial, "tv": exact_tv(truth, fit.tree)})
    return rows


def _slope_points(m_values) -> List[int]:
    """The distinct sample counts, sorted; a slope needs at least two."""
    ms = sorted(set(m_values))
    if len(ms) < 2:
        raise BadParameter(f"a slope needs at least two distinct m values, got {ms}")
    return ms


def fitted_decay_exponent(rows: List[Dict]) -> float:
    """Slope of log(mean TV) against log(m)."""
    by_m: Dict[int, List[float]] = {}
    for row in rows:
        by_m.setdefault(row["m"], []).append(row["tv"])
    ms = _slope_points(by_m)
    means = [sum(by_m[m]) / len(by_m[m]) for m in ms]
    for m, mean in zip(ms, means):
        if mean == 0.0:
            raise BadParameter(f"mean TV is 0 at m={m}, so log(mean TV) has no slope")
    logs = [math.log(mean) for mean in means]
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
    _write_artifact(args.out, body)
    return {"rows": len(rows), "decay_exponent": slope}


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
        metrics = handler(args)
    except (LatentIsingError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    config = {
        key: ",".join(map(str, value)) if key == "m_list" else value
        for key, value in vars(args).items()
        if key not in ("command", "out")
    }
    report = {
        "command": args.command,
        "config": config,
        "metrics": metrics,
        "artifacts": [args.out] if "out" in args else [],
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
