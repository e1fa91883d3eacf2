"""The four benchmark workloads.

Each workload turns a seed into a pool of plain inputs (edge lists, weights
and sampling seeds), runs one trial per input as a user would, and checks
the trial's outputs afterwards, outside the timed region.  A trial builds
its trees afresh from the plain inputs, so nothing cached on a tree object
carries from one trial to the next.

All calls into the package go through the module object passed in as
``li``, never through names bound at import time, so the tracer's wrappers
see every call.

Sizes are set so that one 25-second run holds 40 or more trials.  Learning
at n=24 (m=200k) and interpolation at n=32 take about 2.3 s and 1.5 s a
trial, and their trial times differ by about 20% from one random instance
to the next, so a run of a dozen trials gives unsteady figures.  At n=16
and n=20 the same layers dominate (the interval LP; quartet_gap and
cut_paste) at about 0.3 s and 0.2 s a trial.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

#: confidence parameter for learning and testing.  At 1e-4 a Hoeffding
#: failure (an infeasible fit or a false reject on the true model) has
#: probability below 1e-5 per trial, so a measurement campaign of thousands
#: of trials sees none and a failed check means a broken program.
DELTA = 1e-4

#: identity-test distance; the verdict on samples of the true model is accept
EPS = 0.1

#: tolerance of the closed form against marginalization (acceptance criterion 1)
ORACLE_TOL = 1e-9

#: inputs generated at set-up per workload; trials cycle through them
POOL = 512


@dataclass(frozen=True)
class Workload:
    name: str
    params: Dict[str, int]
    make: Callable  # (li, rng, params) -> input
    trial: Callable  # (li, input, params) -> output
    check: Callable  # (li, input, output, params, index) -> (failures, quality)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def make_pool(li, workload: Workload, seed: int, params: Dict[str, int]) -> List:
    return [workload.make(li, _rng(seed, k), params) for k in range(POOL)]


def _plain(tree) -> tuple:
    """A weighted tree as plain data: (leaves, edges, weights)."""
    edges = tree.topology.edges
    return (tree.topology.leaves, edges, tuple(tree.theta[e] for e in edges))


def _build(li, plain):
    leaves, edges, weights = plain
    return li.WeightedTree(li.TreeTopology(leaves, edges), dict(zip(edges, weights)))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _partitions(forest, n: int) -> bool:
    leaves = sorted(v for c in forest.components for v in c.topology.leaves)
    return leaves == list(range(1, n + 1))


def _fit_ok(li, fit, alpha_hat) -> List[str]:
    report = li.fit_report(fit, alpha_hat)
    out = []
    if report["max_magnitude_error"] > report["eta"] * (1 + 1e-9) + 1e-12:
        out.append(f"fit magnitude error {report['max_magnitude_error']} > eta {report['eta']}")
    if not report["signs_consistent"]:
        out.append("fit signs inconsistent with strong target correlations")
    return out


# ---------------------------------------------------------------------------
# verify-n12: the paper's oracle loop


def _verify_make(li, rng, p):
    truth = li.random_weighted_tree(p["n"], rng, -0.9, 0.9)
    return _plain(truth), _seed(rng)


def _verify_trial(li, inp, p):
    plain, sample_seed = inp
    truth = _build(li, plain)
    draws = li.sample(truth, p["m"], sample_seed)
    est = li.empirical_correlations(draws, DELTA)
    fit = li.fit_known(truth.topology, est.alpha_hat, est.eta)
    tv_fit = li.exact_tv(truth, fit.tree)
    forest = li.learn_unknown_from_correlations(est.alpha_hat, est.eta)
    tv_forest = li.exact_tv(truth, forest)
    closed = li.closed_form_distribution(truth.topology, li.correlations(truth))
    marginal = li.marginal_distribution(truth)
    return dict(est=est, fit=fit, forest=forest, tv_fit=tv_fit, tv_forest=tv_forest,
                closed=closed, marginal=marginal)


def _verify_check(li, inp, out, p, index):
    failures = _fit_ok(li, out["fit"], out["est"].alpha_hat)
    gap = float(np.max(np.abs(out["closed"] - out["marginal"])))
    if gap > ORACLE_TOL:
        failures.append(f"closed form and marginalization differ by {gap}")
    if abs(float(out["closed"].sum()) - 1.0) > ORACLE_TOL:
        failures.append("closed form does not sum to 1")
    if not _partitions(out["forest"], p["n"]):
        failures.append("forest leaf sets do not partition the leaves")
    for key in ("tv_fit", "tv_forest"):
        if not 0.0 <= out[key] <= 1.0:
            failures.append(f"{key} = {out[key]} outside [0, 1]")
    return failures, {"tv_fit": out["tv_fit"], "tv_forest": out["tv_forest"]}


# ---------------------------------------------------------------------------
# learn-n16: the interval LP and the unknown-topology learner


def _learn_make(li, rng, p):
    topo = li.random_topology(p["n"], rng)
    magnitude = rng.uniform(0.5, 0.95, len(topo.edges))
    sign = np.where(rng.random(len(topo.edges)) < 0.5, -1.0, 1.0)
    weights = tuple(float(w) for w in magnitude * sign)
    return (topo.leaves, topo.edges, weights), _seed(rng)


def _learn_trial(li, inp, p):
    plain, sample_seed = inp
    truth = _build(li, plain)
    draws = li.sample(truth, p["m"], sample_seed)
    est = li.empirical_correlations(draws, DELTA)
    fit = li.fit_known(truth.topology, est.alpha_hat, est.eta)
    forest = li.learn_unknown_from_correlations(est.alpha_hat, est.eta)
    recovered = len(forest.components) == 1 and li.topologies_equal(
        forest.components[0].topology, truth.topology
    )
    verdict = li.test_identity(draws, truth, EPS, DELTA)
    return dict(est=est, fit=fit, forest=forest, recovered=recovered, verdict=verdict)


def _learn_check(li, inp, out, p, index):
    failures = _fit_ok(li, out["fit"], out["est"].alpha_hat)
    if not _partitions(out["forest"], p["n"]):
        failures.append("forest leaf sets do not partition the leaves")
    if not out["verdict"].accepted:
        failures.append("identity test rejected samples of the true model")
    return failures, {"recovered": float(out["recovered"])}


# ---------------------------------------------------------------------------
# interpolate-n20: quartet lookups and tree surgery


def _interp_make(li, rng, p):
    source = li.random_weighted_tree(p["n"], rng, 0.25, 0.85)
    target = li.random_weighted_tree(p["n"], rng, 0.25, 0.85)
    return _plain(source), _plain(target)


def _interp_trial(li, inp, p):
    source = _build(li, inp[0])
    target = _build(li, inp[1])
    trace = li.interpolate(source.topology, target, li.correlations(source))
    payload = li.trace_to_json(trace)
    reached = li.topologies_equal(trace.final, target.topology)
    return dict(trace=trace, payload=payload, reached=reached)


def _interp_check(li, inp, out, p, index):
    failures = []
    if not out["reached"]:
        failures.append("interpolation did not reach the target topology")
    if out["trace"].epochs > p["n"]:
        failures.append(f"{out['trace'].epochs} epochs > n = {p['n']}")
    return failures, {}


# ---------------------------------------------------------------------------
# cli-n12: the in-process command-line pipeline and its file formats


def _cli_make(li, rng, p):
    return tuple(_seed(rng) for _ in range(3))


def cli_steps(inp, p) -> List[List[str]]:
    """The pipeline's argument lists; paths are relative to the work directory."""
    seed_a, seed_b, seed_s = inp
    n, m, delta = str(p["n"]), str(p["m"]), repr(DELTA)
    return [
        ["gen", "--n", n, "--low", "-0.9", "--high", "0.9", "--seed", str(seed_a), "--out", "a.nwk"],
        ["gen", "--n", n, "--low", "-0.9", "--high", "0.9", "--seed", str(seed_b), "--out", "b.nwk"],
        ["sample", "--tree", "a.nwk", "--m", m, "--seed", str(seed_s), "--out", "draws.txt"],
        ["estimate", "--samples", "draws.txt", "--delta", delta, "--out", "estimate.json"],
        ["learn-known", "--tree", "a.nwk", "--samples", "draws.txt", "--delta", delta,
         "--out", "fit.nwk"],
        ["learn-unknown", "--samples", "draws.txt", "--delta", delta, "--out", "forest.nwk"],
        ["eval-tv", "a.nwk", "fit.nwk"],
        ["eval-tv", "a.nwk", "forest.nwk"],
        ["test-identity", "--samples", "draws.txt", "--tree", "a.nwk", "--eps", repr(EPS),
         "--delta", delta],
        ["interpolate", "--source", "a.nwk", "--target", "b.nwk", "--out", "trace.json"],
    ]


def _cli_trial(li, inp, p):
    """Run every step in the current directory, which the runner sets."""
    codes = []
    stdout = io.StringIO()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for argv in cli_steps(inp, p):
            codes.append(li.cli.main(argv))
    return dict(codes=codes, reports=stdout.getvalue(), errors=stderr.getvalue())


def _cli_check(li, inp, out, p, index):
    failures = [
        f"step {argv[0]} exited {code}: {out['errors'].strip()}"
        for argv, code in zip(cli_steps(inp, p), out["codes"])
        if code != 0
    ]
    # one repeat per run: the reports of a seed must be byte-identical
    if index == 0 and _cli_trial(li, inp, p)["reports"] != out["reports"]:
        failures.append("reports differ between two runs of the same seed")
    return failures, {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n12", {"n": 12, "m": 20_000}, _verify_make, _verify_trial,
                 _verify_check),
        Workload("learn-n16", {"n": 16, "m": 100_000}, _learn_make, _learn_trial, _learn_check),
        Workload("interpolate-n20", {"n": 20}, _interp_make, _interp_trial, _interp_check),
        Workload("cli-n12", {"n": 12, "m": 10_000}, _cli_make, _cli_trial, _cli_check),
    )
}

#: sizes for the harness self-test: every code path, a fraction of a second
TINY = {
    "verify-n12": {"n": 6, "m": 2_000},
    "learn-n16": {"n": 6, "m": 5_000},
    "interpolate-n20": {"n": 8},
    "cli-n12": {"n": 6, "m": 2_000},
}


def work_dir(root: str, workload: str, seed: int) -> str:
    return os.path.join(root, "benchmarks", "out", f"{workload}-{seed}-{os.getpid()}")
