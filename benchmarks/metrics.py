"""Metric names, units and the layer-to-end-to-end map.

``END_TO_END`` is what an untraced run prints; ``PER_LAYER`` is what a
traced run prints.  Both lists are mirrored in ``BENCHMARK.json``, which the
self-test checks.  Per-layer values are per trial, and their times, like
the end-to-end ones, are at the reference machine speed (see
``run.speed``).  The ``.calls`` counts and the derived counts listed in
``EXACT`` are taken over a fixed prefix of trials, so they repeat exactly
for a given seed and can carry count-based claims; times are averaged over
every traced trial.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: (name, unit, better, bound) of the metrics a user sees; times are at the
#: reference machine speed (see ``run.speed``)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("trials_per_s", "1/s", "higher", 0.25),
    ("trial_p50_s", "s", "lower", 0.2),
    ("trial_tail_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_BUSY = (
    "distribution.even_subset_coefficients",
    "distribution.closed_form_distribution",
    "distribution.exact_tv",
    "distribution.marginal_distribution",
    "distribution.sample",
    "distribution.read_samples",
    "distribution.write_samples",
    "estimation.empirical_correlations",
    "solvers.lp_feasible",
    "solvers.gf2_solve",
    "learn_known.build_interval_lp",
    "learn_known.fit_known",
    "learn_unknown.learn_unknown_from_correlations",
    "reconstruct.reconstruct_forest",
    "trees.correlations",
    "trees.quartet_gap",
    "trees.cut_paste",
    "trees.topologies_equal",
    "interpolate.interpolate",
    "interpolate.trace_to_json",
    "identity.test_identity",
    "newick.parse_model",
    "newick.parse_forest",
    "newick.parse_tree",
    "newick.serialize_tree",
    "newick.serialize_forest",
    "cli.gen",
    "cli.sample",
    "cli.estimate",
    "cli.learn-known",
    "cli.learn-unknown",
    "cli.eval-tv",
    "cli.test-identity",
    "cli.interpolate",
)

_SELF = ("learn_known.fit_known", "interpolate.interpolate")

_CALLS = (
    "estimation.empirical_correlations",
    "solvers.lp_feasible",
    "learn_known.fit_known",
    "trees.quartet_gap",
    "trees.cut_paste",
)

#: derived counts: (name, unit, better); all repeat exactly for a seed
_DERIVED_COUNTS = (
    ("solvers.lp_feasible.constraints", "count", "lower"),
    ("interpolate.changed_quartets", "count", "lower"),
    ("learn_unknown.fit_attempts_per_component", "ratio", "lower"),
    ("estimation.empirical_correlations.calls_per_learn_command", "count", "lower"),
    ("distribution.read_samples.bytes", "B", "lower"),
    ("distribution.write_samples.bytes", "B", "lower"),
)

#: run-level figures of the traced run: (name, unit, better)
_RUN = (
    ("distribution.sample.rows_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.top_level_share", "ratio", "higher"),
    ("quality.tv_fit_mean", "ratio", "lower"),
    ("quality.tv_forest_mean", "ratio", "lower"),
    ("quality.recovered_frac", "ratio", "higher"),
    ("run.failed_frac", "ratio", "lower"),
    ("run.trials", "count", "higher"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"{f}.busy_s", "s", "lower") for f in _BUSY)
    + tuple((f"{f}.self_s", "s", "lower") for f in _SELF)
    + tuple((f"{f}.calls", "count", "lower") for f in _CALLS)
    + _DERIVED_COUNTS
    + _RUN
)

EXACT = tuple(f"{f}.calls" for f in _CALLS) + tuple(name for name, _, _ in _DERIVED_COUNTS)

#: which layer metrics should move which end-to-end metric on which workload
LAYER_MAP: Tuple[Tuple[Tuple[str, ...], str, Tuple[str, ...]], ...] = (
    (
        (
            "distribution.even_subset_coefficients.busy_s",
            "distribution.closed_form_distribution.busy_s",
            "distribution.exact_tv.busy_s",
            "distribution.marginal_distribution.busy_s",
        ),
        "trials_per_s",
        ("verify-n12", "cli-n12"),
    ),
    (
        (
            "solvers.lp_feasible.busy_s",
            "solvers.lp_feasible.constraints",
            "solvers.gf2_solve.busy_s",
            "learn_known.build_interval_lp.busy_s",
            "learn_known.fit_known.self_s",
        ),
        "trials_per_s",
        ("learn-n16", "verify-n12"),
    ),
    (
        ("learn_unknown.fit_attempts_per_component", "reconstruct.reconstruct_forest.busy_s"),
        "trials_per_s",
        ("learn-n16",),
    ),
    (
        (
            "distribution.sample.busy_s",
            "distribution.sample.rows_per_s",
            "estimation.empirical_correlations.busy_s",
        ),
        "trials_per_s",
        ("learn-n16", "cli-n12"),
    ),
    (
        (
            "trees.quartet_gap.calls",
            "trees.quartet_gap.busy_s",
            "trees.cut_paste.calls",
            "trees.cut_paste.busy_s",
            "trees.topologies_equal.busy_s",
            "interpolate.interpolate.self_s",
            "interpolate.changed_quartets",
        ),
        "trials_per_s",
        ("interpolate-n20",),
    ),
    (
        (
            "distribution.read_samples.busy_s",
            "distribution.read_samples.bytes",
            "distribution.write_samples.busy_s",
            "distribution.write_samples.bytes",
            "newick.parse_model.busy_s",
            "newick.serialize_tree.busy_s",
            "cli.learn-known.busy_s",
            "cli.learn-unknown.busy_s",
            "estimation.empirical_correlations.calls_per_learn_command",
        ),
        "trials_per_s",
        ("cli-n12",),
    ),
)


def layer_values(
    totals: Dict[str, dict],
    prefix: Dict[str, dict],
    traced_trials: int,
    prefix_trials: int,
    speed: float,
) -> Dict[str, float]:
    """Per-trial layer metrics from tracer totals.

    ``totals`` covers every traced trial and gives the times; ``prefix``
    covers the first ``prefix_trials`` trials and gives the counts.  Times
    are scaled to the reference machine speed by the traced run's median
    ``speed``, like the end-to-end times.
    """
    out: Dict[str, float] = {}
    for f in _BUSY:
        out[f"{f}.busy_s"] = totals[f]["busy_s"] * speed / traced_trials
    for f in _SELF:
        out[f"{f}.self_s"] = totals[f]["self_s"] * speed / traced_trials
    for f in _CALLS:
        out[f"{f}.calls"] = prefix[f]["calls"] / prefix_trials

    def count(f: str, key: str) -> float:
        return prefix[f].get(key, 0.0)

    out["solvers.lp_feasible.constraints"] = (
        count("solvers.lp_feasible", "constraints") / prefix_trials
    )
    out["interpolate.changed_quartets"] = (
        count("interpolate.interpolate", "changed_quartets") / prefix_trials
    )
    components = count("learn_unknown.learn_unknown_from_correlations", "components")
    attempts = count("learn_known.fit_known", "attempts_in_learn_unknown")
    out["learn_unknown.fit_attempts_per_component"] = attempts / components if components else 0.0
    commands = prefix["cli.learn-known"]["calls"] + prefix["cli.learn-unknown"]["calls"]
    in_learn = count("estimation.empirical_correlations", "calls_in_learn_command")
    out["estimation.empirical_correlations.calls_per_learn_command"] = (
        in_learn / commands if commands else 0.0
    )
    for f in ("distribution.read_samples", "distribution.write_samples"):
        out[f"{f}.bytes"] = count(f, "bytes") / prefix_trials
    busy = totals["distribution.sample"]["busy_s"]
    rows = totals["distribution.sample"].get("rows", 0.0)
    out["distribution.sample.rows_per_s"] = rows / (busy * speed) if busy else 0.0
    return out


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


#: tail percentile of trial time: at the 40 or more trials every workload
#: runs in one measurement, the highest with at least ten trials beyond it
TAIL_PCT = 75


def tail(times: List[float]) -> float:
    """Nearest-rank TAIL_PCT percentile of the trial times."""
    ordered = sorted(times)
    rank = -(-TAIL_PCT * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]
