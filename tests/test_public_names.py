"""The names other code reaches the package by.

The benchmark harness indexes its per-layer metrics by function name
(``benchmarks/metrics.py``), and users import the top-level exports; a
rename or removal shows here as a failing test and a one-line diff.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import latent_ising

#: the package's modules, one per line
MODULES = (
    "cli",
    "distribution",
    "errors",
    "estimation",
    "identity",
    "interpolate",
    "learn_known",
    "learn_unknown",
    "newick",
    "reconstruct",
    "solvers",
    "trees",
)

#: the package's public top-level names (submodules aside), one per line
PUBLIC = (
    "AlreadyCherry",
    "BadParameter",
    "BadSpinValue",
    "CorrelationVector",
    "DimensionMismatch",
    "EmptySample",
    "EstimationReport",
    "Gf2System",
    "Inconsistent",
    "Infeasible",
    "InterpolationTrace",
    "IntervalPathLP",
    "InvalidCut",
    "KnownTopologyFit",
    "LatentIsingError",
    "LeafDistribution",
    "LeafSetMismatch",
    "MalformedTree",
    "Move",
    "NoConsistentModel",
    "OddSubset",
    "QuartetSplit",
    "ReconstructedForest",
    "TestVerdict",
    "TooFewLeaves",
    "TooLarge",
    "TreeTopology",
    "UnknownLeaf",
    "UnknownLearnConfig",
    "UnknownPair",
    "WeightedForest",
    "WeightedTree",
    "as_forest",
    "binary",
    "build_interval_lp",
    "choose_params",
    "closed_form_distribution",
    "closed_form_prob",
    "closest_relative_matching",
    "confidence_radius",
    "config_index",
    "contract_edge",
    "correlations",
    "cut_paste",
    "diameter",
    "empirical_correlations",
    "exact_tv",
    "fit_known",
    "fit_report",
    "gf2_solve",
    "induced_subtree",
    "interpolate",
    "is_cherry",
    "learn_from_samples_known",
    "learn_unknown",
    "learn_unknown_from_correlations",
    "lp_feasible",
    "marginal_distribution",
    "marginalize_prob",
    "normalize",
    "parse_forest",
    "parse_model",
    "parse_tree",
    "path",
    "path_nodes",
    "path_removed",
    "quartet_gap",
    "quartet_split",
    "random_topology",
    "random_weighted_tree",
    "read_samples",
    "reconstruct_forest",
    "report_from_json",
    "report_to_json",
    "required_samples",
    "sample",
    "samples_for_radius",
    "sequence",
    "serialize_forest",
    "serialize_tree",
    "test_identity",
    "topologies_equal",
    "trace_to_json",
    "write_samples",
)


def _load_metrics():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "metrics.py"
    spec = importlib.util.spec_from_file_location("benchmark_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_indexes_resolves():
    """``cli.<command>`` names the handler ``cli._cmd_<command>``; every other
    name is a function defined in the module it names, as the tracer wraps."""
    metrics = _load_metrics()
    names = sorted({*metrics._BUSY, *metrics._SELF, *metrics._CALLS})
    assert len(names) == 34
    missing = []
    for name in names:
        short, attr = name.split(".")
        if short == "cli":
            attr = "_cmd_" + attr.replace("-", "_")
        module = importlib.import_module(f"latent_ising.{short}")
        obj = getattr(module, attr, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
            missing.append(name)
    assert missing == []


def test_modules_are_pinned():
    assert tuple(sorted(m.name for m in pkgutil.iter_modules(latent_ising.__path__))) == MODULES


def test_public_names_are_pinned():
    public = (
        name
        for name, obj in vars(latent_ising).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert tuple(sorted(public)) == PUBLIC
