"""The names other code reaches the package by.

The benchmark harness indexes its per-layer metrics by function name
(``benchmarks/metrics.py``), and users import the top-level exports; a
rename or removal shows here as a failing test and a one-line diff.  A
public function that only tests call fails here too, unless ``KEPT`` says
why it stays.
"""

import ast
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
    "LeafSetMismatch",
    "MalformedTree",
    "Move",
    "NoConsistentModel",
    "OddSubset",
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
    "random_topology",
    "random_weighted_tree",
    "read_samples",
    "reconstruct_forest",
    "report_to_json",
    "required_samples",
    "sample",
    "samples_for_radius",
    "serialize_forest",
    "serialize_tree",
    "test_identity",
    "topologies_equal",
    "trace_to_json",
    "write_samples",
)


#: public functions that only tests call, each with the reason it stays
KEPT = {
    "closest_relative_matching": "acceptance criterion 6 reaches it through "
    "test_interpolate.factorization_residual; README names it as an any-n function",
    "induced_subtree": "ROADMAP item AB's certified TV lower bounds read its marginals",
    "required_samples": "ROADMAP items Q and T measure the tester against it",
}

ROOT = Path(__file__).resolve().parent.parent


def _load_metrics():
    path = ROOT / "benchmarks" / "metrics.py"
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


def _read_names(node) -> set:
    """Every name and attribute read under ``node``; docstrings and imports
    name nothing."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_function_has_a_caller_outside_the_tests():
    """Each public function has a caller, or is in ``KEPT``; a kept name that
    gains a caller leaves ``KEPT``.  A caller is a read of the name in the
    package (outside ``__init__`` and the function's own definition), in a
    demo, or in the acceptance suite."""
    package = ROOT / "src" / "latent_ising"
    outside = set().union(
        *(_read_names(ast.parse(p.read_text())) for p in sorted((ROOT / "demos").glob("*.py"))),
        _read_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())),
    )
    # per module, the names each top-level statement reads, with the name it defines
    statements = {
        p.stem: [
            (getattr(stmt, "name", None), _read_names(stmt))
            for stmt in ast.parse(p.read_text()).body
        ]
        for p in sorted(package.glob("*.py"))
        if p.name != "__init__.py"
    }
    uncalled = []
    for name, obj in sorted(vars(latent_ising).items()):
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[1]
        called = name in outside or any(
            name in reads
            for module, body in statements.items()
            for defined, reads in body
            if not (module == home and defined == name)
        )
        if not called:
            uncalled.append(name)
    assert uncalled == sorted(KEPT)
