"""Tree Ising models observed at their leaves.

Learning (known and unknown topology), identity testing, exact evaluation
and sampling, and topology interpolation, with brute-force oracles small
enough to check the total-variation localization bounds directly.
"""

from .errors import (
    BadParameter,
    BadSpinValue,
    DimensionMismatch,
    EmptySample,
    InvalidCut,
    LatentIsingError,
    LeafSetMismatch,
    MalformedTree,
    NoConsistentModel,
    OddSubset,
    TooFewLeaves,
    TooLarge,
    UnknownLeaf,
    UnknownPair,
)
from .trees import (
    CorrelationVector,
    TreeTopology,
    WeightedForest,
    WeightedTree,
    as_forest,
    binary,
    closest_relative_matching,
    contract_edge,
    correlations,
    cut_paste,
    diameter,
    induced_subtree,
    normalize,
    path,
    path_nodes,
    quartet_gap,
    random_topology,
    random_weighted_tree,
    topologies_equal,
)
from .distribution import (
    closed_form_distribution,
    closed_form_prob,
    config_index,
    exact_tv,
    marginal_distribution,
    marginalize_prob,
    path_removed,
    read_samples,
    sample,
    write_samples,
)
from .estimation import (
    EstimationReport,
    confidence_radius,
    empirical_correlations,
    report_to_json,
    samples_for_radius,
)
from .solvers import Gf2System, Inconsistent, Infeasible, IntervalPathLP, gf2_solve, lp_feasible
from .learn_known import (
    KnownTopologyFit,
    build_interval_lp,
    fit_known,
    fit_report,
    learn_from_samples_known,
)
from .reconstruct import ReconstructedForest, reconstruct_forest
from .learn_unknown import (
    UnknownLearnConfig,
    choose_params,
    learn_unknown,
    learn_unknown_from_correlations,
)
from .interpolate import (
    InterpolationTrace,
    Move,
    interpolate,
    trace_to_json,
)
from .identity import TestVerdict, required_samples, test_identity
from .newick import (
    parse_forest,
    parse_model,
    parse_tree,
    serialize_forest,
    serialize_tree,
)

__version__ = "0.1.0"
