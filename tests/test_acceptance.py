"""Acceptance suite.

One test per criterion, each at its stated tolerance, each printing a
single PASS line with the measured quantities (run pytest with -s or -rA to
see them).  Nothing here is calibrated after the fact: thresholds are the
contract.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from latent_ising import (
    CorrelationVector,
    TreeTopology,
    WeightedTree,
    binary,
    choose_params,
    closed_form_distribution,
    contract_edge,
    correlations,
    diameter,
    empirical_correlations,
    exact_tv,
    fit_known,
    interpolate,
    learn_from_samples_known,
    learn_unknown,
    learn_unknown_from_correlations,
    marginal_distribution,
    normalize,
    path_removed,
    quartet_gap,
    random_topology,
    random_weighted_tree,
    reconstruct_forest,
    sample,
    test_identity as run_identity_test,
    topologies_equal,
)
from latent_ising.cli import bench_sweep, fitted_decay_exponent, main

from conftest import caterpillar, check_contract, philox, random_model
from test_interpolate import factorization_residual, structural_quartet_diff


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_oracle_equivalence():
    start = time.time()
    rng = philox(1001)
    worst = worst_sum = 0.0
    for trial in range(100):
        n = 2 + trial % 9
        topo = random_topology(n, rng)
        weights = rng.uniform(-1.0, 1.0, len(topo.edges))
        kind = trial % 5
        if len(weights):
            if kind == 1:
                weights[0] = 0.0
            elif kind == 2:
                weights[0] = 1.0
            elif kind == 3:
                weights[0] = -1.0
        tree = WeightedTree(topo, dict(zip(topo.edges, weights)))
        closed = closed_form_distribution(topo, correlations(tree))
        marginalized = marginal_distribution(tree)
        worst = max(worst, float(np.max(np.abs(closed - marginalized))))
        worst_sum = max(worst_sum, abs(float(closed.sum()) - 1.0))
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert worst_sum <= 1e-9
    assert elapsed <= 120.0
    report(
        "1 (oracle equivalence)",
        f"100 trees, max |closed - marginalized| = {worst:.2e}, "
        f"max |sum - 1| = {worst_sum:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_one_coordinate_identity():
    rng = philox(1002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        topo = random_topology(n, rng)
        alpha = CorrelationVector(range(1, n + 1), rng.uniform(-1, 1, n * (n - 1) // 2))
        i, j = sorted(int(v) for v in rng.choice(range(1, n + 1), 2, replace=False))
        beta = alpha.replace({(i, j): float(rng.uniform(-1, 1))})
        gamma = path_removed(alpha, topo, (i, j))
        table_a = closed_form_distribution(topo, alpha)
        table_b = closed_form_distribution(topo, beta)
        table_g = closed_form_distribution(topo, gamma)
        masks = np.arange(2 ** n)
        pos = {leaf: k for k, leaf in enumerate(topo.leaves)}
        pair_mask = (1 << pos[i]) | (1 << pos[j])
        chi = 1.0 - 2.0 * (np.bitwise_count(~masks & pair_mask) & 1)
        residual = table_a - table_b - chi * (alpha.get(i, j) - beta.get(i, j)) * table_g
        worst = max(worst, float(np.max(np.abs(residual))))
    assert worst <= 1e-9
    report("2 (one-coordinate identity)", f"200 instances, max residual = {worst:.2e}")


def test_criterion_3_same_topology_tensorization():
    rng = philox(1003)
    violations = 0
    worst_ratio = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        topo = random_topology(n, rng)
        theta = {e: float(rng.uniform(-1, 1)) for e in topo.edges}
        jitter = float(10 ** rng.uniform(-5, -1))
        shifted = {
            e: float(np.clip(w + rng.uniform(-jitter, jitter), -1, 1))
            for e, w in theta.items()
        }
        a = WeightedTree(topo, theta)
        b = WeightedTree(topo, shifted)
        alpha, alpha_hat = correlations(a), correlations(b)
        eps = alpha.max_abs_difference(alpha_hat)
        tv = exact_tv((topo, alpha), (topo, alpha_hat))
        bound = 2 * n * n * eps
        if tv > bound + 1e-12:
            violations += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, tv / bound)
    assert violations == 0
    report(
        "3 (same-topology tensorization)",
        f"200 instances, 0 violations, worst TV/bound = {worst_ratio:.3f}",
    )


def test_criterion_4_single_edge_and_contraction():
    rng = philox(1004)
    worst_ratio = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        tree = random_weighted_tree(n, rng, -1.0, 1.0)
        edge = tree.topology.edges[int(rng.integers(len(tree.topology.edges)))]
        new_value = float(rng.uniform(-1, 1))
        shift = abs(new_value - tree.theta[edge])
        perturbed = WeightedTree(tree.topology, {**tree.theta, edge: new_value})
        tv = exact_tv(tree, perturbed)
        assert tv <= shift / 2 + 1e-12
        if shift > 0:
            worst_ratio = max(worst_ratio, tv / (shift / 2))
    worst_contract = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        tree = random_weighted_tree(n, rng, -0.95, 0.95)
        internal = [
            e
            for e in tree.topology.edges
            if not (tree.topology.is_leaf(e[0]) or tree.topology.is_leaf(e[1]))
        ]
        edge = internal[int(rng.integers(len(internal)))]
        unit = WeightedTree(tree.topology, {**tree.theta, edge: 1.0})
        contracted = contract_edge(unit, edge)
        gap = float(
            np.max(np.abs(marginal_distribution(unit) - marginal_distribution(contracted)))
        )
        worst_contract = max(worst_contract, gap)
    assert worst_contract <= 1e-12
    report(
        "4 (single edge + unit contraction)",
        f"TV within |shift|/2 on 100 instances (worst ratio {worst_ratio:.3f}); "
        f"unit-edge contraction exact to {worst_contract:.2e} on 50 instances",
    )


def test_criterion_5_known_topology_learning():
    start = time.time()
    trials, hits = 50, 0
    tvs = []
    for trial in range(trials):
        truth = normalize(
            random_weighted_tree(8, philox(5000 + trial), -0.9, 0.9)
        )
        draws = sample(truth, 200_000, 6000 + trial)
        try:
            fit = learn_from_samples_known(truth.topology, draws, 0.05)
        except Exception:
            continue
        tv = exact_tv(truth, fit.tree)
        tvs.append(tv)
        if tv <= 0.1:
            hits += 1
    assert hits >= 0.95 * trials
    # decay spot check: TV should fall like m^{-1/2} (fitted exponent +-30%)
    bench_tree = normalize(random_weighted_tree(7, philox(5999), -0.85, 0.85))
    rows = bench_sweep(bench_tree, [2000, 8000, 32000, 128000], trials=6, delta=0.05, seed=77)
    slope = fitted_decay_exponent(rows)
    assert -0.65 <= slope <= -0.35
    elapsed = time.time() - start
    assert elapsed <= 600.0
    report(
        "5 (known-topology learning)",
        f"{hits}/{trials} trials with TV <= 0.1 (median {np.median(tvs):.4f}); "
        f"decay exponent {slope:.3f} in [-0.65, -0.35]; {elapsed:.1f}s",
    )


def test_criterion_6_sign_recovery():
    rng = philox(1006)
    checked_pairs = 0
    for trial in range(100):
        n = int(rng.integers(4, 9))
        truth = random_model(n, rng, magnitude=(0.5, 0.95), signed=True)
        alpha = correlations(truth)
        eta = 1e-6
        assert min(abs(v) for _, _, v in alpha.pairs()) > eta
        fit = fit_known(truth.topology, alpha, eta)
        induced = correlations(fit.tree)
        for i, j, value in alpha.pairs():
            assert induced.get(i, j) * value > 0
            checked_pairs += 1
    report("6 (sign recovery)", f"100 instances, {checked_pairs} pairwise signs all correct")


def _eps_close_interpolation_instances():
    """Pairs of topologies whose correlation vectors are eps-close.

    Built by flipping quartets across internal edges with weight 1 - u: for
    u = 0 the vectors agree exactly, so every changed quartet must be an
    exact product tie.
    """
    out = []
    for seed, u in [(9100, 0.0), (9101, 0.0), (9102, 1e-4), (9103, 1e-4), (9104, 5e-4)]:
        rng = philox(seed)
        n = int(rng.integers(5, 9))
        source = random_topology(n, rng)
        internal = [
            e for e in source.edges
            if not (source.is_leaf(e[0]) or source.is_leaf(e[1]))
        ]
        if not internal:
            continue
        a, b = internal[int(rng.integers(len(internal)))]
        theta = {e: float(rng.uniform(0.4, 0.8)) for e in source.edges}
        theta[(a, b)] = 1.0 - u
        truth = WeightedTree(source, theta)
        alpha = correlations(truth)
        from latent_ising import cut_paste

        moved = [d for d in source.neighbors(a) if d != b][0]
        target_topo = cut_paste(source, moved, a, (a, b))
        fit_eta = max(2 * u, 1e-9)
        target = fit_known(target_topo, alpha, fit_eta).tree
        out.append((source, target, alpha))
    return out


def test_criterion_7_interpolation_suite():
    rng = philox(1007)
    pairs = total_moves = 0
    worst_residual = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 11))
        source = random_topology(n, rng)
        target = random_model(n, rng, magnitude=(0.25, 0.85))
        alpha = correlations(WeightedTree(source, {e: 0.5 for e in source.edges}))
        trace = interpolate(source, target, alpha)
        pairs += 1
        total_moves += len(trace.moves)
        assert topologies_equal(trace.final, target.topology)
        assert trace.epochs <= n
        d = diameter(target.topology)
        assert trace.rounds <= math.ceil(d / 2)
        assert sum(len(m.changed_quartets) for m in trace.moves) <= d * n ** 4
        for _, epoch_moves in itertools.groupby(trace.moves, key=lambda m: m.epoch):
            seen = set()
            for move in epoch_moves:
                assert not seen & move.changed_quartets
                seen |= move.changed_quartets
        if n <= 8:
            # the step identity holds for any vector, so probe it with a
            # non-dyadic one to exercise real floating-point arithmetic
            probe = CorrelationVector(
                range(1, n + 1), rng.uniform(-1, 1, n * (n - 1) // 2)
            )
            for k, move in enumerate(trace.moves):
                worst_residual = max(
                    worst_residual,
                    factorization_residual(
                        trace.topologies[k],
                        trace.topologies[k + 1],
                        move.changed_quartets,
                        probe,
                    ),
                )
            for k, move in enumerate(trace.moves):
                assert set(move.changed_quartets) == structural_quartet_diff(
                    trace.topologies[k], trace.topologies[k + 1]
                )
    assert worst_residual <= 1e-9
    # eps-close inputs only flip near-tie quartets
    bad_cases = 0
    for source, target, alpha in _eps_close_interpolation_instances():
        eps = alpha.max_abs_difference(correlations(target))
        n = len(source.leaves)
        trace = interpolate(source, target, alpha)
        for move in trace.moves:
            for q in move.changed_quartets:
                assert quartet_gap(alpha, q) <= 20 * n * eps + 1e-12
        bad_cases += 1
    report(
        "7 (interpolation suite)",
        f"200 pairs / {total_moves} moves; factorization residual {worst_residual:.2e}; "
        f"{bad_cases} eps-close cases within the 20*n*eps tie bound",
    )


def test_criterion_8_unknown_topology_learning():
    start = time.time()
    topo = caterpillar(6)
    trials, hits = 30, 0
    tvs = []
    for trial in range(trials):
        rng = philox(8000 + trial)
        truth = WeightedTree(topo, {e: float(rng.uniform(0.3, 0.7)) for e in topo.edges})
        draws = sample(truth, 500_000, 8100 + trial)
        forest = learn_unknown(draws, 0.05)
        good_topology = len(forest.components) == 1 and topologies_equal(
            normalize(forest.components[0]).topology, binary(topo)
        )
        tv = exact_tv(truth, forest)
        tvs.append(tv)
        if good_topology and tv <= 0.15:
            hits += 1
        # reconstruction contract against the generating model
        estimate = empirical_correlations(draws, 0.05)
        cfg = choose_params(estimate.eta, 6)
        rec = reconstruct_forest(estimate.alpha_hat, cfg.xi, cfg.eta)
        check_contract(rec, estimate.alpha_hat, truth)
    assert hits >= 0.90 * trials
    # exact-correlation path
    exact_rng = philox(8500)
    truth = WeightedTree(topo, {e: float(exact_rng.uniform(0.3, 0.7)) for e in topo.edges})
    forest = learn_unknown_from_correlations(correlations(truth), 1e-9)
    exact_gap = exact_tv(truth, forest)
    assert len(forest.components) == 1
    assert exact_gap <= 1e-6
    elapsed = time.time() - start
    assert elapsed <= 900.0
    report(
        "8 (unknown-topology learning)",
        f"{hits}/{trials} trials recovered topology with TV <= 0.15 "
        f"(median {np.median(tvs):.4f}); exact-correlation TV = {exact_gap:.2e}; "
        f"contract verified on all trials; {elapsed:.1f}s",
    )


def test_criterion_9_identity_tester():
    truth = random_model(8, philox(9001), magnitude=(0.2, 0.8), signed=True)
    delta, trials = 0.05, 100
    false_rejections = 0
    for trial in range(trials):
        draws = sample(truth, 4_000, 9100 + trial)
        verdict = run_identity_test(draws, truth, eps=0.3, delta=delta)
        if not verdict.accepted:
            false_rejections += 1
    assert false_rejections / trials <= delta + 0.02

    star = TreeTopology([1, 2, 3], [(1, 4), (2, 4), (3, 4)])
    uniform = WeightedTree(star, {e: 0.0 for e in star.edges})
    chain = WeightedTree(star, {e: 1.0 for e in star.edges})
    assert exact_tv(chain, uniform) == pytest.approx(0.75)
    rejections = 0
    for trial in range(100):
        draws = sample(chain, 10_000, 9500 + trial)
        if run_identity_test(draws, uniform, eps=0.5, delta=delta).decision == "reject":
            rejections += 1
    assert rejections == 100
    report(
        "9 (identity tester)",
        f"type-I rate {false_rejections}/{trials} <= delta + 0.02; "
        f"uniform-vs-chain rejected {rejections}/100",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    tree = tmp_path / "t.nwk"
    draws = tmp_path / "s.dat"
    fitted = tmp_path / "f.nwk"
    trace = tmp_path / "trace.json"
    other = tmp_path / "o.nwk"
    invocations = [
        ("gen", "--n", "6", "--low", "-0.8", "--high", "0.8", "--seed", "3", "--out", str(tree)),
        ("sample", "--tree", str(tree), "--m", "4000", "--seed", "11", "--out", str(draws)),
        ("estimate", "--samples", str(draws), "--delta", "0.05", "--out", str(tmp_path / "e.json")),
        ("learn-known", "--tree", str(tree), "--samples", str(draws), "--delta", "0.05", "--out", str(fitted)),
        ("learn-unknown", "--samples", str(draws), "--delta", "0.05", "--out", str(tmp_path / "forest.nwk")),
        ("gen", "--n", "6", "--low", "0.2", "--high", "0.8", "--seed", "4", "--out", str(other)),
        ("interpolate", "--source", str(tree), "--target", str(other), "--out", str(trace)),
        ("eval-tv", str(tree), str(fitted)),
        ("test-identity", "--samples", str(draws), "--tree", str(tree), "--eps", "0.4", "--delta", "0.05"),
        ("bench", "--tree", str(tree), "--m-list", "500,2000", "--trials", "2", "--delta", "0.1", "--seed", "0", "--out", str(tmp_path / "b.csv")),
    ]
    first_pass = [run(*argv) for argv in invocations]
    artifacts = {
        path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()
    }
    second_pass = [run(*argv) for argv in invocations]
    assert first_pass == second_pass
    for path, payload in artifacts.items():
        assert path.read_bytes() == payload
    for out in first_pass:
        json.loads(out)  # every report is one valid JSON document
    report("10 (CLI determinism)", f"{len(invocations)} invocations byte-identical")
