"""End-to-end acceptance checks, one per core guarantee of the package.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
as they complete) and then asserts, so the suite doubles as a readable
scorecard. Oracles are independent re-implementations: hand-expanded
formulas, dense inverses, finite differences, brute-force dominance, and
simplex grid search.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from abbo.acquisition import (
    PortfolioProblem,
    build_portfolio,
    select_batch,
    soft_constrain,
    solve_sharpe,
)
from abbo.campaign import (
    CampaignConfig,
    ProtocolConfig,
    ProviderConfig,
    run_campaign,
    write_rounds_csv,
)
from abbo.features import kabsch_align, synthetic_structure_context
from abbo.gaopt import GAConfig, evolve, non_dominated_sort
from abbo.gp import (
    ConstantMean,
    Dataset,
    ZeroShotMean,
    fit_gp,
    log_marginal_likelihood,
    log_marginal_likelihood_with_grads,
)
from abbo.kernels import (
    KermutKernel,
    KernelInputs,
    Matern52Kernel,
    ProductKernel,
    SquaredExponentialKernel,
    SumKernel,
    TanimotoKernel,
    kermut_params_from_original,
    kermut_struct,
)
from abbo.plm import concentrated_pssm, substitution_softmax_pssm
from abbo.sequences import AA_INDEX, blosum62_matrix, diff, encode, one_hot_matrix

from conftest import (
    batched,
    brute_force_fronts,
    central_difference,
    mutant_inputs,
    naive_log_marginal_likelihood,
    naive_posterior,
    sharpe_ratio,
    simplex_grid,
)

PARENTAL = "EVQLVESGGGLVQPGGSLRLSCAASGFTFSSYAMSWVRQAPGK"


def _report(name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extras = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{extras}", flush=True)
    assert not failures, f"{name}: " + "; ".join(failures[:5])


# ---------------------------------------------------------------------------
# 1. batch allocation: hand formulas and grid-search oracle


_GRID_CACHE: dict[int, np.ndarray] = {}


def _grid_points(k: int) -> np.ndarray:
    if k not in _GRID_CACHE:
        _GRID_CACHE[k] = np.array(list(simplex_grid(k, 0.02)))
    return _GRID_CACHE[k]


def _best_grid_sharpe(r: np.ndarray, q: np.ndarray) -> float:
    """Best Sharpe ratio over the 0.02 simplex grid.

    Full enumeration through 4 candidates; beyond that the grid explodes
    combinatorially, so the oracle covers every grid point supported on at
    most three candidates instead (all vertices, edges, and faces).
    """
    n = len(r)
    q_loaded = q + 1e-10 * np.eye(n)
    if n <= 4:
        weights = _grid_points(n)
        returns = weights @ r
        variances = np.einsum("pi,ij,pj->p", weights, q_loaded, weights)
        return float((returns / np.sqrt(variances)).max())
    best = float((r / np.sqrt(np.diag(q_loaded))).max())
    for k in (2, 3):
        weights = _grid_points(k)
        weights = weights[np.all(weights > 0, axis=1)]
        supports = np.array(list(itertools.combinations(range(n), k)))
        rs = r[supports]
        qs = q_loaded[supports[:, :, None], supports[:, None, :]]
        returns = weights @ rs.T
        variances = np.einsum("pi,sij,pj->ps", weights, qs, weights)
        best = max(best, float((returns / np.sqrt(variances)).max()))
    return best


def test_batch_allocation_matches_hand_formulas_and_grid(rng):
    failures: list[str] = []
    artifact_time = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 21))
        problem = PortfolioProblem(rng.uniform(-1.0, 3.0, n), rng.uniform(0.05, 2.0, n))

        start = time.perf_counter()
        r, q = build_portfolio(problem)
        z = solve_sharpe(r, q)
        artifact_time += time.perf_counter() - start

        # the definition, written out one scalar at a time
        values = problem.values
        denom = problem.best - problem.reference
        alpha = (values - problem.reference[None, :]) / denom[None, :]
        hand_p = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                hand_p[i, j] = (1.0 * min(alpha[i, 0], alpha[j, 0])) * min(
                    alpha[i, 1], alpha[j, 1]
                )
        hand_r = np.diag(hand_p).copy()
        hand_q = hand_p - np.outer(hand_r, hand_r)
        if not np.array_equal(hand_r, r):
            failures.append(f"trial {trial}: returns differ from the hand formula")
        if not np.array_equal(hand_q, q):
            failures.append(f"trial {trial}: covariance differs from the hand formula")

        h_solver = sharpe_ratio(z, r, q, eps=1e-10)
        h_grid = _best_grid_sharpe(r, q)
        if h_solver < h_grid * (1.0 - 1e-6):
            failures.append(
                f"trial {trial} (n={n}): solver h {h_solver:.8g} below grid {h_grid:.8g}"
            )
    if artifact_time >= 5.0:
        failures.append(f"portfolio + solver took {artifact_time:.2f}s on 50 sets")
    _report(
        "batch-allocation",
        failures,
        f"50 candidate sets, portfolio + solver in {artifact_time:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. GP inference against a dense oracle and finite differences


def test_gp_matches_dense_oracle_and_finite_differences(rng):
    failures: list[str] = []
    onehot = one_hot_matrix()
    for trial in range(20):
        n = int(rng.integers(2, 11))
        seqs, inputs = mutant_inputs(rng, PARENTAL, n + 5, encoding=onehot)
        train, query = inputs[:n], inputs[n:]
        y = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        data = Dataset(seqs[:n], train, y)
        kernel = TanimotoKernel("onehot", variance=float(rng.uniform(0.3, 2.5)))
        mean = ConstantMean(float(rng.uniform(-0.5, 0.5)))
        noise = float(rng.uniform(0.01, 0.3))

        got_ml = log_marginal_likelihood(kernel, mean, noise, data)
        want_ml = naive_log_marginal_likelihood(
            kernel.gram(train), mean.values(train), noise, y
        )
        if abs(got_ml - want_ml) > 1e-8:
            failures.append(f"trial {trial}: log ML off by {abs(got_ml - want_ml):.3e}")

        model = fit_gp(data, kernel, mean, noise=noise, fit_noise=False, restarts=1)
        want_mean, want_std = naive_posterior(
            model.kernel.gram(train),
            model.kernel.cross(train, query),
            model.kernel.diag(query),
            model.mean.values(train),
            model.mean.values(query),
            model.noise,
            y,
        )
        got_mean, got_std = model.predict(query)
        worst = max(
            float(np.max(np.abs(got_mean - want_mean))),
            float(np.max(np.abs(got_std - want_std))),
        )
        if worst > 1e-8:
            failures.append(f"trial {trial}: posterior off by {worst:.3e}")

    # finite differences for every hyperparameter of a fully loaded model
    context = synthetic_structure_context(PARENTAL, seed=3)
    seqs, inputs = mutant_inputs(rng, PARENTAL, 8, encoding=onehot)
    data = Dataset(seqs, inputs, rng.standard_normal(8))
    kernel = KermutKernel(
        context,
        TanimotoKernel("onehot"),
        variance=1.3,
        mix=0.6,
        gamma_h=0.8,
        gamma_p=1.2,
        gamma_d=0.25,
    )
    mean = ZeroShotMean(np.log(substitution_softmax_pssm(PARENTAL)), alpha=0.7, beta=0.2)
    noise = 0.12
    _, grads = log_marginal_likelihood_with_grads(kernel, mean, noise, data)

    def fd_check(label: str, setter, base: float) -> None:
        h = 1e-5 * max(abs(base), 1e-2)

        def value_at(v: float) -> float:
            setter(v)
            out = log_marginal_likelihood(kernel, mean, noise, data)
            setter(base)
            return out

        fd = central_difference(value_at, base, h)
        got = grads[label]
        if abs(got - fd) > 1e-4 * max(abs(got), abs(fd)) + 1e-7:
            failures.append(f"{label}: gradient {got:.6g} vs finite difference {fd:.6g}")

    for pname in kernel.free_param_names():
        fd_check(f"kernel.{pname}", lambda v, _p=pname: kernel.set_param(_p, v), kernel.params()[pname])
    for pname in mean.free_param_names():
        fd_check(f"mean.{pname}", lambda v, _p=pname: mean.set_param(_p, v), mean.params()[pname])
    h = 1e-6
    fd_noise = (
        log_marginal_likelihood(kernel, mean, noise + h, data)
        - log_marginal_likelihood(kernel, mean, noise - h, data)
    ) / (2.0 * h)
    if abs(grads["noise.variance"] - fd_noise) > 1e-4 * abs(fd_noise):
        failures.append("noise.variance gradient does not match finite differences")

    _report("gp-inference", failures, "20 datasets, 8 hyperparameter gradients")


# ---------------------------------------------------------------------------
# 3. every kernel family gives valid covariance matrices


def _kernel_zoo(rng, context):
    mix = float(rng.uniform(0.1, 0.9))
    return [
        TanimotoKernel("onehot", variance=float(rng.uniform(0.2, 3.0))),
        TanimotoKernel("blosum", variance=float(rng.uniform(0.2, 3.0))),
        Matern52Kernel("x", lengthscale=float(rng.uniform(0.3, 4.0))),
        SquaredExponentialKernel("x", lengthscale=float(rng.uniform(0.3, 4.0))),
        SumKernel([("a", Matern52Kernel("x")), ("b", TanimotoKernel("blosum"))]),
        ProductKernel([("a", TanimotoKernel("onehot")), ("b", SquaredExponentialKernel("x"))]),
        KermutKernel(context, TanimotoKernel("onehot"), mix=mix),
        KermutKernel(
            context,
            TanimotoKernel("blosum"),
            variance=float(rng.uniform(0.3, 2.0)),
            gamma_h=float(rng.uniform(0.3, 2.0)),
            gamma_d=float(rng.uniform(0.05, 0.5)),
        ),
    ]


def test_kernel_grams_are_psd_and_reparameterization_holds(rng):
    failures: list[str] = []
    context = synthetic_structure_context(PARENTAL, seed=2)
    onehot, blosum = one_hot_matrix(), blosum62_matrix()
    for trial in range(100):
        n = int(rng.integers(2, 31))
        seqs, inputs = mutant_inputs(rng, PARENTAL, n, encoding=onehot)
        blosum_rows = np.stack([encode(seq, blosum) for seq in seqs])
        x_rows = np.stack([rng.standard_normal(8) for _ in seqs])
        inputs = KernelInputs(
            {**inputs.vectors, "blosum": blosum_rows, "x": x_rows}, inputs.residues, inputs.parental
        )
        for kernel in _kernel_zoo(rng, context):
            gram = kernel.gram(inputs)
            low = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[0])
            if low < -1e-8 * n:
                failures.append(
                    f"trial {trial}: {type(kernel).__name__} min eigenvalue {low:.3e}"
                )

    # the factored form must reproduce variance' * mix' * k_struct
    # + (1 - mix') * k_seq for every admissible unfactored setting
    seqs, inputs = mutant_inputs(rng, PARENTAL, 9, encoding=onehot)
    seq_gram = TanimotoKernel("onehot").gram(inputs)
    struct_gram = np.array(
        [
            [kermut_struct(diff(PARENTAL, a), diff(PARENTAL, b), context) for b in seqs]
            for a in seqs
        ]
    )
    for _ in range(50):
        var_orig = float(rng.uniform(0.1, 4.0))
        mix_orig = float(rng.uniform(0.05, 0.95))
        var_fact, mix_fact = kermut_params_from_original(var_orig, mix_orig)
        factored = KermutKernel(
            context, TanimotoKernel("onehot"), variance=var_fact, mix=mix_fact
        ).gram(inputs)
        unfactored = var_orig * mix_orig * struct_gram + (1.0 - mix_orig) * seq_gram
        gap = float(np.max(np.abs(factored - unfactored)))
        if gap > 1e-10:
            failures.append(
                f"reparameterization gap {gap:.3e} at variance {var_orig:.3f}, mix {mix_orig:.3f}"
            )
    _report("kernel-psd", failures, "100 random sets x 8 kernels, 50 reparameterizations")


# ---------------------------------------------------------------------------
# 4. Pareto machinery against brute force


def test_sorting_matches_brute_force_and_elitism_monotone(rng):
    failures: list[str] = []
    for trial in range(200):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(2, 4))
        objs = rng.standard_normal((n, m)) * rng.uniform(0.5, 3.0)
        if trial % 3 == 0:
            objs = np.round(objs, 1)  # manufacture ties and duplicates
        got = [sorted(front.tolist()) for front in non_dominated_sort(objs)]
        if got != brute_force_fronts(objs):
            failures.append(f"trial {trial}: fronts differ from brute force")

    table = np.random.default_rng(99).standard_normal((len(PARENTAL), len(AA_INDEX)))

    def score(seq: str) -> np.ndarray:
        idx = [AA_INDEX[c] for c in seq]
        return np.array(
            [float(table[np.arange(len(seq)), idx].sum()), float(len(diff(PARENTAL, seq)))]
        )

    for seed in range(5):
        result = evolve(
            PARENTAL,
            batched(score),
            GAConfig(population_size=24, generations=12, seed=seed),
        )
        if np.any(np.diff(result.history, axis=0) < 0):
            failures.append(f"seed {seed}: a per-objective best decreased between generations")
    _report("pareto-sorting", failures, "200 populations, 5 seeded runs")


# ---------------------------------------------------------------------------
# 5. the reference campaign protocol, end to end


@pytest.fixture(scope="module")
def full_campaign():
    config = CampaignConfig(
        parental=PARENTAL, method="OneHot-T", seed=11, protocol=ProtocolConfig()
    )
    start = time.perf_counter()
    result = run_campaign(config)
    return result, time.perf_counter() - start


def test_reference_protocol_campaign_completes(full_campaign):
    result, elapsed = full_campaign
    failures: list[str] = []
    proto = result.protocol
    shape = (
        proto.initial_pool_size,
        proto.initial_sample_size,
        proto.rounds,
        proto.batch_size,
        proto.drop_count,
        proto.repeats,
    )
    if shape != (159, 50, 9, 80, 30, 3):
        failures.append(f"default protocol drifted: {shape}")
    for log in result.logs:
        sizes = [rec.n_data for rec in log.records]
        if sizes != [50 + 50 * k for k in range(10)]:
            failures.append(f"repeat {log.repeat}: dataset sizes {sizes}")
        if np.any(np.diff(log.best_so_far_series()) < 0):
            failures.append(f"repeat {log.repeat}: best-so-far decreased")
    if elapsed >= 600.0:
        failures.append(f"campaign took {elapsed:.0f}s")
    _report("protocol-campaign", failures, f"3 repeats x 9 rounds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. model-guided acquisition beats random acquisition


def test_guided_campaign_beats_random_baseline():
    failures: list[str] = []
    proto = ProtocolConfig(
        initial_pool_size=159,
        initial_sample_size=30,
        rounds=4,
        batch_size=40,
        drop_count=10,
        repeats=1,
    )
    finals: dict[str, list[float]] = {}
    for method in ("OneHot-T", "Random"):
        finals[method] = []
        for seed in range(5):
            config = CampaignConfig(
                parental=PARENTAL, method=method, seed=seed, protocol=proto
            )
            finals[method].append(
                run_campaign(config).logs[0].records[-1].best_so_far
            )
    guided = float(np.median(finals["OneHot-T"]))
    random_baseline = float(np.median(finals["Random"]))
    if not guided > random_baseline:
        failures.append(f"median guided {guided:.4f} <= random {random_baseline:.4f}")
    _report(
        "guided-vs-random",
        failures,
        f"5 paired seeds, median best {guided:.3f} vs {random_baseline:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. the soft constraint pulls batches toward likely sequences


def test_soft_constraint_lifts_batch_likelihood(tmp_path, rng):
    failures: list[str] = []
    pssm = concentrated_pssm(PARENTAL, weight=0.9)
    pssm_path = tmp_path / "parental_pssm.tsv"
    pssm_path.write_text(
        "\n".join("\t".join(f"{v:.17g}" for v in row) for row in pssm) + "\n"
    )

    proto = ProtocolConfig(
        initial_pool_size=159,
        initial_sample_size=30,
        rounds=3,
        batch_size=30,
        drop_count=10,
        repeats=3,
    )
    per_repeat: dict[str, list[float]] = {}
    for method in ("OneHot-T", "C-OneHot-T"):
        config = CampaignConfig(
            parental=PARENTAL,
            method=method,
            seed=7,
            protocol=proto,
            providers=ProviderConfig(constraint_pssm_path=str(pssm_path)),
        )
        result = run_campaign(config)
        per_repeat[method] = [
            float(
                np.mean(
                    [
                        rec.batch_mean_likelihood
                        for rec in log.records
                        if rec.batch_mean_likelihood is not None
                    ]
                )
            )
            for log in result.logs
        ]
    wins = sum(
        c >= u for c, u in zip(per_repeat["C-OneHot-T"], per_repeat["OneHot-T"])
    )
    if wins < 2:
        failures.append(
            f"constrained batches likelier in only {wins}/3 repeats "
            f"({per_repeat['C-OneHot-T']} vs {per_repeat['OneHot-T']})"
        )

    # exactness of the multiplicative weighting itself
    acq = rng.uniform(0.1, 3.0, 32)
    lik = rng.uniform(0.0, 1.0, 32)
    lik[::5] = 0.0
    if not np.array_equal(soft_constrain(lik, 2.0 * acq), 2.0 * soft_constrain(lik, acq)):
        failures.append("doubling the acquisition must exactly double the weighted value")
    if not np.all(soft_constrain(lik, acq)[::5] == 0.0):
        failures.append("zero likelihood must zero the weighted value exactly")
    if soft_constrain(0.7, 0.0) != 0.0:
        failures.append("zero acquisition must stay zero exactly")

    means = rng.uniform(0.0, 3.0, 20)
    stds = rng.uniform(0.1, 1.5, 20)
    liks = rng.uniform(0.2, 1.0, 20)
    picked = select_batch(PortfolioProblem(means, stds, likelihoods=liks), 8)
    halved = select_batch(PortfolioProblem(means, stds, likelihoods=liks / 2.0), 8)
    if picked != halved:
        failures.append("halving every likelihood changed the selected batch")

    _report(
        "soft-constraint",
        failures,
        f"constrained batches likelier in {wins}/3 paired repeats",
    )


# ---------------------------------------------------------------------------
# 8. rigid-transform recovery and RMSD trajectories


def test_alignment_recovers_rigid_transforms_and_logs_rmsd(full_campaign, rng, tmp_path):
    failures: list[str] = []
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 40))
        reference = rng.standard_normal((n, 3)) * rng.uniform(0.5, 5.0)
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(rotation) < 0:
            rotation[:, 0] *= -1.0
        moved = reference @ rotation.T + rng.uniform(-10.0, 10.0, 3)
        _, rmsd = kabsch_align(moved, reference)
        worst = max(worst, rmsd)
        if rmsd > 1e-9:
            failures.append(f"trial {trial}: rmsd {rmsd:.3e} after a rigid move")

    result, _ = full_campaign
    for log in result.logs:
        for rec in log.records[1:]:
            if rec.rmsd_mean is None or rec.rmsd_max is None:
                failures.append(
                    f"repeat {log.repeat} round {rec.round_index}: missing rmsd"
                )
    out = tmp_path / "rounds.csv"
    write_rounds_csv(out, result)
    header, *rows = out.read_text().strip().splitlines()
    col = header.split(",").index("batch_rmsd_mean")
    populated = sum(1 for line in rows if line.split(",")[col])
    if populated < result.protocol.repeats * result.protocol.rounds:
        failures.append("rmsd trajectory cells missing from the round log")

    _report(
        "rmsd-recovery",
        failures,
        f"100 rigid moves, worst rmsd {worst:.2e}; trajectories written",
    )
