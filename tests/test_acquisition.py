import numpy as np
import pytest

from abbo.acquisition import (
    PortfolioProblem,
    build_portfolio,
    default_reference_point,
    select_batch,
    soft_constrain,
    solve_sharpe,
)
from conftest import sharpe_ratio, simplex_grid


# ---------------------------------------------------------------------------
# soft constraint


def test_soft_constrain_multiplies():
    assert soft_constrain(0.25, 2.0) == pytest.approx(0.5)
    out = soft_constrain(np.array([0.5, 1.0]), np.array([2.0, 3.0]))
    assert np.allclose(out, [1.0, 3.0])


# ---------------------------------------------------------------------------
# portfolio construction


def test_default_reference_rule():
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    ref = default_reference_point(values)
    # min - 0.05 * span per dimension
    assert np.allclose(ref, [0.0 - 0.1, 1.0 - 0.1])


def test_default_reference_handles_flat_dimension():
    values = np.array([[1.0, 2.0], [1.0, 5.0]])
    ref = default_reference_point(values)
    assert ref[0] == pytest.approx(1.0 - 1e-6)  # flat dimension gets a fixed pad
    assert ref[1] == pytest.approx(2.0 - 0.05 * 3.0)


def test_default_reference_lies_below_a_spread_under_float_resolution():
    # a fit at its lengthscale floor gave means this close; the 5% pad rounds
    # away, and a reference at the minimum gave that candidate a zero return
    lo = 0.16935819875280836
    up = np.nextafter(lo, 1.0)
    problem = PortfolioProblem(np.array([lo, up, up]), np.array([0.3, 0.2, 0.1]))
    assert np.all(problem.reference < problem.values.min(axis=0))
    assert len(select_batch(problem, 2)) == 2


def test_hand_worked_two_candidate_portfolio():
    # candidates normalized to alpha = (0.5, 1) and (1, 0.5):
    # p11 = p22 = 0.5, p12 = 0.25, so Q12 = 0.25 - 0.25 = 0
    means = np.array([0.5, 1.0])
    stds = np.array([1.0, 0.5])
    problem = PortfolioProblem(means, stds, reference=np.array([0.0, 0.0]))
    r, q = build_portfolio(problem)
    assert np.allclose(r, [0.5, 0.5])
    assert q[0, 1] == pytest.approx(0.0)
    assert q[0, 0] == pytest.approx(0.5 - 0.25)
    assert q[1, 1] == pytest.approx(0.25)


def test_returns_are_box_probabilities(rng):
    # r_i must equal the product of normalized coordinates, p_ij the product
    # of coordinate minima; check directly on random instances
    for _ in range(20):
        n = int(rng.integers(2, 8))
        means = rng.uniform(0.0, 3.0, n)
        stds = rng.uniform(0.1, 2.0, n)
        problem = PortfolioProblem(means, stds)
        r, q = build_portfolio(problem)
        ref, best = problem.reference, problem.best
        alpha = (np.stack([means, stds], axis=1) - ref) / (best - ref)
        for i in range(n):
            assert r[i] == pytest.approx(alpha[i].prod())
            for j in range(n):
                p_ij = np.minimum(alpha[i], alpha[j]).prod()
                assert q[i, j] == pytest.approx(p_ij - alpha[i].prod() * alpha[j].prod())


def test_portfolio_q_is_positive_semidefinite(rng):
    for _ in range(50):
        n = int(rng.integers(2, 20))
        problem = PortfolioProblem(rng.uniform(0, 5, n), rng.uniform(0.05, 3, n))
        _, q = build_portfolio(problem)
        min_eig = np.linalg.eigvalsh((q + q.T) / 2)[0]
        assert min_eig >= -1e-10 * n


def test_reference_must_lie_below_candidates():
    with pytest.raises(ValueError):
        PortfolioProblem(
            np.array([1.0, 2.0]), np.array([1.0, 1.0]), reference=np.array([1.5, 0.0])
        )


# ---------------------------------------------------------------------------
# Sharpe solver


def test_singleton_allocates_everything():
    assert np.allclose(solve_sharpe(np.array([2.0]), np.zeros((1, 1))), [1.0])


def test_solver_output_satisfies_qp_kkt(rng):
    # rescaling z back to r.y = 1 must satisfy the loaded-QP optimality
    # conditions: the gradient 2 (Q + eps I) y equals lambda * r on the
    # support and is at least that off it
    for _ in range(100):
        n = int(rng.integers(2, 12))
        problem = PortfolioProblem(rng.uniform(0.5, 3.0, n), rng.uniform(0.1, 2.0, n))
        r, q = build_portfolio(problem)
        z = solve_sharpe(r, q)
        assert np.all(z >= 0)
        assert z.sum() == pytest.approx(1.0)
        y = z / float(r @ z)
        grad = 2.0 * (q + 1e-10 * np.eye(n)) @ y
        lam = float(y @ grad)  # r.y = 1 collapses the multiplier to y.grad
        tol = 1e-7 * max(1.0, float(np.max(np.abs(grad))))
        support = z > 1e-12
        assert np.all(np.abs(grad[support] - lam * r[support]) <= tol)
        assert np.all(grad[~support] >= lam * r[~support] - tol)


def test_identical_candidates_split_evenly():
    problem = PortfolioProblem(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    r, q = build_portfolio(problem)
    assert np.allclose(solve_sharpe(r, q), [0.5, 0.5], atol=1e-12)


def test_solver_handles_dominant_candidate(rng):
    # a candidate that is best in both objectives has box probability one, so
    # its covariance row is exactly zero and the loaded QP is conditioned
    # like 1/eps; the solver must still beat the pure vertex allocation
    for _ in range(20):
        n = int(rng.integers(3, 15))
        means = rng.uniform(0.5, 2.5, n)
        stds = rng.uniform(0.1, 2.0, n)
        means[0] = means.max() + 0.5
        stds[0] = stds.max() + 0.5
        problem = PortfolioProblem(means, stds)
        r, q = build_portfolio(problem)
        assert np.all(q[0] == 0) and r[0] == 1.0
        z = solve_sharpe(r, q)
        assert int(np.argmax(z)) == 0
        vertex = np.zeros(n)
        vertex[0] = 1.0
        h_solver = sharpe_ratio(z, r, q, eps=1e-10)
        h_vertex = sharpe_ratio(vertex, r, q, eps=1e-10)
        assert h_solver >= h_vertex * (1.0 - 1e-9)


def test_allocation_invariant_under_return_scaling(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        problem = PortfolioProblem(rng.uniform(0.5, 3.0, n), rng.uniform(0.1, 2.0, n))
        r, q = build_portfolio(problem)
        scale = float(rng.uniform(0.01, 100.0))
        assert np.allclose(solve_sharpe(r, q), solve_sharpe(r * scale, q), atol=1e-9)


def test_solver_beats_fine_grid(rng):
    # small instances where the full 0.02-resolution grid is enumerable
    for _ in range(10):
        n = int(rng.integers(2, 5))
        means = np.sort(rng.uniform(0.5, 3.0, n))
        stds = np.sort(rng.uniform(0.1, 2.0, n))[::-1].copy()  # non-dominated set
        problem = PortfolioProblem(means, stds)
        r, q = build_portfolio(problem)
        z = solve_sharpe(r, q)
        assert np.all(z >= -1e-12)
        assert z.sum() == pytest.approx(1.0)
        h_solver = sharpe_ratio(z, r, q, eps=1e-10)
        h_grid = max(sharpe_ratio(g, r, q, eps=1e-10) for g in simplex_grid(n, 0.02))
        assert h_solver >= h_grid * (1.0 - 1e-6)


def test_solver_matches_known_uncorrelated_solution():
    # diagonal Q with equal returns: optimal weights are proportional to
    # 1 / Q_ii (classic result for independent assets)
    r = np.array([1.0, 1.0, 1.0])
    q = np.diag([1.0, 2.0, 4.0])
    z = solve_sharpe(r, q)
    expected = np.array([1.0, 0.5, 0.25])
    expected /= expected.sum()
    assert np.allclose(z, expected, atol=1e-6)


def test_solver_rejects_nonpositive_returns():
    with pytest.raises(ValueError):
        solve_sharpe(np.array([1.0, 0.0]), np.eye(2))


# ---------------------------------------------------------------------------
# batch selection


def test_select_batch_orders_by_weight(rng):
    means = np.array([1.0, 2.0, 3.0, 0.5])
    stds = np.array([2.0, 1.5, 1.0, 0.2])
    problem = PortfolioProblem(means, stds)
    sel = select_batch(problem, 2)
    _, r, z = select_batch(problem, 2, return_details=True)
    by_weight = sorted(range(4), key=lambda i: (-z[i], -r[i], i))
    assert sel == by_weight[:2]


def test_select_batch_respects_bounds():
    problem = PortfolioProblem(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        select_batch(problem, 3)
    with pytest.raises(ValueError):
        select_batch(problem, 0)


def test_likelihoods_bias_selection():
    # two near-identical candidates; the likelihood multiplier must break
    # the tie toward the likelier one
    means = np.array([2.0, 2.0, 1.0])
    stds = np.array([1.0, 1.0001, 1.0])
    liks = np.array([0.01, 0.9, 0.5])
    with_lik = PortfolioProblem(means, stds, likelihoods=liks)
    sel = select_batch(with_lik, 1)
    assert sel == [1]


def test_dominant_candidate_selected_first(rng):
    for _ in range(10):
        means = rng.uniform(0.0, 1.0, 8)
        stds = rng.uniform(0.1, 1.0, 8)
        means[3] = 2.0
        stds[3] = 2.0
        sel = select_batch(PortfolioProblem(means, stds), 3)
        assert sel[0] == 3


def test_selected_never_dominated_by_unselected(rng):
    # a strictly dominated candidate has a strictly smaller return and never
    # a larger allocation, so it cannot displace its dominator from the batch
    # unless their weights tie
    for _ in range(50):
        n = int(rng.integers(3, 20))
        problem = PortfolioProblem(rng.uniform(0.0, 3.0, n), rng.uniform(0.05, 2.0, n))
        batch = int(rng.integers(1, n))
        sel, _, z = select_batch(problem, batch, return_details=True)
        unselected = [j for j in range(n) if j not in set(sel)]
        for i in sel:
            for j in unselected:
                dominated = (
                    problem.means[j] > problem.means[i] + 1e-9
                    and problem.stds[j] > problem.stds[i] + 1e-9
                )
                if dominated:
                    assert abs(z[i] - z[j]) <= 1e-9
