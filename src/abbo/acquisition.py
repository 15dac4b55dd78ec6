"""Acquisition functions and portfolio-style batch selection.

The soft constraint multiplies acquisition values by sequence likelihoods.
Batch selection treats the candidate front as a portfolio: each candidate's
"return" and pairwise "covariance" come from box probabilities against a
reference point, and the batch is read off the maximum-Sharpe-ratio
allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "soft_constrain",
    "default_reference_point",
    "PortfolioProblem",
    "build_portfolio",
    "solve_sharpe",
    "select_batch",
]

# the Sharpe solver's safeguard on active-set changes, and its KKT tolerance
_SHARPE_MAX_ITER = 5000
_SHARPE_TOL = 1e-12


def _check_unit_interval(p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0) | (arr > 1)):
        raise ValueError(f"{name} values must lie in [0, 1]")
    return arr


def soft_constrain(likelihood, acquisition):
    """Multiply acquisition values by sequence likelihoods in [0, 1].

    Exactly multiplicative, so zeros are preserved and any common scaling of
    the acquisition passes straight through.
    """
    lik = _check_unit_interval(likelihood, "likelihood")
    acq = np.asarray(acquisition, dtype=float)
    out = lik * acq
    if np.ndim(likelihood) == 0 and np.ndim(acquisition) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# portfolio batch selection


def default_reference_point(values: np.ndarray) -> np.ndarray:
    """Componentwise min minus 5% of the range (with a floor for flat dimensions).

    A pad below the minimum's float resolution would round away and leave the
    minimum with a zero return; the reference is then the next float below it,
    so it always lies strictly below every candidate.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected an (l, t) objective matrix, got shape {values.shape}")
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    pad = 0.05 * span
    pad[span == 0] = 1e-6
    return np.minimum(lo - pad, np.nextafter(lo, -np.inf))


@dataclass
class PortfolioProblem:
    """Candidates in objective space plus the reference point they dominate.

    `means` and `stds` are the two maximized objectives (posterior mean and
    standard deviation in campaigns). The reference point defaults to the 5%
    padding rule and must be strictly below every candidate in every
    dimension; `best` is always the componentwise maximum. `likelihoods`, when
    present, soft-weight the candidates during selection.
    """

    means: np.ndarray
    stds: np.ndarray
    reference: np.ndarray | None = None
    likelihoods: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.means = np.asarray(self.means, dtype=float).ravel()
        self.stds = np.asarray(self.stds, dtype=float).ravel()
        if self.means.size == 0 or self.means.size != self.stds.size:
            raise ValueError(
                f"need matching nonempty objectives, got {self.means.size} means "
                f"and {self.stds.size} stds"
            )
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.stds))):
            raise ValueError("candidate objectives must be finite")
        values = self.values
        if self.reference is None:
            self.reference = default_reference_point(values)
        else:
            self.reference = np.asarray(self.reference, dtype=float).ravel()
            if self.reference.shape != (2,):
                raise ValueError(f"reference point must have 2 entries, got {self.reference.shape}")
            if np.any(values <= self.reference[None, :]):
                raise ValueError(
                    "reference point must be strictly below every candidate in every dimension"
                )
        if self.likelihoods is not None:
            self.likelihoods = _check_unit_interval(self.likelihoods, "likelihood").ravel()
            if self.likelihoods.size != self.means.size:
                raise ValueError("need one likelihood per candidate")
        self.best = values.max(axis=0)

    @property
    def values(self) -> np.ndarray:
        return np.stack([self.means, self.stds], axis=1)

    def __len__(self) -> int:
        return self.means.size


def build_portfolio(problem: PortfolioProblem) -> tuple[np.ndarray, np.ndarray]:
    """Box-probability returns r and covariance Q for the candidate set.

    With every objective rescaled to alpha = (value - reference) / (best -
    reference), candidate i's return is r_i = prod_t alpha_t^i and the joint
    term is p_ij = prod_t min(alpha_t^i, alpha_t^j); Q_ij = p_ij - p_ii * p_jj.
    These are exactly the probabilities that a uniform point in the
    reference/best box falls below one (resp. both) candidates, so 0 < p_ij <=
    min(p_ii, p_jj) <= 1 and Q is a covariance matrix up to rounding.
    """
    values = problem.values
    denom = problem.best - problem.reference
    alpha = (values - problem.reference[None, :]) / denom[None, :]
    p = np.ones((len(problem), len(problem)))
    for t in range(alpha.shape[1]):
        col = alpha[:, t]
        p *= np.minimum(col[:, None], col[None, :])
    r = np.diag(p).copy()
    q = p - np.outer(r, r)
    return r, q


def _simplex_qp_active_set(m: np.ndarray) -> np.ndarray:
    """Minimize x.M.x over the unit simplex for symmetric positive definite M.

    Primal active-set method with exact face solves. On the current support
    the equality-constrained minimizer is x = u / sum(u) where M u = 1
    restricted to the support; the solve runs after symmetric diagonal
    scaling, which keeps it accurate when diagonal entries span many orders
    of magnitude (they do whenever one candidate dominates and its covariance
    row collapses to the loading epsilon). A negative face entry triggers the
    usual blocking step to the first coordinate hitting zero, which then
    leaves the support; an all-nonnegative face either certifies optimality
    through the KKT multipliers (slack within `_SHARPE_TOL` of zero, relative
    to the multiplier scale) or admits the most violating index. Each accepted
    face strictly improves the objective, so termination is finite and
    `_SHARPE_MAX_ITER` is only a safeguard.
    """
    n = m.shape[0]
    diag = np.diag(m).copy()
    x = np.zeros(n)
    x[int(np.argmin(diag))] = 1.0
    active = x > 0
    for _ in range(_SHARPE_MAX_ITER):
        idx = np.flatnonzero(active)
        scale = 1.0 / np.sqrt(diag[idx])
        scaled = m[np.ix_(idx, idx)] * np.outer(scale, scale)
        try:
            u = scale * np.linalg.solve(scaled, scale)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular face system in the Sharpe solver") from exc
        total = float(u.sum())
        if total <= 0 or not np.all(np.isfinite(u)):
            raise NumericalError("face solve broke down in the Sharpe solver")
        face = u / total
        if np.all(face >= 0):
            x = np.zeros(n)
            x[idx] = face
            gradient = 2.0 * (m @ x)
            nu = float(x @ gradient)
            slack = gradient - nu
            slack[idx] = np.inf
            worst = int(np.argmin(slack))
            if slack[worst] >= -_SHARPE_TOL * max(1.0, abs(nu)):
                return x
            active[worst] = True
        else:
            current = x[idx]
            delta = face - current
            heading_down = face < 0
            steps = current[heading_down] / -delta[heading_down]
            hit = int(np.argmin(steps))
            blocker = idx[np.flatnonzero(heading_down)[hit]]
            x = np.zeros(n)
            x[idx] = np.maximum(current + float(steps[hit]) * delta, 0.0)
            x[blocker] = 0.0
            active[blocker] = False
    raise NumericalError(
        f"Sharpe solver did not converge within {_SHARPE_MAX_ITER} active-set iterations"
    )


def solve_sharpe(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Simplex weights maximizing the Sharpe ratio r.z / sqrt(z.Q.z).

    Solved through the standard transformation: minimize y.Q.y subject to
    r.y = 1, y >= 0, then z = y / sum(y). Q gets diagonal loading (1e-10,
    escalating tenfold) until it factorizes. Substituting x = r * y maps the
    program onto the unit simplex with matrix Q / (r r^T), which an exact
    active-set method solves to machine precision; that matters because a
    candidate that dominates in every objective zeroes out its covariance
    row, leaving the quadratic conditioned like 1/epsilon, where gradient
    methods stall. The substitution also makes the answer invariant under
    positive rescaling of r. Raises NumericalError if the active set has not
    settled within `_SHARPE_MAX_ITER` changes.
    """
    r = np.asarray(r, dtype=float).ravel()
    q = np.asarray(q, dtype=float)
    n = r.size
    if q.shape != (n, n):
        raise ValueError(f"Q must be ({n}, {n}), got {q.shape}")
    if np.any(r <= 0):
        raise ValueError("returns must be strictly positive")
    if n == 1:
        return np.array([1.0])

    q = (q + q.T) / 2.0
    eps = 1e-10
    while True:
        try:
            np.linalg.cholesky(q + eps * np.eye(n))
            break
        except np.linalg.LinAlgError:
            eps *= 10.0
            if eps > 1e3 * max(1.0, float(np.max(np.abs(q)))):
                raise NumericalError("covariance loading diverged; Q is badly scaled")
    q_loaded = q + eps * np.eye(n)

    m = q_loaded / np.outer(r, r)
    x = _simplex_qp_active_set((m + m.T) / 2.0)
    y = x / r
    return y / y.sum()


def select_batch(
    problem: PortfolioProblem, q: int, *, return_details: bool = False
):
    """Indices of the `q` candidates with the largest allocation weights.

    Ties in the weight are broken by higher return, then lower index, so the
    result is deterministic. When the problem carries likelihoods they
    multiply the returns before solving, which biases the allocation toward
    high-likelihood candidates without hard-filtering anything.
    """
    if not 1 <= q <= len(problem):
        raise ValueError(f"batch size {q} outside [1, {len(problem)}]")
    r, q_matrix = build_portfolio(problem)
    if problem.likelihoods is not None:
        # keep returns strictly positive for the solver
        r = r * np.maximum(problem.likelihoods, 1e-12)
    z = solve_sharpe(r, q_matrix)
    order = sorted(range(len(problem)), key=lambda i: (-z[i], -r[i], i))
    indices = order[:q]
    if return_details:
        return indices, r, z
    return indices
