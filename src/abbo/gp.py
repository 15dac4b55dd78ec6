"""Exact Gaussian process regression with analytic marginal-likelihood gradients.

Inference is plain Cholesky: no inducing points, no stochastic tricks. The fit
runs multi-start L-BFGS-B over transformed hyperparameters (log for positive
parameters, logit for mixture weights, identity for prior-mean coefficients)
with exact gradients: the kernel contracts one weight matrix per evaluation
(`Kernel.gram_grad_prepared`).

A Tanimoto kernel under a constant mean is fitted in the spectral domain
instead (the FaST-LMM reparameterisation, Lippert et al., Nature Methods
2011). There K = variance * S with the similarity S fixed for the whole fit,
so S = Q diag(lam) Q^T is decomposed once, y and the ones vector are rotated
into Q once, and every objective evaluation is O(n) in d = variance * lam +
noise. This is exact, not an approximation; the fitted model is still
factorized densely once at the optimum, so `GPModel` and `predict` do not
depend on which route found the hyperparameters.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.optimize import minimize

from ._forked import run_tasks
from .exceptions import NumericalError
from .kernels import Kernel, KernelInputs, TanimotoKernel, _Namespace
from .plm import PROB_FLOOR
from .sequences import AA_INDEX, ALPHABET, MutationSet

__all__ = [
    "Dataset",
    "ConstantMean",
    "ZeroShotMean",
    "GPModel",
    "fit_gp",
    "log_marginal_likelihood",
    "log_marginal_likelihood_with_grads",
    "cholesky_with_jitter",
    "zero_shot_score",
    "NOISE_BOUNDS",
]

NOISE_BOUNDS = (1e-8, 10.0)

# escalation schedule: 0, then 1e-10 .. 1e-4 times the mean diagonal
_JITTER_STEPS = 7

# L-BFGS-B iterations of each fit restart
_FIT_MAX_ITER = 200


def _jitter_schedule(mean_diag: float) -> list[float]:
    """Diagonal jitters to try in order, scaled by the matrix's mean diagonal."""
    scale = float(mean_diag)
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    return [0.0] + [scale * 1e-10 * 10.0**k for k in range(_JITTER_STEPS)]


def cholesky_with_jitter(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of `a`, adding as little diagonal jitter as needed.

    Tries no jitter first, then 1e-10 * mean(diag) escalating tenfold up to
    1e-4 * mean(diag). Raises NumericalError when even that fails.
    """
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.cholesky(a), 0.0
    except np.linalg.LinAlgError:
        pass
    jitters = _jitter_schedule(np.mean(np.diag(a)))
    eye = np.eye(a.shape[0])
    for jitter in jitters[1:]:
        try:
            return np.linalg.cholesky(a + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    eigs = np.linalg.eigvalsh((a + a.T) / 2.0)
    raise NumericalError(
        f"covariance is not positive definite even with jitter "
        f"{jitters[-1]:.3e}; eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    )


def zero_shot_score(log_table: np.ndarray, mutations: MutationSet) -> float:
    """Sum over mutated sites of log p(new residue) - log p(parental residue).

    `log_table` holds per-site log-probabilities, one row per parental
    position. Entries below log(1e-12) are floored (and reported via a
    RuntimeWarning) so the score stays finite.
    """
    log_table = np.asarray(log_table, dtype=float)
    if log_table.ndim != 2 or log_table.shape[1] != len(ALPHABET):
        raise ValueError(f"log-probability table must be (L, 20), got {log_table.shape}")
    if log_table.shape[0] != len(mutations.parental):
        raise ValueError(
            f"table has {log_table.shape[0]} rows but parental length is "
            f"{len(mutations.parental)}"
        )
    floor = np.log(PROB_FLOOR)
    score = 0.0
    floored = 0
    for mut in mutations.entries:
        to_lp = log_table[mut.position, AA_INDEX[mut.to_residue]]
        from_lp = log_table[mut.position, AA_INDEX[mut.from_residue]]
        floored += int(to_lp < floor) + int(from_lp < floor)
        score += max(to_lp, floor) - max(from_lp, floor)
    if floored:
        warnings.warn(
            f"floored {floored} log-probabilities at {floor:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(score)


# ---------------------------------------------------------------------------
# prior means


class _MeanBase(_Namespace):
    """Prior means share the kernels' parameter namespace, with a linear
    transform and bounds of +-1e6 for every coefficient.

    Like kernels, a mean splits into `prepare` (whatever does not depend on
    the parameters, computed once per batch) and the `*_prepared`
    evaluations that the fit repeats.
    """

    _DEFAULT_TRANSFORM = "linear"

    def prepare(self, inputs):
        raise NotImplementedError

    def values_prepared(self, prep) -> np.ndarray:
        raise NotImplementedError

    def grads_prepared(self, prep) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def values(self, inputs) -> np.ndarray:
        return self.values_prepared(self.prepare(inputs))


class ConstantMean(_MeanBase):
    """m(x) = beta."""

    def __init__(self, beta: float = 0.0):
        super().__init__()
        self._values = {"beta": float(beta)}

    def prepare(self, inputs) -> int:
        return len(inputs)

    def values_prepared(self, n: int) -> np.ndarray:
        return np.full(n, self._values["beta"])

    def grads_prepared(self, n: int) -> dict[str, np.ndarray]:
        return {"beta": np.ones(n)}


class ZeroShotMean(_MeanBase):
    """m(x) = alpha * f0(x) + beta, with f0 the zero-shot log-likelihood ratio.

    f0 treats sites independently, so it is a plain sum over the variant's
    mutations against the stored per-site log-probability table. The scores
    do not depend on alpha or beta, so `prepare` computes them once per
    batch.
    """

    def __init__(self, log_table: np.ndarray, alpha: float = 1.0, beta: float = 0.0):
        super().__init__()
        self.log_table = np.asarray(log_table, dtype=float)
        if self.log_table.ndim != 2 or self.log_table.shape[1] != len(ALPHABET):
            raise ValueError(
                f"log-probability table must be (L, 20), got {self.log_table.shape}"
            )
        self._values = {"alpha": float(alpha), "beta": float(beta)}

    def scores(self, inputs: KernelInputs) -> np.ndarray:
        """f0 of each point of a batch, summed over its mutation entries in
        order, so each equals `zero_shot_score` of the point's mutation set;
        one RuntimeWarning per batch reports floored entries."""
        owners, positions, from_res, to_res = inputs.entries
        if self.log_table.shape[0] != len(inputs.parental):
            raise ValueError(
                f"table has {self.log_table.shape[0]} rows but parental length is "
                f"{len(inputs.parental)}"
            )
        to_lp = self.log_table[positions, to_res]
        from_lp = self.log_table[positions, from_res]
        floor = np.log(PROB_FLOOR)
        floored = int(np.sum(to_lp < floor) + np.sum(from_lp < floor))
        if floored:
            warnings.warn(
                f"floored {floored} log-probabilities at {floor:.3f}",
                RuntimeWarning,
                stacklevel=2,
            )
        terms = np.maximum(to_lp, floor) - np.maximum(from_lp, floor)
        return np.bincount(owners, weights=terms, minlength=len(inputs))

    prepare = scores

    def values_prepared(self, scores: np.ndarray) -> np.ndarray:
        return self._values["alpha"] * scores + self._values["beta"]

    def grads_prepared(self, scores: np.ndarray) -> dict[str, np.ndarray]:
        return {"alpha": scores, "beta": np.ones(len(scores))}


class _Noise(_Namespace):
    """The observation noise as a namespace of one parameter, `variance`."""

    _BOUNDS = {"variance": NOISE_BOUNDS}

    def __init__(self, variance: float):
        super().__init__()
        self._values = {"variance": float(variance)}


def _hyperparameters(kernel: Kernel, mean: _MeanBase, noise: float) -> _Namespace:
    """One namespace over a GP's parameters: `kernel.*`, `mean.*`, `noise.variance`."""
    return _Namespace([("kernel", kernel), ("mean", mean), ("noise", _Noise(noise))])


# ---------------------------------------------------------------------------
# dataset and model


@dataclass
class Dataset:
    """Observed sequences, their kernel inputs as one `KernelInputs` batch, and
    targets, kept in lockstep."""

    sequences: tuple[str, ...]
    inputs: KernelInputs
    y: np.ndarray

    def __post_init__(self) -> None:
        self.sequences = tuple(self.sequences)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if not (len(self.sequences) == len(self.inputs) == self.y.size):
            raise ValueError(
                f"inconsistent dataset sizes: {len(self.sequences)} sequences, "
                f"{len(self.inputs)} inputs, {self.y.size} targets"
            )
        if len(set(self.sequences)) != len(self.sequences):
            raise ValueError("dataset contains duplicate sequences")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("dataset targets contain non-finite values")

    def __len__(self) -> int:
        return len(self.sequences)

    def extended(self, sequences, inputs, y) -> "Dataset":
        """This dataset followed by new points, whose `inputs` batch has this one's fields."""
        return Dataset(
            self.sequences + tuple(sequences),
            self.inputs.concat(inputs),
            np.concatenate([self.y, np.asarray(y, dtype=float).ravel()]),
        )


_LOG2PI = np.log(2.0 * np.pi)


def _chol_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b from A's lower Cholesky factor: LAPACK potrs, the routine
    `cho_solve` calls, without its scans of both operands for non-finite
    values (a Cholesky factor is finite, and so is every right-hand side here)."""
    x, info = dpotrs(chol, b, lower=1)
    if info:
        raise ValueError(f"dpotrs: argument {-info} has an illegal value")
    return x


def _core(kernel, mean, noise, prep, mean_prep, y, want_grads):
    """Log marginal likelihood (and raw-space gradients) at the current parameters.

    With A = K + noise * I and alpha = A^-1 (y - m), every covariance
    parameter's gradient is sum(W * dA/dtheta) for W = (alpha alpha^T - A^-1) / 2
    (Rasmussen & Williams 2006, eq. 5.9): the kernel's contraction of W, and
    trace(W) for the noise.
    """
    k, contract = kernel.gram_grad_prepared(prep)
    n = y.size
    a = k.copy()  # the contraction may hold k itself
    a.flat[:: n + 1] += noise
    chol, jitter = cholesky_with_jitter(a)
    res = y - mean.values_prepared(mean_prep)
    alpha = _chol_solve(chol, res)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    log_ml = -0.5 * float(res @ alpha) - 0.5 * log_det - 0.5 * n * _LOG2PI
    if not want_grads:
        return log_ml, {}, chol, alpha, jitter

    w = np.outer(alpha, alpha)
    w -= _chol_solve(chol, np.eye(n))
    w *= 0.5
    grads = {f"kernel.{name}": g for name, g in contract(w).items()}
    for name, dm in mean.grads_prepared(mean_prep).items():
        grads[f"mean.{name}"] = float(dm @ alpha)
    grads["noise.variance"] = float(np.trace(w))
    return log_ml, grads, chol, alpha, jitter


def log_marginal_likelihood(kernel: Kernel, mean: _MeanBase, noise: float, data: Dataset) -> float:
    prep = kernel.prepare(data.inputs)
    return _core(kernel, mean, noise, prep, mean.prepare(data.inputs), data.y, False)[0]


def log_marginal_likelihood_with_grads(
    kernel: Kernel, mean: _MeanBase, noise: float, data: Dataset
) -> tuple[float, dict[str, float]]:
    """Value and raw-space gradients keyed 'kernel.*', 'mean.*', 'noise.variance'."""
    prep = kernel.prepare(data.inputs)
    log_ml, grads, *_ = _core(kernel, mean, noise, prep, mean.prepare(data.inputs), data.y, True)
    return log_ml, grads


class _TanimotoSpectrum:
    """Log ML and gradients of K = variance * S under a constant mean, in O(n).

    S = Q diag(lam) Q^T is decomposed once. With d = variance * lam + noise and
    r = Q^T y - beta * Q^T 1, the covariance is diagonal in Q:
    log ML = -1/2 sum r^2/d - 1/2 sum log d - n/2 log 2 pi, and each gradient
    is a weighted sum over the n eigenpairs.
    """

    def __init__(self, similarity: np.ndarray, y: np.ndarray):
        self.lam, q = np.linalg.eigh(similarity)
        self.y_rot = q.T @ y
        self.ones_rot = q.T @ np.ones(y.size)
        self.mean_diag = float(np.mean(np.diag(similarity)))

    def log_ml_with_grads(
        self, variance: float, beta: float, noise: float
    ) -> tuple[float, dict[str, float]]:
        """Same value and raw-space gradients as `_core` at these parameters,
        with `cholesky_with_jitter`'s jitter schedule applied to d."""
        lam = self.lam
        base = variance * lam + noise
        for jitter in _jitter_schedule(variance * self.mean_diag + noise):
            d = base + jitter
            if np.all(d > 0):
                break
        else:
            raise NumericalError("covariance is not positive definite even with jitter")
        res = self.y_rot - beta * self.ones_rot
        res_d = res / d
        res_d2 = res_d * res_d
        inv_d = 1.0 / d
        log_ml = (
            -0.5 * float(res @ res_d)
            - 0.5 * float(np.sum(np.log(d)))
            - 0.5 * lam.size * _LOG2PI
        )
        grads = {
            "kernel.variance": 0.5 * float(lam @ res_d2) - 0.5 * float(lam @ inv_d),
            "mean.beta": float(self.ones_rot @ res_d),
            "noise.variance": 0.5 * float(np.sum(res_d2)) - 0.5 * float(np.sum(inv_d)),
        }
        return log_ml, grads


@dataclass
class GPModel:
    """A fitted GP: frozen hyperparameters plus the factorized training state."""

    kernel: Kernel
    mean: _MeanBase
    noise: float
    data: Dataset
    chol: np.ndarray
    alpha: np.ndarray
    log_ml: np.float64  # `_core` ends its sum with a numpy scalar
    jitter: float
    _prep: object

    def predict(self, query_inputs) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation of the latent function.

        `query_inputs` is a `KernelInputs` batch with the training data's
        fields. A query costs one kernel `prepare`, one cross block and one
        triangular solve, whatever its size. Tiny negative variances from
        rounding are clamped to zero.
        """
        prep_q = self.kernel.prepare(query_inputs)
        k_star = self.kernel.cross_prepared(self._prep, prep_q)
        means = self.mean.values(query_inputs) + k_star.T @ self.alpha
        v = solve_triangular(self.chol, k_star, lower=True)
        var = self.kernel.diag_prepared(prep_q) - np.einsum("ij,ij->j", v, v)
        return means, np.sqrt(np.maximum(var, 0.0))

    def log_marginal_likelihood(self) -> np.float64:
        return self.log_ml

    def hyperparameters(self) -> dict[str, float]:
        return _hyperparameters(self.kernel, self.mean, self.noise).params()


def _to_internal(value: float, kind: str) -> float:
    if kind == "log":
        return float(np.log(value))
    if kind == "logit":
        return float(np.log(value / (1.0 - value)))
    return float(value)


def _from_internal(u: float, kind: str) -> float:
    if kind == "log":
        return float(np.exp(u))
    if kind == "logit":
        return float(1.0 / (1.0 + np.exp(-u)))
    return float(u)


def _chain(u_value: float, kind: str) -> float:
    """d(raw)/d(internal) evaluated at the internal coordinate."""
    if kind == "log":
        return float(np.exp(u_value))
    if kind == "logit":
        s = 1.0 / (1.0 + np.exp(-u_value))
        return s * (1.0 - s)
    return 1.0


def fit_gp(
    data: Dataset,
    kernel: Kernel,
    mean: _MeanBase,
    *,
    noise: float = 0.1,
    fit_noise: bool = True,
    restarts: int = 8,
    seed: int = 0,
) -> GPModel:
    """Fit hyperparameters by maximizing the log marginal likelihood.

    Runs `restarts` L-BFGS-B starts: the first from the supplied parameter
    values, the rest sampled per parameter inside its bounds (log-uniform for
    log-transformed parameters, uniform otherwise; prior-mean coefficients get
    a data-scaled window). The best final likelihood wins; the incoming kernel
    and mean objects are copied, never mutated.

    A dense fit runs its restarts in this process and in forked copies of it,
    one per spare CPU (`_forked.run_tasks`). Each restart's arithmetic is the
    same in whichever process runs it, and the winner is chosen in restart
    order, so the fitted model does not depend on the CPU count.
    """
    if len(data) < 2:
        raise ValueError(f"need at least 2 observations to fit, got {len(data)}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if noise <= 0:
        raise ValueError(f"noise must be positive, got {noise}")

    kernel = copy.deepcopy(kernel)
    mean = copy.deepcopy(mean)
    space = _hyperparameters(kernel, mean, noise)
    if not fit_noise:
        space.freeze("noise.variance")
    prep = kernel.prepare(data.inputs)
    mean_prep = mean.prepare(data.inputs)
    spectrum = None
    if isinstance(kernel, TanimotoKernel) and isinstance(mean, ConstantMean):
        spectrum = _TanimotoSpectrum(kernel.similarity(prep), data.y)

    free = space.free_param_names()
    kinds = {n: space.transform(n) for n in free}
    internal_bounds = [tuple(_to_internal(b, kinds[n]) for b in space.bounds(n)) for n in free]

    def apply_vector(u: np.ndarray) -> None:
        for name, ui in zip(free, u):
            space.set_param(name, _from_internal(ui, kinds[name]))

    def objective(u: np.ndarray):
        apply_vector(u)
        raw = space.params()
        try:
            if spectrum is None:
                log_ml, grads, *_ = _core(
                    kernel, mean, raw["noise.variance"], prep, mean_prep, data.y, True
                )
            else:
                log_ml, grads = spectrum.log_ml_with_grads(
                    raw["kernel.variance"], raw["mean.beta"], raw["noise.variance"]
                )
        except NumericalError:
            return 1e25, np.zeros(len(free))
        grad_u = np.array(
            [-grads[name] * _chain(u[i], kinds[name]) for i, name in enumerate(free)]
        )
        return -log_ml, grad_u

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x617]))
    y_lo, y_hi = float(np.min(data.y)), float(np.max(data.y))
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def start_vector(index: int) -> np.ndarray:
        if index == 0:
            raw = space.params()
            return np.array([_to_internal(raw[n], kinds[n]) for n in free])
        u0 = np.empty(len(free))
        for i, name in enumerate(free):
            lo, hi = internal_bounds[i]
            if kinds[name] == "linear":
                # data-scaled window instead of the huge formal bounds
                if name.endswith("beta"):
                    u0[i] = rng.uniform(y_lo, y_hi)
                else:
                    u0[i] = rng.uniform(-3.0, 3.0)
            else:
                u0[i] = rng.uniform(lo, hi)
        return u0

    lower, upper = np.array(internal_bounds).reshape(-1, 2).T
    # L-BFGS-B clips its start into the bounds, so every start is clipped and
    # scored there; all are drawn first, in restart order
    starts = [np.clip(start_vector(i), lower, upper) for i in range(restarts if free else 1)]
    # scoring the first start builds the batch's parameter-free blocks, which
    # the restarts, in this process or a forked one, then only read
    first = objective(starts[0])

    def restart(i: int) -> list[tuple[float, np.ndarray]]:
        """(-log ML, point) at restart i's start and at its L-BFGS-B result."""
        u0 = starts[i]
        start = first if i == 0 else objective(u0)
        if not free:
            return [(start[0], u0)]
        unused = [start]  # handed to the minimizer's first call, which is at u0

        def resumed(u):
            return unused.pop() if unused and np.array_equal(u, u0) else objective(u)

        result = minimize(
            resumed,
            u0,
            jac=True,
            method="L-BFGS-B",
            bounds=internal_bounds,
            options={"maxiter": _FIT_MAX_ITER},
        )
        return [(start[0], u0), (result.fun, result.x)]

    if spectrum is None:
        outcomes = run_tasks(restart, len(starts))
    else:  # O(n) per evaluation: a fork would cost more than the restarts
        outcomes = [restart(i) for i in range(len(starts))]
    best_fun = np.inf
    best_u: np.ndarray | None = None
    for candidates in outcomes:
        for fun, u in candidates:
            if np.isfinite(fun) and fun < best_fun:
                best_fun, best_u = float(fun), np.asarray(u, dtype=float)

    if best_u is None or not np.isfinite(best_fun) or best_fun >= 1e25:
        raise NumericalError("every fit restart failed; covariance never factorized")

    apply_vector(best_u)
    noise = space.params()["noise.variance"]
    log_ml, _, chol, alpha, jitter = _core(kernel, mean, noise, prep, mean_prep, data.y, False)
    return GPModel(
        kernel=kernel,
        mean=mean,
        noise=noise,
        data=data,
        chol=chol,
        alpha=alpha,
        log_ml=log_ml,
        jitter=jitter,
        _prep=prep,
    )
