"""Shared oracles and generators for the test suite.

Everything here is deliberately naive: dense inverses, double loops, brute
force enumeration. The product code is tested against these, never against
itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from abbo.kernels import KernelInputs
from abbo.sequences import AA_INDEX, ALPHABET, encode


def random_sequences(rng: np.random.Generator, n: int, length: int) -> list[str]:
    letters = np.array(list(ALPHABET))
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice(letters, size=length)))
    return sorted(out)


def random_mutants(
    rng: np.random.Generator, parental: str, n: int, max_sites: int = 3
) -> list[str]:
    """Unique mutants of `parental` with 1..max_sites substitutions."""
    out: list[str] = []
    seen = {parental}
    while len(out) < n:
        k = int(rng.integers(1, max_sites + 1))
        pos = rng.choice(len(parental), size=k, replace=False)
        chars = list(parental)
        for p in pos:
            options = [c for c in ALPHABET if c != parental[p]]
            chars[p] = options[rng.integers(len(options))]
        cand = "".join(chars)
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def vector_inputs(
    rng: np.random.Generator, n: int, dim: int, field: str, nonneg: bool = False
) -> KernelInputs:
    vecs = rng.standard_normal((n, dim))
    if nonneg:
        vecs = np.abs(vecs)
    return KernelInputs({field: vecs})


def sequence_inputs(
    seqs: list[str], parental: str, encoding=None, field: str = "onehot"
) -> KernelInputs:
    """A batch of sequences built one sequence and one residue at a time:
    `encode` rows (when an encoding is given) and alphabet indices."""
    vectors = {} if encoding is None else {field: np.stack([encode(s, encoding) for s in seqs])}
    residues = np.array([[AA_INDEX[ch] for ch in s] for s in seqs])
    return KernelInputs(vectors, residues, parental)


def mutant_inputs(
    rng: np.random.Generator, parental: str, n: int, encoding=None, field: str = "onehot"
) -> tuple[list[str], KernelInputs]:
    """The parental and n - 1 random mutants, with their batch (`sequence_inputs`)."""
    seqs = [parental] + random_mutants(rng, parental, n - 1)
    return seqs, sequence_inputs(seqs, parental, encoding, field)


# ---------------------------------------------------------------------------
# dense GP oracle


def naive_log_marginal_likelihood(
    gram: np.ndarray, mean_vec: np.ndarray, noise: float, y: np.ndarray
) -> float:
    """Textbook log marginal likelihood through explicit inverse and determinant."""
    n = len(y)
    cov = gram + noise * np.eye(n)
    res = y - mean_vec
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    return float(
        -0.5 * res @ np.linalg.inv(cov) @ res - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)
    )


def naive_posterior(
    gram: np.ndarray,
    cross: np.ndarray,
    diag: np.ndarray,
    mean_train: np.ndarray,
    mean_query: np.ndarray,
    noise: float,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean/std of the latent function via explicit inverse."""
    inv = np.linalg.inv(gram + noise * np.eye(len(y)))
    mean = mean_query + cross.T @ inv @ (y - mean_train)
    var = diag - np.sum(cross * (inv @ cross), axis=0)
    return mean, np.sqrt(np.maximum(var, 0.0))


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# multi-objective brute force


def batched(evaluate):
    """A per-sequence objective function as the batch scorer `evolve` takes."""

    def evaluate_many(seqs: list[str]) -> np.ndarray:
        return np.array([evaluate(seq) for seq in seqs])

    return evaluate_many


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Maximization dominance: a is at least as good everywhere, better somewhere."""
    return bool(np.all(a >= b) and np.any(a > b))


def brute_force_fronts(objs: np.ndarray) -> list[list[int]]:
    """Peel non-dominated fronts by direct definition."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in set(front)]
    return fronts


# ---------------------------------------------------------------------------
# simplex grid oracle for the portfolio solver


def simplex_grid(n: int, resolution: float):
    """All points of the n-simplex whose coordinates are multiples of `resolution`."""
    steps = int(round(1.0 / resolution))

    def rec(prefix, left, slots):
        if slots == 1:
            yield prefix + [left]
            return
        for k in range(left + 1):
            yield from rec(prefix + [k], left - k, slots - 1)

    for combo in rec([], steps, n):
        yield np.array(combo, dtype=float) / steps


def sharpe_ratio(z: np.ndarray, r: np.ndarray, q: np.ndarray, eps: float = 0.0) -> float:
    quad = float(z @ (q + eps * np.eye(len(r))) @ z)
    if quad <= 0:
        return np.inf if float(r @ z) > 0 else 0.0
    return float(r @ z) / np.sqrt(quad)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
