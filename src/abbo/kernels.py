"""Covariance functions over sequence representations and mutation sets.

Two families live here. Vector kernels (Tanimoto, Matern-5/2, squared
exponential) read a named vector field out of each input. The structure-aware
mutation kernel compares sets of substitutions through per-site probability
and distance context. Sum and product combinators compose them.

Every kernel exposes a flat, dotted hyperparameter namespace plus analytic
Gram gradients so the GP can fit by L-BFGS with exact derivatives. The
gradients come as one contract: `gram_grad_prepared` returns the Gram K and a
`contract(W)` that gives sum(W * dK/dtheta) for every parameter theta, so no
kernel builds an n x n derivative matrix per parameter. The fit passes
W = (alpha alpha^T - A^-1) / 2, which turns each contraction into that
parameter's log marginal likelihood gradient (Rasmussen & Williams 2006,
eq. 5.9). The structure-aware kernel keys each batch by its U distinct
(site, substituted residue) mutations: its Gram is P T P^T for the (n, U)
incidence P and the (U, U) entry kernel T, and its contraction moves W into
key space as P^T W P. All computation is double precision, with one exact
exception: Tanimoto inner products of small-integer fields (one-hot, BLOSUM)
are multiplied in single precision whenever that gives the double-precision
result bit for bit (`_inner_products`).

What a Gram needs that no parameter touches (Tanimoto's unit-variance
similarity, Matern's distances, the squared exponential's squared distances,
Kermut's key distances) is built on the first Gram of a prepared batch and
kept on it, so a fit builds it once and each evaluation applies only the
parameters. Cross and diagonal blocks, whose query batch is used once, keep
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .features import StructureContext
from .sequences import AA_INDEX, MutationSet, residue_indices

__all__ = [
    "KernelInputs",
    "Kernel",
    "TanimotoKernel",
    "Matern52Kernel",
    "SquaredExponentialKernel",
    "SumKernel",
    "ProductKernel",
    "KermutKernel",
    "hellinger",
    "tanimoto",
    "matern52",
    "squared_exponential",
    "kermut_struct",
    "kermut_params_to_original",
    "kermut_params_from_original",
]

_SQRT5 = np.sqrt(5.0)

# exp(x) is exactly 0.0 at and below this argument (exp(-745.14) already is)
_EXP_ZERO = -745.2


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x), bit for bit, without evaluating the arguments whose
    exponential underflows to 0.0: numpy's exp is many times slower there.
    NaN stays NaN, since `~(x <= _EXP_ZERO)` is true for it."""
    zero = x <= _EXP_ZERO
    if not zero.any():  # the masked call costs more than a plain one
        return np.exp(x)
    return np.exp(x, out=np.zeros_like(x), where=~zero)


@dataclass(frozen=True)
class KernelInputs:
    """A batch of m points as seen by kernels and prior means.

    `vectors` maps each field name to an (m, d) array. A field of 8- or 16-bit
    integers (the campaign's one-hot and BLOSUM rows are int8) is read by a
    Tanimoto kernel in exact single precision; every other field, float32
    included, is read as float64. `residues` holds the
    (m, L) alphabet indices of the sequences (`sequences.residue_indices`) and
    `parental` the sequence they mutate; both are None for a vector-only
    batch. Mutations are not stored: `entries` derives them from the residues.
    """

    vectors: Mapping[str, np.ndarray] = field(default_factory=dict)
    residues: np.ndarray | None = None
    parental: str | None = None

    def __post_init__(self) -> None:
        if (self.residues is None) != (self.parental is None):
            raise ValueError("residues and parental must be given together")
        shapes = {name: np.shape(values) for name, values in self.vectors.items()}
        if self.residues is not None:
            shapes["residues"] = np.shape(self.residues)
        if {len(s) for s in shapes.values()} - {2} or len({s[0] for s in shapes.values()}) > 1:
            raise ValueError(f"kernel inputs must be (m, d) arrays of one row count, got {shapes}")
        if self.residues is not None and shapes["residues"][1] != len(self.parental):
            raise ValueError(f"residues {shapes['residues']} do not fit parental {self.parental!r}")

    def __len__(self) -> int:
        if self.residues is not None:
            return len(self.residues)
        return len(next(iter(self.vectors.values()), ()))

    def __getitem__(self, rows) -> "KernelInputs":
        """The points at `rows`, a slice or an index array, as a batch."""
        return KernelInputs(
            {name: values[rows] for name, values in self.vectors.items()},
            None if self.residues is None else self.residues[rows],
            self.parental,
        )

    def concat(self, other: "KernelInputs") -> "KernelInputs":
        """This batch's points followed by `other`'s, which has the same fields and parental."""
        if other.parental != self.parental or other.vectors.keys() != self.vectors.keys():
            raise ValueError("cannot join batches of different vector fields or parentals")
        return KernelInputs(
            {name: np.concatenate([v, other.vectors[name]]) for name, v in self.vectors.items()},
            None if self.residues is None else np.concatenate([self.residues, other.residues]),
            self.parental,
        )

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every substitution of the batch as (owners, positions, from, to): the
        point it belongs to, its site, and the parental and substituted
        residues' alphabet indices. Owners are nondecreasing and each point's
        positions ascend, the order of `diff`'s mutation sets.
        """
        if self.residues is None:
            raise ValueError(f"batch of fields {sorted(self.vectors)} has no residues and parental")
        parental = residue_indices([self.parental], len(self.parental))[0]
        owners, positions = np.nonzero(self.residues != parental)
        return owners, positions, parental[positions], self.residues[owners, positions]


def _stack(inputs: KernelInputs, field_name: str, *, exact_single: bool = False) -> np.ndarray:
    """The (n, d) matrix of a batch's vector field that a vector kernel reads:
    float64, or with `exact_single` float32 for a field of 8- or 16-bit
    integers, each of which float32 holds exactly."""
    if field_name not in inputs.vectors:
        raise ValueError(f"kernel input is missing vector field {field_name!r}")
    values = np.asarray(inputs.vectors[field_name])
    if exact_single and values.dtype.kind in "iu" and values.itemsize <= 2:
        return values.astype(np.float32)
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# hyperparameter plumbing


def _logistic(u: float) -> float:
    return 1.0 / (1.0 + np.exp(-u))


@dataclass(frozen=True)
class _Transform:
    """One kind of parameter map (paramz's `Transformation`): a fit moves a
    parameter's value v = from_u(u) through the unconstrained coordinate u,
    with chain factor dvalue_du(u). `accepts(v)` says whether a parameter of
    this kind may take v, and `requirement` what it must be otherwise. A
    parameter is fitted inside `bounds` unless its class's `_BOUNDS` says
    otherwise; restarts draw its u from `start`, or inside the transformed
    bounds when that is None.
    """

    name: str
    to_u: Callable[[float], float]
    from_u: Callable[[float], float]
    dvalue_du: Callable[[float], float]
    accepts: Callable[[float], bool]
    requirement: str
    bounds: tuple[float, float]
    start: tuple[float, float] | None = None


# `not v <= 0` lets a NaN pass, for the likelihood to reject
_LOG = _Transform(
    "log", np.log, np.exp, np.exp, lambda v: not v <= 0, "must be positive", (1e-6, 1e3)
)
_LOGIT = _Transform(
    "logit",
    lambda v: np.log(v / (1.0 - v)),
    _logistic,
    lambda u: _logistic(u) * (1.0 - _logistic(u)),
    lambda v: 0.0 < v < 1.0,
    "must lie strictly in (0, 1)",
    (1e-3, 1.0 - 1e-3),
)
# the formal bounds are huge, so restarts draw from a narrow window instead
_LINEAR = _Transform(
    "linear", float, float, lambda u: 1.0, lambda v: True, "", (-1e6, 1e6), start=(-3.0, 3.0)
)


class _Namespace:
    """A dotted hyperparameter namespace: own parameters plus labelled children.

    Own parameters are the keyword `values` of the constructor, in their
    order, each set through `set_param`. The per-class `_TRANSFORMS` and
    `_BOUNDS` tables override `_DEFAULT_TRANSFORM` and the transform's default
    bounds. A child's parameter `p` is addressed as `label.p`, so kernels,
    prior means, GP noise and any tree of them share one set, freeze, bound
    and transform path.
    """

    _TRANSFORMS: dict[str, _Transform] = {}
    _BOUNDS: dict[str, tuple[float, float]] = {}
    _DEFAULT_TRANSFORM = _LOG

    def __init__(self, children: Sequence[tuple[str, "_Namespace"]] = (), **values: float) -> None:
        self._values: dict[str, float] = dict.fromkeys(values)
        self._frozen: set[str] = set()
        self.children = list(children)
        for name, value in values.items():
            self.set_param(name, value)

    def _route(self, name: str) -> tuple["_Namespace", str]:
        """The namespace that owns `name`, and the name within it."""
        if name in self._values:
            return self, name
        lab, _, rest = name.partition(".")
        for child_lab, child in self.children:
            if child_lab == lab and rest:
                return child._route(rest)
        raise KeyError(f"unknown hyperparameter {name!r}")

    def params(self) -> dict[str, float]:
        out = dict(self._values)
        for lab, child in self.children:
            out.update((f"{lab}.{n}", v) for n, v in child.params().items())
        return out

    def set_param(self, name: str, value: float) -> None:
        owner, own_name = self._route(name)
        value = float(value)
        kind = owner.kind(own_name)
        if not kind.accepts(value):
            raise ValueError(f"{name} {kind.requirement}, got {value}")
        owner._values[own_name] = value

    def frozen(self) -> set[str]:
        out = set(self._frozen)
        for lab, child in self.children:
            out.update(f"{lab}.{n}" for n in child.frozen())
        return out

    def freeze(self, *names: str) -> "_Namespace":
        for name in names:
            owner, own_name = self._route(name)
            owner._frozen.add(own_name)
        return self

    def free_param_names(self) -> list[str]:
        frozen = self.frozen()
        return [n for n in sorted(self.params()) if n not in frozen]

    def kind(self, name: str) -> _Transform:
        """The transform a fit moves parameter `name` through."""
        owner, own_name = self._route(name)
        return owner._TRANSFORMS.get(own_name, owner._DEFAULT_TRANSFORM)

    def transform(self, name: str) -> str:
        return self.kind(name).name

    def bounds(self, name: str) -> tuple[float, float]:
        owner, own_name = self._route(name)
        return owner._BOUNDS.get(own_name, owner.kind(own_name).bounds)


# contract(W) -> {parameter: sum(W * dK/dparameter)} for one Gram K
Contraction = Callable[[np.ndarray], dict[str, float]]


class Kernel(_Namespace):
    """Base class: a hyperparameter namespace plus the Gram API."""

    # -- Gram API

    def prepare(self, inputs):
        """Precompute hyperparameter-independent structure for a batch."""
        raise NotImplementedError

    def gram_prepared(self, prep) -> np.ndarray:
        return self.gram_grad_prepared(prep)[0]

    def gram_grad_prepared(self, prep) -> tuple[np.ndarray, Contraction]:
        """The (n, n) Gram K of a prepared batch and its gradient contraction.

        `contract(W)` takes an (n, n) weight matrix and returns, for every own
        and child parameter theta (frozen ones too), the scalar
        sum_ij W_ij dK_ij/dtheta at the parameter values K was built with.
        Contracting with the unit matrix E_ij reads off one entry of dK/dtheta.
        """
        raise NotImplementedError

    def cross_prepared(self, prep_a, prep_b) -> np.ndarray:
        raise NotImplementedError

    def diag_prepared(self, prep) -> np.ndarray:
        raise NotImplementedError

    def gram(self, inputs) -> np.ndarray:
        return self.gram_prepared(self.prepare(inputs))

    def cross(self, inputs_a, inputs_b) -> np.ndarray:
        return self.cross_prepared(self.prepare(inputs_a), self.prepare(inputs_b))

    def diag(self, inputs) -> np.ndarray:
        return self.diag_prepared(self.prepare(inputs))


# ---------------------------------------------------------------------------
# vector kernels


@dataclass
class _VectorPrepared:
    """A batch's (n, d) field matrix for one vector kernel.

    A Gram's parameter-free (n, n) structure (`_VectorKernel._structure`) is
    the same at every evaluation of a fit, so `_VectorKernel._block` builds it
    on the first Gram of the batch and keeps it here; a query batch never
    does.
    """

    x: np.ndarray
    block: np.ndarray | None = None


class _VectorKernel(Kernel):
    """Shared plumbing for kernels operating on a single stacked vector field."""

    def __init__(self, field_name: str, **values: float):
        super().__init__(**values)
        self.field_name = field_name

    def prepare(self, inputs: KernelInputs) -> _VectorPrepared:
        return _VectorPrepared(_stack(inputs, self.field_name))

    def _structure(self, x: np.ndarray) -> np.ndarray:
        """The (n, n) part of the Gram of rows x that no parameter touches."""
        raise NotImplementedError

    def _block(self, prep: _VectorPrepared) -> np.ndarray:
        """The batch's `_structure`, built once per prepared batch."""
        if prep.block is None:
            prep.block = self._structure(prep.x)
        return prep.block


# float32 holds every integer of magnitude up to 2^24 exactly
_SINGLE_EXACT = 2.0**24


def _inner_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """a bᵀ and the rows' squared norms |a_i|^2 and |b_j|^2, in float64.

    float32 rows hold small integers (`_stack`). When every squared norm is
    below 2^24, each partial sum of a product or a norm is an integer below
    2^24 in magnitude (Cauchy-Schwarz), so the single-precision products are
    exact and cast to the float64 ones bit for bit. Otherwise they are
    computed in float64. Pass `b is a` for a Gram.
    """
    if a.dtype == b.dtype == np.float32:
        sq_a = np.einsum("ij,ij->i", a, a)
        sq_b = sq_a if b is a else np.einsum("ij,ij->i", b, b)
        if max(sq_a.max(initial=0.0), sq_b.max(initial=0.0)) < _SINGLE_EXACT:
            return (a @ b.T).astype(float), sq_a.astype(float), sq_b.astype(float)
    a64 = a.astype(float, copy=False)
    b64 = a64 if b is a else b.astype(float, copy=False)
    sq_a = np.einsum("ij,ij->i", a64, a64)
    sq_b = sq_a if b is a else np.einsum("ij,ij->i", b64, b64)
    return a64 @ b64.T, sq_a, sq_b


class TanimotoKernel(_VectorKernel):
    """Tanimoto similarity: variance * <u, v> / (|u|^2 + |v|^2 - <u, v>).

    Defined for any pair of real vectors that are not both zero; the
    denominator is then strictly positive. Values lie in [0, variance] for
    nonnegative inputs, and the Gram matrix is positive semi-definite for
    arbitrary real inputs. A field of small integers is multiplied in exact
    single precision (`_inner_products`); every result equals the float64 one.
    """

    def __init__(self, field_name: str, variance: float = 1.0):
        super().__init__(field_name, variance=variance)

    def prepare(self, inputs: KernelInputs) -> _VectorPrepared:
        return _VectorPrepared(_stack(inputs, self.field_name, exact_single=True))

    def _similarity(self, inner: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
        """inner / (|a|^2 + |b|^2 - inner), computed in place of `inner`."""
        denom = sq_a[:, None] + sq_b[None, :]
        denom -= inner
        if np.any(denom <= 0):
            raise ValueError("Tanimoto undefined: a pair of zero vectors was compared")
        inner /= denom
        return inner

    def _structure(self, x: np.ndarray) -> np.ndarray:
        return self._similarity(*_inner_products(x, x))

    def similarity(self, prep: _VectorPrepared) -> np.ndarray:
        """The unit-variance Gram S of a prepared batch: K = variance * S.

        This is the array kept on the batch: read it, do not write to it.
        """
        return self._block(prep)

    def gram_grad_prepared(self, prep: _VectorPrepared):
        sim = self._block(prep)
        return self._values["variance"] * sim, lambda w: {"variance": np.vdot(w, sim)}

    def cross_prepared(self, prep_a: _VectorPrepared, prep_b: _VectorPrepared) -> np.ndarray:
        k = self._similarity(*_inner_products(prep_a.x, prep_b.x))
        k *= self._values["variance"]
        return k

    def diag_prepared(self, prep: _VectorPrepared) -> np.ndarray:
        # a row of integers in float32 has a squared norm of 0 or at least 1,
        # rounded or not, so the check needs no double precision
        sq = np.einsum("ij,ij->i", prep.x, prep.x)
        if np.any(sq <= 0):
            raise ValueError("Tanimoto undefined for zero vectors")
        return np.full(prep.x.shape[0], self._values["variance"])


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


class _StationaryKernel(_VectorKernel):
    """A variance times a function of the Euclidean distance over a scalar
    lengthscale, so every point's prior variance is `variance`."""

    _BOUNDS = {"lengthscale": (1e-3, 1e3)}

    def __init__(self, field_name: str, variance: float = 1.0, lengthscale: float = 1.0):
        super().__init__(field_name, variance=variance, lengthscale=lengthscale)

    def diag_prepared(self, prep: _VectorPrepared) -> np.ndarray:
        return np.full(prep.x.shape[0], self._values["variance"])


class Matern52Kernel(_StationaryKernel):
    """Matern-5/2 on Euclidean distance with a scalar lengthscale."""

    def _eval(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        var = self._values["variance"]
        ell = self._values["lengthscale"]
        s = r / ell
        decay = _exp(-_SQRT5 * s)
        k = var * (1.0 + _SQRT5 * s + (5.0 / 3.0) * s**2) * decay
        dk_dell = var * (5.0 / 3.0) * s**2 * (1.0 + _SQRT5 * s) * decay / ell
        return k, dk_dell

    def _structure(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(_sq_dists(x, x))

    def gram_grad_prepared(self, prep: _VectorPrepared):
        k, dk_dell = self._eval(self._block(prep))
        var = self._values["variance"]
        return k, lambda w: {"variance": np.vdot(w, k) / var, "lengthscale": np.vdot(w, dk_dell)}

    def cross_prepared(self, prep_a: _VectorPrepared, prep_b: _VectorPrepared) -> np.ndarray:
        return self._eval(np.sqrt(_sq_dists(prep_a.x, prep_b.x)))[0]


class SquaredExponentialKernel(_StationaryKernel):
    """Gaussian kernel exp(-r^2 / (2 lengthscale^2)) scaled by a variance."""

    def _eval(self, d2: np.ndarray) -> np.ndarray:
        ell = self._values["lengthscale"]
        return self._values["variance"] * np.exp(-0.5 * d2 / ell**2)

    def _structure(self, x: np.ndarray) -> np.ndarray:
        return _sq_dists(x, x)

    def gram_grad_prepared(self, prep: _VectorPrepared):
        d2 = self._block(prep)
        k = self._eval(d2)
        var, ell = self._values["variance"], self._values["lengthscale"]
        return k, lambda w: {
            "variance": np.vdot(w, k) / var,
            "lengthscale": np.einsum("ij,ij,ij->", w, k, d2) / ell**3,
        }

    def cross_prepared(self, prep_a: _VectorPrepared, prep_b: _VectorPrepared) -> np.ndarray:
        return self._eval(_sq_dists(prep_a.x, prep_b.x))


# ---------------------------------------------------------------------------
# combinators


class _Combinator(Kernel):
    def __init__(self, children: Sequence[tuple[str, Kernel]]):
        labels = [lab for lab, _ in children]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate child labels: {labels}")
        if not children:
            raise ValueError("combinator needs at least one child kernel")
        super().__init__(children)

    def prepare(self, inputs):
        return tuple(child.prepare(inputs) for _, child in self.children)

    def _child_grams(self, prep) -> tuple[tuple[np.ndarray, ...], tuple[Contraction, ...]]:
        """Each child's Gram, and each child's contraction."""
        pairs = [child.gram_grad_prepared(p) for (_, child), p in zip(self.children, prep)]
        return tuple(zip(*pairs))

    def _contract_children(self, contracts, weights) -> dict[str, float]:
        """Each child's contraction of its own weight matrix, under its label."""
        return {
            f"{lab}.{name}": g
            for (lab, _), contract, w in zip(self.children, contracts, weights)
            for name, g in contract(w).items()
        }


class SumKernel(_Combinator):
    """Sum of child kernels.

    Overall scales are the children's variance parameters, so a sum carries
    no weights of its own.
    """

    def gram_grad_prepared(self, prep):
        grams, contracts = self._child_grams(prep)
        # every child's derivative enters K unscaled, so all children contract the
        # one W, and no contraction may write to it
        return sum(grams), lambda w: self._contract_children(contracts, [w] * len(contracts))

    def cross_prepared(self, prep_a, prep_b) -> np.ndarray:
        pairs = zip(self.children, prep_a, prep_b)
        return sum(child.cross_prepared(pa, pb) for (_, child), pa, pb in pairs)

    def diag_prepared(self, prep) -> np.ndarray:
        return sum(child.diag_prepared(p) for (_, child), p in zip(self.children, prep))


class ProductKernel(_Combinator):
    """Elementwise product of child kernels."""

    def gram_grad_prepared(self, prep):
        grams, contracts = self._child_grams(prep)
        total = grams[0].copy()
        for k in grams[1:]:
            total *= k

        def contract(w: np.ndarray) -> dict[str, float]:
            # a child's derivative enters K times the other children's Grams
            rest = [np.prod((w, *grams[:i], *grams[i + 1 :]), axis=0) for i in range(len(grams))]
            return self._contract_children(contracts, rest)

        return total, contract

    def cross_prepared(self, prep_a, prep_b) -> np.ndarray:
        out = None
        for (_, child), pa, pb in zip(self.children, prep_a, prep_b):
            k = child.cross_prepared(pa, pb)
            out = k if out is None else out * k
        return out

    def diag_prepared(self, prep) -> np.ndarray:
        out = None
        for (_, child), p in zip(self.children, prep):
            d = child.diag_prepared(p)
            out = d if out is None else out * d
        return out


# ---------------------------------------------------------------------------
# structure-aware mutation kernel


def hellinger(p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)) / np.sqrt(2.0))


def _hellinger_matrix(site_probs: np.ndarray) -> np.ndarray:
    s = np.sqrt(site_probs)
    deltas = s[:, None, :] - s[None, :, :]
    return np.sqrt(np.sum(deltas**2, axis=-1)) / np.sqrt(2.0)


@dataclass
class _KermutPrepared:
    """A batch as the distinct mutations its points carry.

    A key is a (site, substituted residue) pair that some point of the batch
    carries; the U keys ascend by site, then residue. `incidence` is the
    (n, U) 0/1 matrix P of which point carries which key. A point has one
    residue per site, so it carries a key at most once, and every structural
    block is a product through P: P T Pᵀ for the entry kernel T over the keys.
    A Gram's (U, U) key distances are the same at every evaluation of a fit,
    so `KermutKernel.gram_grad_prepared` builds them (`_key_distances`) on the
    first Gram of the batch and keeps them here; a query batch never does.
    """

    seq_prep: object
    positions: np.ndarray  # (U,) site of each key
    sub_probs: np.ndarray  # (U,) context probability of each key's residue
    incidence: np.ndarray  # (n, U) 1 where a point carries a key, else 0
    distances: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


class KermutKernel(Kernel):
    """Structure-aware mutation-set kernel blended with a sequence kernel.

    k(x, x') = variance * (mix * k_struct + (1 - mix) * k_seq), with the
    sequence kernel pinned to unit variance so the overall scale is owned by
    `variance` alone. The structural part sums, over all pairs of one mutation
    from each set, a product of three exponentials: Hellinger distance between
    the two sites' probability vectors, absolute difference of the substituted
    residues' probabilities, and structural distance between the sites. It is
    0 whenever either mutation set is empty. A point's mutations are read from
    its residues against the batch's parental (`KernelInputs.entries`).

    Everything works on each batch's distinct mutation keys (`_KermutPrepared`).
    The structural Gram of a training batch is P T Pᵀ, with T the entry
    kernel over its U x U key distances; those distances are built on the
    batch's first Gram and kept, so an evaluation takes one U x U exponential
    and two products. The gradient contraction moves W into key space once,
    Wu = Pᵀ W P, and contracts Wu * T with each distance block for the gamma
    derivatives; the sequence kernel gets variance * (1 - mix) * W. A query
    batch builds nothing to keep: its cross block is P_a T_ab P_bᵀ over the
    two batches' keys, and its diagonal sums only the key pairs within each
    point.
    """

    _TRANSFORMS = {"mix": _LOGIT}
    _BOUNDS = {"gamma_h": (1e-3, 1e3), "gamma_p": (1e-3, 1e3), "gamma_d": (1e-3, 1e3)}

    def __init__(
        self,
        context: StructureContext,
        seq_kernel: Kernel,
        *,
        variance: float = 1.0,
        mix: float = 0.5,
        gamma_h: float = 1.0,
        gamma_p: float = 1.0,
        gamma_d: float = 1.0,
    ):
        # the sequence kernel's parameters ride along under "seq."
        own = dict(variance=variance, mix=mix, gamma_h=gamma_h, gamma_p=gamma_p, gamma_d=gamma_d)
        super().__init__([("seq", seq_kernel)], **own)
        self.context = context
        self.seq_kernel = seq_kernel
        if "variance" in seq_kernel.params():
            seq_kernel.set_param("variance", 1.0)
            seq_kernel.freeze("variance")
        self._hmat = _hellinger_matrix(context.site_probs)

    # -- preparation

    def prepare(self, inputs: KernelInputs) -> _KermutPrepared:
        owners, positions, _, residues = inputs.entries
        if len(inputs.parental) != self.context.length:
            raise ValueError(
                f"parental length {len(inputs.parental)} != context length {self.context.length}"
            )
        width = self.context.site_probs.shape[1]
        keys, key_of = np.unique(positions * width + residues, return_inverse=True)
        sites, subs = np.divmod(keys, width)
        incidence = np.zeros((len(inputs), keys.size))
        incidence[owners, key_of] = 1.0
        return _KermutPrepared(
            seq_prep=self.seq_kernel.prepare(inputs),
            positions=sites,
            sub_probs=self.context.site_probs[sites, subs],
            incidence=incidence,
        )

    def _key_distances(self, prep: _KermutPrepared) -> tuple[np.ndarray, ...]:
        """The (U, U) distances between the keys of a Gram's batch."""
        pos, probs = prep.positions, prep.sub_probs
        return self._entry_distances(pos[:, None], probs[:, None], pos[None, :], probs[None, :])

    def _entry_distances(self, pos_a, probs_a, pos_b, probs_b) -> tuple[np.ndarray, ...]:
        """(hh, pp, dd) between mutations a and b: a block when the arguments
        broadcast to one, elementwise for 1-D arrays of one length."""
        return (
            self._hmat[pos_a, pos_b],
            np.abs(probs_a - probs_b),
            self.context.distances[pos_a, pos_b],
        )

    def _entry_kernel(self, hh, pp, dd) -> np.ndarray:
        v = self._values
        return _exp(-v["gamma_h"] * hh - v["gamma_p"] * pp - v["gamma_d"] * dd)

    def gram_grad_prepared(self, prep: _KermutPrepared):
        v = dict(self._values)  # the contraction's parameters are those of this Gram
        if prep.distances is None:  # built on the batch's first Gram, kept for the fit
            prep.distances = self._key_distances(prep)
        p = prep.incidence
        t = self._entry_kernel(*prep.distances)
        k_struct = p @ t @ p.T
        k_seq, seq_contract = self.seq_kernel.gram_grad_prepared(prep.seq_prep)
        k = v["variance"] * (v["mix"] * k_struct + (1.0 - v["mix"]) * k_seq)

        def contract(w: np.ndarray) -> dict[str, float]:
            seq_w = v["variance"] * (1.0 - v["mix"]) * w
            grads = {f"seq.{name}": g for name, g in seq_contract(seq_w).items()}
            w_struct, w_seq = np.vdot(w, k_struct), np.vdot(w, k_seq)
            grads["variance"] = v["mix"] * w_struct + (1.0 - v["mix"]) * w_seq
            grads["mix"] = v["variance"] * (w_struct - w_seq)
            # sum(W * P (T * X) Pᵀ) = sum(Pᵀ W P * T * X) for each distance block X
            wt = p.T @ w @ p
            wt *= t
            for name, block in zip(("gamma_h", "gamma_p", "gamma_d"), prep.distances):
                grads[name] = -v["variance"] * v["mix"] * np.vdot(wt, block)
            return grads

        return k, contract

    def cross_prepared(self, prep_a: _KermutPrepared, prep_b: _KermutPrepared) -> np.ndarray:
        """Cross block P_a T_ab P_bᵀ over the two batches' keys; there are at
        most L * 19 keys a side, so the (U_a, U_b) block is bounded."""
        v = self._values
        t = self._entry_kernel(
            *self._entry_distances(
                prep_a.positions[:, None],
                prep_a.sub_probs[:, None],
                prep_b.positions[None, :],
                prep_b.sub_probs[None, :],
            )
        )
        k_struct = prep_a.incidence @ t @ prep_b.incidence.T
        k_seq = self.seq_kernel.cross_prepared(prep_a.seq_prep, prep_b.seq_prep)
        return v["variance"] * (v["mix"] * k_struct + (1.0 - v["mix"]) * k_seq)

    def diag_prepared(self, prep: _KermutPrepared) -> np.ndarray:
        """Diagonal from the key pairs within each point only."""
        v = self._values
        n = len(prep.incidence)
        owners, keys = np.nonzero(prep.incidence)  # each point's keys, ascending
        counts = np.bincount(owners, minlength=n)
        first = np.cumsum(counts) - counts  # each point's first key
        # pair every key e of a point with each key f of the same point: e
        # repeats once per key of its owner, and the k-th repeat pairs with
        # f = first + k
        reps = counts[owners]
        e = np.repeat(np.arange(owners.size), reps)
        k = np.arange(e.size) - np.repeat(np.cumsum(reps) - reps, reps)
        ke, kf = keys[e], keys[first[owners[e]] + k]
        t = self._entry_kernel(
            *self._entry_distances(
                prep.positions[ke], prep.sub_probs[ke], prep.positions[kf], prep.sub_probs[kf]
            )
        )
        struct_diag = np.bincount(owners[e], weights=t, minlength=n)
        seq_diag = self.seq_kernel.diag_prepared(prep.seq_prep)
        return v["variance"] * (v["mix"] * struct_diag + (1.0 - v["mix"]) * seq_diag)


# ---------------------------------------------------------------------------
# scalar conveniences and the mix reparameterization


def tanimoto(u: np.ndarray, v: np.ndarray, variance: float = 1.0) -> float:
    """Scalar Tanimoto similarity between two vectors."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    inner = float(u @ v)
    denom = float(u @ u) + float(v @ v) - inner
    if denom <= 0:
        raise ValueError("Tanimoto undefined: both vectors are zero")
    return variance * inner / denom


def matern52(
    u: np.ndarray, v: np.ndarray, lengthscale: float = 1.0, variance: float = 1.0
) -> float:
    """Scalar Matern-5/2 kernel value between two vectors."""
    if lengthscale <= 0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    r = np.linalg.norm(np.asarray(u, dtype=float) - np.asarray(v, dtype=float))
    s = r / lengthscale
    return float(variance * (1.0 + _SQRT5 * s + (5.0 / 3.0) * s**2) * np.exp(-_SQRT5 * s))


def squared_exponential(
    u: np.ndarray, v: np.ndarray, lengthscale: float = 1.0, variance: float = 1.0
) -> float:
    """Scalar squared-exponential kernel value between two vectors."""
    if lengthscale <= 0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    r2 = float(np.sum((np.asarray(u, dtype=float) - np.asarray(v, dtype=float)) ** 2))
    return float(variance * np.exp(-0.5 * r2 / lengthscale**2))


def kermut_struct(
    a: MutationSet,
    b: MutationSet,
    context: StructureContext,
    *,
    gamma_h: float = 1.0,
    gamma_p: float = 1.0,
    gamma_d: float = 1.0,
    lam: float = 1.0,
) -> float:
    """Structural term between two mutation sets, written as the plain double sum.

    The vectorized Gram path in `KermutKernel` must agree with this to float
    precision; keeping the readable form around makes that easy to check.
    """
    if a.parental != b.parental:
        raise ValueError("mutation sets compare against different parental sequences")
    if len(a.parental) != context.length:
        raise ValueError(
            f"parental length {len(a.parental)} != context length {context.length}"
        )
    total = 0.0
    for ma in a.entries:
        p_a = context.site_probs[ma.position]
        prob_a = p_a[AA_INDEX[ma.to_residue]]
        for mb in b.entries:
            p_b = context.site_probs[mb.position]
            prob_b = p_b[AA_INDEX[mb.to_residue]]
            k_sites = np.exp(-gamma_h * hellinger(p_a, p_b))
            k_probs = np.exp(-gamma_p * abs(prob_a - prob_b))
            k_dist = np.exp(-gamma_d * context.distances[ma.position, mb.position])
            total += lam * k_sites * k_probs * k_dist
    return float(total)


def kermut_params_to_original(variance: float, mix: float) -> tuple[float, float]:
    """Map (variance, mix) from the factored form to the unfactored one.

    Factored:   k = variance * (mix * k_struct + (1 - mix) * k_seq)
    Unfactored: k = variance' * mix' * k_struct + (1 - mix') * k_seq

    The map exists only when variance * (1 - mix) lies in (0, 1).
    """
    if variance <= 0 or not 0.0 < mix < 1.0:
        raise ValueError("need variance > 0 and mix strictly in (0, 1)")
    tail = variance * (1.0 - mix)
    if not 0.0 < tail < 1.0:
        raise ValueError(
            f"no unfactored equivalent: variance * (1 - mix) = {tail} is outside (0, 1)"
        )
    mix_orig = 1.0 - tail
    return variance * mix / mix_orig, mix_orig


def kermut_params_from_original(variance: float, mix: float) -> tuple[float, float]:
    """Inverse of `kermut_params_to_original`; defined for all valid inputs."""
    if variance <= 0 or not 0.0 < mix < 1.0:
        raise ValueError("need variance > 0 and mix strictly in (0, 1)")
    var_new = variance * mix + 1.0 - mix
    return var_new, variance * mix / var_new
