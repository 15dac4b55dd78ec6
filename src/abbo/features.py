"""Structural and embedding features: rigid alignment, providers, and contexts.

Real folding and embedding models are out of scope, so features come from one
of two places: fixture files exported ahead of time, or deterministic synthetic
generators good enough to exercise every downstream code path. Both are hidden
behind providers with identical query methods and per-sequence caching.
"""

from __future__ import annotations

import csv
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import FixtureError
from .plm import _check_pssm, substitution_softmax_pssm
from .sequences import AA_INDEX, ALPHABET, validate_sequence

__all__ = [
    "kabsch_align",
    "pairwise_distances",
    "FeatureBundle",
    "StructureContext",
    "synthetic_structure_context",
    "load_structure_context",
    "SyntheticFeatureProvider",
    "FixtureFeatureProvider",
    "load_embedding_fixture",
    "load_coords_fixture",
]

# Idealized helix geometry used by the synthetic structure generator.
_HELIX_RADIUS = 2.3  # angstroms
_HELIX_RISE = 1.5  # angstroms per residue
_HELIX_TURN = np.deg2rad(100.0)
_MAX_OFFSET = 0.8  # per-residue displacement bound, angstroms

# Seed-stream tags keeping the different synthetic generators decorrelated.
_COORD_TAG = 0x5C01
_EMBED_TAG = 0xE3B0


def kabsch_align(
    mobile: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, float]:
    """Rigidly superpose `mobile` onto `reference` and return (aligned, rmsd).

    Parameters
    ----------
    mobile, reference : (N, 3) arrays
        Corresponding point sets, N >= 3, not all collinear.

    Returns
    -------
    aligned : (N, 3) array
        `mobile` after the optimal rotation and translation.
    rmsd : float
        Root mean square deviation between `aligned` and `reference`.

    The rotation is proper (determinant +1): reflections are corrected by
    flipping the smallest singular direction, the usual Kabsch fix.
    """
    mobile = np.asarray(mobile, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if mobile.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: mobile {mobile.shape} vs reference {reference.shape}"
        )
    if mobile.ndim != 2 or mobile.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coordinate arrays, got {mobile.shape}")
    if mobile.shape[0] < 3:
        raise ValueError("alignment needs at least 3 points")

    mob_centroid = mobile.mean(axis=0)
    ref_centroid = reference.mean(axis=0)
    mob_c = mobile - mob_centroid
    ref_c = reference - ref_centroid

    for name, pts in (("mobile", mob_c), ("reference", ref_c)):
        s = np.linalg.svd(pts, compute_uv=False)
        if s[1] <= 1e-10 * max(s[0], 1e-30):
            raise ValueError(f"{name} points are collinear; rotation is ill-defined")

    cov = mob_c.T @ ref_c
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.diag([1.0, 1.0, d])
    rot = vt.T @ flip @ u.T
    aligned = mob_c @ rot.T + ref_centroid
    rmsd = float(np.sqrt(np.mean(np.sum((aligned - reference) ** 2, axis=1))))
    return aligned, rmsd


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between rows of an (L, 3) coordinate array."""
    coords = np.asarray(coords, dtype=float)
    deltas = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(deltas**2, axis=-1))


@dataclass(frozen=True)
class FeatureBundle:
    """Per-sequence features; fields are None when the provider lacks that source."""

    embedding: np.ndarray | None = None
    coords: np.ndarray | None = None  # flattened (3L,), aligned to the parental frame


def _check_distances(distances: np.ndarray) -> np.ndarray:
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError(f"distance matrix must be square, got {distances.shape}")
    if np.any(distances < 0):
        raise ValueError("distance matrix has negative entries")
    if not np.allclose(distances, distances.T, atol=1e-9):
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.abs(np.diag(distances)) > 1e-9):
        raise ValueError("distance matrix diagonal is not zero")
    return distances


@dataclass(frozen=True)
class StructureContext:
    """Per-site substitution probabilities plus inter-site distances.

    `site_probs` rows are probability vectors over the alphabet (one per
    site), `distances` is the symmetric matrix of inter-site distances in the
    parental structure. `parental_coords` is kept when known (synthetic route)
    and None when the context came from probability/distance fixtures alone.
    """

    site_probs: np.ndarray
    distances: np.ndarray
    parental_coords: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "site_probs", _check_pssm(self.site_probs))
        object.__setattr__(self, "distances", _check_distances(self.distances))
        if self.site_probs.shape[0] != self.distances.shape[0]:
            raise ValueError(
                f"site_probs has {self.site_probs.shape[0]} rows but distances "
                f"is {self.distances.shape[0]}x{self.distances.shape[0]}"
            )
        if self.parental_coords is not None:
            coords = np.asarray(self.parental_coords, dtype=float)
            if coords.shape != (self.length, 3):
                raise ValueError(
                    f"parental_coords shape {coords.shape} != ({self.length}, 3)"
                )
            object.__setattr__(self, "parental_coords", coords)

    @property
    def length(self) -> int:
        return self.site_probs.shape[0]


def _helix_backbone(length: int) -> np.ndarray:
    i = np.arange(length, dtype=float)
    return np.stack(
        [
            _HELIX_RADIUS * np.cos(_HELIX_TURN * i),
            _HELIX_RADIUS * np.sin(_HELIX_TURN * i),
            _HELIX_RISE * i,
        ],
        axis=1,
    )


def _residue_offset(position: int, residue: str, seed: int) -> np.ndarray:
    """Deterministic displacement for (position, residue, seed), norm <= _MAX_OFFSET."""
    rng = np.random.default_rng(
        np.random.SeedSequence([_COORD_TAG, seed, position, AA_INDEX[residue]])
    )
    direction = rng.standard_normal(3)
    direction /= max(np.linalg.norm(direction), 1e-12)
    return rng.uniform(0.0, _MAX_OFFSET) * direction


def _raw_synthetic_coords(seq: str, seed: int) -> np.ndarray:
    coords = _helix_backbone(len(seq))
    for i, ch in enumerate(seq):
        coords[i] += _residue_offset(i, ch, seed)
    return coords


def synthetic_structure_context(
    parental: str, seed: int = 0, temperature: float = 1.0
) -> StructureContext:
    """Structure context from the synthetic generators.

    Site probabilities are the substitution-matrix softmax around the parental
    residue at the given temperature; distances come from the synthetic
    parental structure for the same seed.
    """
    validate_sequence(parental)
    if len(parental) < 3:
        raise ValueError("synthetic structure context needs length >= 3")
    coords = _raw_synthetic_coords(parental, seed)
    return StructureContext(
        site_probs=substitution_softmax_pssm(parental, temperature),
        distances=pairwise_distances(coords),
        parental_coords=coords,
    )


def load_structure_context(
    site_probs_path: str | Path, distances_path: str | Path
) -> StructureContext:
    """Structure context from fixture files (TSV probabilities, square distances)."""
    from .plm import load_pssm

    probs = load_pssm(site_probs_path)
    dpath = Path(distances_path)
    if not dpath.exists():
        raise FixtureError(f"distance fixture {dpath} does not exist")
    try:
        distances = np.loadtxt(dpath)
    except ValueError as err:
        raise FixtureError(f"could not parse distance fixture {dpath}: {err}") from err
    try:
        return StructureContext(site_probs=probs, distances=distances)
    except ValueError as err:
        raise FixtureError(str(err)) from err


class SyntheticFeatureProvider:
    """Deterministic embeddings and coordinates for arbitrary sequences.

    Coordinates: an idealized helix plus a bounded per-(position, residue)
    offset keyed on the seed, rigidly aligned to the parental structure. A
    point mutation therefore moves the raw structure only at the mutated site.

    Embeddings: the mean over sites of fixed per-(position, residue) vectors
    derived from hashed seeds, so they are reproducible across processes and
    independent of the campaign seed.

    Results are cached per sequence; `computations` counts actual builds, so
    tests can assert that repeated queries hit the cache. Thread-safe.
    """

    def __init__(self, parental: str, seed: int = 0, embedding_dim: int = 64):
        validate_sequence(parental)
        if len(parental) < 3:
            raise ValueError("synthetic features need parental length >= 3")
        if embedding_dim < 1:
            raise ValueError(f"embedding_dim must be positive, got {embedding_dim}")
        self.parental = parental
        self.seed = seed
        self.embedding_dim = embedding_dim
        self.parental_coords = _raw_synthetic_coords(parental, seed)
        self.computations = 0
        self._cache: dict[str, FeatureBundle] = {}
        self._lock = threading.Lock()
        self._embed_table: np.ndarray | None = None

    def _embedding_table(self) -> np.ndarray:
        # (L, 20, dim) table, built once; no campaign seed on purpose.
        if self._embed_table is None:
            length = len(self.parental)
            table = np.empty((length, len(ALPHABET), self.embedding_dim))
            for i in range(length):
                for j in range(len(ALPHABET)):
                    rng = np.random.default_rng(
                        np.random.SeedSequence([_EMBED_TAG, i, j])
                    )
                    table[i, j] = rng.standard_normal(self.embedding_dim)
            self._embed_table = table
        return self._embed_table

    def _embed(self, seq: str) -> np.ndarray:
        table = self._embedding_table()
        idx = np.fromiter((AA_INDEX[c] for c in seq), dtype=int, count=len(seq))
        return table[np.arange(len(seq)), idx].mean(axis=0)

    def _build(self, seq: str) -> FeatureBundle:
        raw = _raw_synthetic_coords(seq, self.seed)
        aligned, _ = kabsch_align(raw, self.parental_coords)
        return FeatureBundle(embedding=self._embed(seq), coords=aligned.ravel())

    def _check(self, seq: str) -> None:
        validate_sequence(seq)
        if len(seq) != len(self.parental):
            raise ValueError(
                f"sequence length {len(seq)} != parental length {len(self.parental)}"
            )

    def embedding(self, seq: str) -> np.ndarray:
        """The embedding of `features(seq)` alone: no coordinates, no alignment.

        Not cached and not counted in `computations`; it costs one table
        lookup per site.
        """
        self._check(seq)
        return self._embed(seq)

    def features(self, seq: str) -> FeatureBundle:
        self._check(seq)
        with self._lock:
            bundle = self._cache.get(seq)
            if bundle is None:
                bundle = self._build(seq)
                self.computations += 1
                self._cache[seq] = bundle
        return bundle


def load_embedding_fixture(path: str | Path) -> dict[str, np.ndarray]:
    """CSV of `sequence,v0,v1,...` rows; all vectors must share one dimension."""
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"embedding fixture {path} does not exist")
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open(newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0].lower() == "sequence":
                continue
            vec = np.array([float(v) for v in row[1:]], dtype=float)
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise FixtureError(
                    f"embedding fixture {path}: inconsistent dimensions "
                    f"({vec.size} vs {dim})"
                )
            table[row[0].strip()] = vec
    if not table:
        raise FixtureError(f"embedding fixture {path} has no entries")
    return table


def load_coords_fixture(path: str | Path) -> dict[str, np.ndarray]:
    """CSV of `sequence,x0,y0,z0,x1,...` rows; coordinate count must be 3L."""
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"coordinate fixture {path} does not exist")
    table: dict[str, np.ndarray] = {}
    with path.open(newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0].lower() == "sequence":
                continue
            seq = row[0].strip()
            flat = np.array([float(v) for v in row[1:]], dtype=float)
            if flat.size != 3 * len(seq):
                raise FixtureError(
                    f"coordinate fixture {path}: sequence of length {len(seq)} "
                    f"needs {3 * len(seq)} values, got {flat.size}"
                )
            table[seq] = flat.reshape(-1, 3)
    if not table:
        raise FixtureError(f"coordinate fixture {path} has no entries")
    return table


class FixtureFeatureProvider:
    """Features replayed from fixture files, aligned and cached like the synthetic route.

    Either fixture may be omitted; the matching bundle field is then None and
    methods that need it fail downstream with a clear message. When coordinates
    are given the parental sequence must have a row, since every variant is
    aligned into the parental frame.
    """

    def __init__(
        self,
        parental: str,
        embedding_path: str | Path | None = None,
        coords_path: str | Path | None = None,
    ):
        validate_sequence(parental)
        if embedding_path is None and coords_path is None:
            raise FixtureError("fixture provider needs at least one fixture file")
        self.parental = parental
        self._embeddings = (
            None if embedding_path is None else load_embedding_fixture(embedding_path)
        )
        self._coords = None if coords_path is None else load_coords_fixture(coords_path)
        if self._coords is not None:
            if parental not in self._coords:
                raise FixtureError(
                    "coordinate fixture has no row for the parental sequence"
                )
            self.parental_coords = self._coords[parental]
        else:
            self.parental_coords = None
        self.computations = 0
        self._cache: dict[str, FeatureBundle] = {}
        self._lock = threading.Lock()

    def _build(self, seq: str) -> FeatureBundle:
        embedding = None
        if self._embeddings is not None:
            try:
                embedding = self._embeddings[seq]
            except KeyError:
                raise FixtureError(
                    f"embedding fixture has no entry for sequence {seq!r}"
                ) from None
        coords = None
        if self._coords is not None:
            try:
                raw = self._coords[seq]
            except KeyError:
                raise FixtureError(
                    f"coordinate fixture has no entry for sequence {seq!r}"
                ) from None
            aligned, _ = kabsch_align(raw, self.parental_coords)
            coords = aligned.ravel()
        return FeatureBundle(embedding=embedding, coords=coords)

    def features(self, seq: str) -> FeatureBundle:
        validate_sequence(seq)
        with self._lock:
            bundle = self._cache.get(seq)
            if bundle is None:
                bundle = self._build(seq)
                self.computations += 1
                self._cache[seq] = bundle
        return bundle
