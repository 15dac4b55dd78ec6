"""Structural and embedding features: rigid alignment, providers, and contexts.

Real folding and embedding models are out of scope, so features come from one
of two places: fixture files exported ahead of time, or deterministic synthetic
generators good enough to exercise every downstream code path. Both are hidden
behind providers with identical query methods. Every feature is a pure function
of the sequence, so providers keep no per-sequence state; the GA's per-round
evaluation cache (`gaopt.evolve`) is what spares repeated builds.

What a provider keeps depends only on the parental sequence. The synthetic
route tabulates the raw position and the embedding vector of every (site,
residue) pair once, on first use, so a build is two gathers. The Kabsch
reference, the parental structure, is centred and checked for collinearity
once, so each build centres and checks only the variant.
"""

from __future__ import annotations

import csv
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
    _check_same_shape(mobile, reference)
    moving = _Frame(mobile, "mobile")
    return _Frame(reference, "reference").superpose(moving)


def _check_same_shape(mobile: np.ndarray, reference: np.ndarray) -> None:
    if mobile.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: mobile {mobile.shape} vs reference {reference.shape}"
        )


class _Frame:
    """An (N, 3) point set, checked and centred once for Kabsch alignment.

    `kabsch_align` builds one per argument; a feature provider builds the
    parental frame once and aligns every variant onto it with `align`.
    """

    def __init__(self, points: np.ndarray, name: str):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) coordinate arrays, got {points.shape}")
        if points.shape[0] < 3:
            raise ValueError("alignment needs at least 3 points")
        self.points = points
        self.centroid = points.mean(axis=0)
        self.centred = points - self.centroid
        s = np.linalg.svd(self.centred, compute_uv=False)
        if s[1] <= 1e-10 * max(s[0], 1e-30):
            raise ValueError(f"{name} points are collinear; rotation is ill-defined")

    def align(self, mobile: np.ndarray) -> tuple[np.ndarray, float]:
        """`kabsch_align(mobile, self.points)`, with this frame's checks not repeated."""
        mobile = np.asarray(mobile, dtype=float)
        _check_same_shape(mobile, self.points)
        return self.superpose(_Frame(mobile, "mobile"))

    def superpose(self, mobile: _Frame) -> tuple[np.ndarray, float]:
        """Rotate and translate `mobile` onto this frame; return (aligned, rmsd)."""
        cov = mobile.centred.T @ self.centred
        u, _, vt = np.linalg.svd(cov)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        flip = np.diag([1.0, 1.0, d])
        rot = vt.T @ flip @ u.T
        aligned = mobile.centred @ rot.T + self.centroid
        rmsd = float(np.sqrt(np.mean(np.sum((aligned - self.points) ** 2, axis=1))))
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
    rmsd: float | None = None  # of `coords` against the parental, from the same alignment


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


def _raw_position_table(length: int, seed: int) -> np.ndarray:
    """(length, 20, 3) raw position of every residue at every site: helix plus offset."""
    offsets = np.array(
        [[_residue_offset(i, aa, seed) for aa in ALPHABET] for i in range(length)]
    )
    return _helix_backbone(length)[:, None, :] + offsets


def _residue_indices(seq: str) -> np.ndarray:
    return np.fromiter((AA_INDEX[c] for c in seq), dtype=int, count=len(seq))


def _raw_synthetic_coords(seq: str, table: np.ndarray) -> np.ndarray:
    """(L, 3) unaligned coordinates of `seq`, gathered from a `_raw_position_table`."""
    return table[np.arange(len(seq)), _residue_indices(seq)]


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
    coords = _raw_synthetic_coords(parental, _raw_position_table(len(parental), seed))
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
    The raw position of every (site, residue) pair is tabulated once per
    provider, so a build is one gather; the parental frame that every build
    aligns onto is centred and checked once.

    Embeddings: the mean over sites of fixed per-(position, residue) vectors
    derived from hashed seeds, so they are reproducible across processes and
    independent of the campaign seed.

    Both tables are built on first use: a provider asked only for
    `embedding` never builds coordinates. `computations` counts the bundles
    built, one per `features()` call.
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
        self.computations = 0
        self._embed_table: np.ndarray | None = None
        self._coord_table: np.ndarray | None = None
        self._frame: _Frame | None = None

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

    def _coordinate_table(self) -> np.ndarray:
        # (L, 20, 3) table, built once, keyed on the campaign seed.
        if self._coord_table is None:
            self._coord_table = _raw_position_table(len(self.parental), self.seed)
        return self._coord_table

    def _parental_frame(self) -> _Frame:
        if self._frame is None:
            raw = _raw_synthetic_coords(self.parental, self._coordinate_table())
            self._frame = _Frame(raw, "reference")
        return self._frame

    @property
    def parental_coords(self) -> np.ndarray:
        """(L, 3) raw parental coordinates, the frame every build is aligned to."""
        return self._parental_frame().points

    def _check(self, seq: str) -> None:
        validate_sequence(seq)
        if len(seq) != len(self.parental):
            raise ValueError(
                f"sequence length {len(seq)} != parental length {len(self.parental)}"
            )

    def _embed(self, seq: str) -> np.ndarray:
        return self._embedding_table()[np.arange(len(seq)), _residue_indices(seq)].mean(axis=0)

    def embedding(self, seq: str) -> np.ndarray:
        """The embedding of `features(seq)` alone: no coordinates, no alignment.

        Not counted in `computations`; it costs one table lookup per site.
        """
        self._check(seq)
        return self._embed(seq)

    def features(self, seq: str) -> FeatureBundle:
        self._check(seq)
        raw = _raw_synthetic_coords(seq, self._coordinate_table())
        aligned, rmsd = self._parental_frame().align(raw)
        self.computations += 1
        return FeatureBundle(embedding=self._embed(seq), coords=aligned.ravel(), rmsd=rmsd)


def _fixture_rows(path: Path, kind: str):
    """(sequence, finite float values) of each data row of a fixture CSV."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#") or row[0].lower() == "sequence":
                continue
            try:
                values = np.array([float(v) for v in row[1:]], dtype=float)
            except ValueError as err:
                raise FixtureError(
                    f"{kind} fixture {path}: bad row {reader.line_num}: {err}"
                ) from None
            if not np.all(np.isfinite(values)):
                raise FixtureError(
                    f"{kind} fixture {path}: row {reader.line_num} has a non-finite value"
                )
            yield row[0].strip(), values


def load_embedding_fixture(path: str | Path) -> dict[str, np.ndarray]:
    """CSV of `sequence,v0,v1,...` rows; all vectors must share one dimension."""
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"embedding fixture {path} does not exist")
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for seq, vec in _fixture_rows(path, "embedding"):
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise FixtureError(
                f"embedding fixture {path}: inconsistent dimensions "
                f"({vec.size} vs {dim})"
            )
        table[seq] = vec
    if not table:
        raise FixtureError(f"embedding fixture {path} has no entries")
    return table


def load_coords_fixture(path: str | Path) -> dict[str, np.ndarray]:
    """CSV of `sequence,x0,y0,z0,x1,...` rows; coordinate count must be 3L."""
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"coordinate fixture {path} does not exist")
    table: dict[str, np.ndarray] = {}
    for seq, flat in _fixture_rows(path, "coordinate"):
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
    """Features replayed from fixture files, aligned like the synthetic route.

    Either fixture may be omitted; the matching bundle field is then None and
    methods that need it fail downstream with a clear message. When coordinates
    are given the parental sequence must have a row, since every variant is
    aligned into the parental frame; that row is checked and centred here, so
    a degenerate one is a fixture error before any build. `computations`
    counts the bundles built, one per `features()` call.
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
        self._frame: _Frame | None = None
        self.parental_coords = None
        if self._coords is not None:
            if parental not in self._coords:
                raise FixtureError(
                    "coordinate fixture has no row for the parental sequence"
                )
            try:
                self._frame = _Frame(self._coords[parental], "reference")
            except ValueError as err:
                raise FixtureError(
                    f"coordinate fixture {coords_path}: parental row: {err}"
                ) from None
            self.parental_coords = self._frame.points
        self.computations = 0

    def features(self, seq: str) -> FeatureBundle:
        validate_sequence(seq)
        embedding = None
        if self._embeddings is not None:
            try:
                embedding = self._embeddings[seq]
            except KeyError:
                raise FixtureError(
                    f"embedding fixture has no entry for sequence {seq!r}"
                ) from None
        coords = rmsd = None
        if self._frame is not None:
            try:
                raw = self._coords[seq]
            except KeyError:
                raise FixtureError(
                    f"coordinate fixture has no entry for sequence {seq!r}"
                ) from None
            aligned, rmsd = self._frame.align(raw)
            coords = aligned.ravel()
        self.computations += 1
        return FeatureBundle(embedding=embedding, coords=coords, rmsd=rmsd)
