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
once. A variant is checked where it enters: a coordinate fixture's rows at
load, and a synthetic build cannot be collinear. Providers build a batch of
sequences at once (`features_many`), aligned by one stacked SVD over their
(m, 3, 3) covariances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import FixtureError
from .plm import (
    _check_pssm,
    _table_entry,
    load_pssm,
    load_sequence_table,
    substitution_softmax_pssm,
)
from .sequences import AA_INDEX, ALPHABET, residue_indices, validate_sequence

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
    moving = _Frame(mobile, "mobile").centred
    aligned, rmsd = _Frame(reference, "reference").superpose(moving[None])
    return aligned[0], float(rmsd[0])


def _check_same_shape(mobile: np.ndarray, reference: np.ndarray) -> None:
    if mobile.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: mobile {mobile.shape} vs reference {reference.shape}"
        )


def _check_points(points: np.ndarray) -> None:
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coordinate arrays, got {points.shape}")
    if points.shape[0] < 3:
        raise ValueError("alignment needs at least 3 points")


def _collinear(centred: np.ndarray) -> np.ndarray:
    """Which of a stack of centred (m, N, 3) point sets, N >= 3, lie on one
    line: one stacked singular-value call."""
    s = np.linalg.svd(centred, compute_uv=False)
    return s[:, 1] <= 1e-10 * np.maximum(s[:, 0], 1e-30)


class _Frame:
    """An (N, 3) point set, checked and centred once for Kabsch alignment.

    `kabsch_align` builds one for each of its two point sets; a feature
    provider builds the parental frame once and aligns every batch of
    variants onto it with `align_many`.
    """

    def __init__(self, points: np.ndarray, name: str):
        points = np.asarray(points, dtype=float)
        _check_points(points)
        self.points = points
        self.centroid = points.mean(axis=0, keepdims=True)
        self.centred = points - self.centroid
        if _collinear(self.centred[None])[0]:
            raise ValueError(f"{name} points are collinear; rotation is ill-defined")

    def align_many(self, mobile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Align an (m, N, 3) stack onto this frame; return (aligned (m, N, 3), rmsd (m,)).

        Row i is `kabsch_align(mobile[i], self.points)`, but a collinear row is
        not caught here: a provider checks each row where it enters.
        """
        mobile = np.asarray(mobile, dtype=float)
        if mobile.shape[1:] != self.points.shape:
            raise ValueError(
                f"shape mismatch: mobile {mobile.shape[1:]} vs reference {self.points.shape}"
            )
        return self.superpose(mobile - mobile.mean(axis=-2, keepdims=True))

    def superpose(self, centred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rotate centred (m, N, 3) point sets onto this frame and move them to
        its centroid; one stacked SVD of the (m, 3, 3) covariances gives every
        rotation."""
        cov = np.swapaxes(centred, 1, 2) @ self.centred
        u, _, vt = np.linalg.svd(cov)
        v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
        v[:, :, 2] *= np.sign(np.linalg.det(v @ ut))[:, None]
        rot = v @ ut
        aligned = centred @ np.swapaxes(rot, 1, 2) + self.centroid
        rmsd = np.sqrt(np.mean(np.sum((aligned - self.points) ** 2, axis=2), axis=1))
        return aligned, rmsd


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between rows of an (L, 3) coordinate array."""
    coords = np.asarray(coords, dtype=float)
    deltas = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(deltas**2, axis=-1))


@dataclass(frozen=True)
class FeatureBundle:
    """Features of one sequence (`features`) or of a batch (`features_many`,
    where each field gains a leading axis of one row per sequence).

    Fields are None when the provider lacks that source.
    """

    embedding: np.ndarray | None = None
    coords: np.ndarray | None = None  # flattened (3L,), aligned to the parental frame
    rmsd: float | np.ndarray | None = None  # of `coords` against the parental, same alignment

    def row(self, i: int) -> "FeatureBundle":
        """The features of the batch's i-th sequence."""
        return FeatureBundle(
            embedding=None if self.embedding is None else self.embedding[i],
            coords=None if self.coords is None else self.coords[i],
            rmsd=None if self.rmsd is None else float(self.rmsd[i]),
        )


def _check_distances(distances: np.ndarray) -> np.ndarray:
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError(f"distance matrix must be square, got {distances.shape}")
    if not np.all(np.isfinite(distances)):
        raise ValueError("distance matrix is not finite")
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


def _gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows of an (L, 20, ...) per-(site, residue) table at residue indices
    (..., L): shape (..., L, ...)."""
    return table[np.arange(idx.shape[-1]), idx]


def _raw_synthetic_coords(seq: str, table: np.ndarray) -> np.ndarray:
    """(L, 3) unaligned coordinates of `seq`, gathered from a `_raw_position_table`."""
    return _gather(table, residue_indices([seq], len(seq))[0])


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
        raise FixtureError(f"distance fixture {dpath}: {err}") from err


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
    `embedding` never builds coordinates. `features_many` builds a whole
    batch with one gather per table and one stacked alignment; `computations`
    counts the sequences built, one per sequence of a `features` or
    `features_many` call.
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

    def _indices(self, seqs) -> np.ndarray:
        return residue_indices(seqs, len(self.parental))

    def embedding(self, seq: str) -> np.ndarray:
        """The embedding of `features(seq)` alone: no coordinates, no alignment.

        Not counted in `computations`; it costs one gather of the L site
        vectors. Their sum over axis 0 adds them in site order, as `_embed`
        does, so the result is `_embed`'s row bit for bit.
        """
        idx = self._indices([seq])[0]
        return _gather(self._embedding_table(), idx).sum(axis=0) / idx.size

    def _embed(self, idx: np.ndarray) -> np.ndarray:
        """(m, dim) embeddings of (m, L) residue indices: the mean of the site
        vectors, summed site by site so no (m, L, dim) array is built."""
        table = self._embedding_table()
        total = np.zeros((idx.shape[0], self.embedding_dim))
        for site in range(idx.shape[1]):
            total += table[site, idx[:, site]]
        return total / idx.shape[1]

    def features(self, seq: str) -> FeatureBundle:
        return self.features_many([seq]).row(0)

    def features_many(self, seqs) -> FeatureBundle:
        """Features of a batch of sequences: two table gathers and one stacked
        alignment onto the parental frame."""
        idx = self._indices(seqs)
        aligned, rmsd = self._parental_frame().align_many(_gather(self._coordinate_table(), idx))
        self.computations += len(idx)
        return FeatureBundle(
            embedding=self._embed(idx),
            coords=aligned.reshape(len(idx), -1),
            rmsd=rmsd,
        )


def load_embedding_fixture(path: str | Path) -> dict[str, np.ndarray]:
    """CSV of `sequence,v0,v1,...` rows (`load_sequence_table`): one vector each."""
    return load_sequence_table(path, "embedding")


def load_coords_fixture(path: str | Path) -> dict[str, np.ndarray]:
    """CSV of `sequence,x0,y0,z0,x1,...` rows (`load_sequence_table`); coordinate
    count must be 3L, and each row is returned as an (L, 3) array."""
    table = load_sequence_table(path, "coordinate")
    for seq, flat in table.items():
        if flat.size != 3 * len(seq):
            raise FixtureError(
                f"coordinate fixture {path}: sequence of length {len(seq)} "
                f"needs {3 * len(seq)} values, got {flat.size}"
            )
    return {seq: flat.reshape(-1, 3) for seq, flat in table.items()}


class FixtureFeatureProvider:
    """Features replayed from fixture files, aligned like the synthetic route.

    Either fixture may be omitted; the matching bundle field is then None and
    methods that need it fail downstream with a clear message. When coordinates
    are given the parental sequence must have a row, since every variant is
    aligned into the parental frame; that row is checked and centred here, and
    every row is checked for collinearity by one stacked SVD, so a degenerate
    row is a fixture error naming its sequence before any build. `computations`
    counts the sequences built, as for the synthetic provider.
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
            rows = np.stack(list(self._coords.values()))  # each of the parental's length
            bad = np.flatnonzero(_collinear(rows - rows.mean(axis=1, keepdims=True)))
            if bad.size:
                seq = list(self._coords)[bad[0]]
                raise FixtureError(
                    f"coordinate fixture {coords_path}, sequence {seq!r}: points are collinear; "
                    "rotation is ill-defined"
                )
        self.computations = 0

    def features(self, seq: str) -> FeatureBundle:
        return self.features_many([seq]).row(0)

    def features_many(self, seqs) -> FeatureBundle:
        """Features of a batch of sequences: one lookup per sequence and one
        stacked alignment onto the parental frame."""
        seqs = list(seqs)
        embedding = None
        if self._embeddings is not None:
            embedding = np.stack([_table_entry(self._embeddings, "embedding", s) for s in seqs])
        coords = rmsd = None
        if self._frame is not None:
            raw = np.stack([_table_entry(self._coords, "coordinate", s) for s in seqs])
            aligned, rmsd = self._frame.align_many(raw)
            coords = aligned.reshape(len(seqs), -1)
        self.computations += len(seqs)
        return FeatureBundle(embedding=embedding, coords=coords, rmsd=rmsd)
