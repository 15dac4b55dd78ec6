"""Amino acid sequences, mutation bookkeeping, and fixed per-residue encodings.

Sequences are plain Python strings over the 20 canonical residues. Everything
downstream (kernels, the genetic optimizer, campaign logs) treats them as
immutable values, so there is no wrapper class; `validate_sequence` is the
single gatekeeper.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "ALPHABET",
    "AA_INDEX",
    "validate_sequence",
    "residue_indices",
    "Mutation",
    "MutationSet",
    "diff",
    "mutate",
    "EncodingMatrix",
    "one_hot_matrix",
    "blosum62_matrix",
    "load_substitution_matrix",
    "encode",
]

# Canonical residues in alphabetical one-letter order; a residue's index here
# is its one-hot basis index.
ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
AA_INDEX = {aa: i for i, aa in enumerate(ALPHABET)}

# byte value -> alphabet index, -1 for every byte that is not a canonical residue
_BYTE_INDEX = np.full(256, -1, dtype=np.intp)
_BYTE_INDEX[np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)] = np.arange(len(ALPHABET))


def validate_sequence(seq: str) -> str:
    """Return `seq` unchanged if every residue is canonical, else raise ValueError."""
    if not isinstance(seq, str):
        raise TypeError(f"sequence must be a string, got {type(seq).__name__}")
    for pos, ch in enumerate(seq):
        if ch not in AA_INDEX:
            raise ValueError(f"non-canonical residue {ch!r} at position {pos}")
    return seq


def residue_indices(seqs: Sequence[str], length: int) -> np.ndarray:
    """(m, length) alphabet indices of a batch of sequences, checked in one pass.

    Raises what `validate_sequence` raises for the first sequence that is not
    a canonical string, and a ValueError naming the first sequence whose
    length is not `length`.
    """
    seqs = list(seqs)
    for seq in seqs:
        if not isinstance(seq, str):
            validate_sequence(seq)
        if len(seq) != length:
            raise ValueError(f"sequence {seq!r} has length {len(seq)}, expected {length}")
    try:
        codes = np.frombuffer("".join(seqs).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        codes = None
    idx = None if codes is None else _BYTE_INDEX[codes]
    if idx is None or np.any(idx < 0):
        for seq in seqs:
            validate_sequence(seq)
    return idx.reshape(len(seqs), length)


@dataclass(frozen=True)
class Mutation:
    """A single substitution: `from_residue` at 0-based `position` becomes `to_residue`."""

    position: int
    from_residue: str
    to_residue: str

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError(f"mutation position must be >= 0, got {self.position}")
        for res in (self.from_residue, self.to_residue):
            if res not in AA_INDEX:
                raise ValueError(f"non-canonical residue {res!r} in mutation")
        if self.from_residue == self.to_residue:
            raise ValueError(
                f"mutation at position {self.position} does not change the residue"
            )

    def __str__(self) -> str:
        return f"{self.from_residue}{self.position}{self.to_residue}"


@dataclass(frozen=True)
class MutationSet:
    """A set of substitutions against a shared parental sequence.

    Entries are kept sorted by position and must be consistent with the
    parental sequence: in-range, matching `from_residue`, and at most one
    substitution per site. An empty entry tuple denotes the parental itself.
    """

    parental: str
    entries: tuple[Mutation, ...] = ()

    def __post_init__(self) -> None:
        validate_sequence(self.parental)
        ordered = tuple(sorted(self.entries, key=lambda m: m.position))
        object.__setattr__(self, "entries", ordered)
        seen: set[int] = set()
        for mut in ordered:
            if mut.position >= len(self.parental):
                raise ValueError(
                    f"mutation position {mut.position} outside sequence of "
                    f"length {len(self.parental)}"
                )
            if mut.position in seen:
                raise ValueError(f"duplicate mutation position {mut.position}")
            seen.add(mut.position)
            if self.parental[mut.position] != mut.from_residue:
                raise ValueError(
                    f"mutation {mut} inconsistent with parental residue "
                    f"{self.parental[mut.position]!r} at position {mut.position}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(m.position for m in self.entries)

    def apply(self) -> str:
        """Parental sequence with all substitutions applied."""
        chars = list(self.parental)
        for mut in self.entries:
            chars[mut.position] = mut.to_residue
        return "".join(chars)

    def __str__(self) -> str:
        if not self.entries:
            return "(parental)"
        return "+".join(str(m) for m in self.entries)


def diff(parental: str, variant: str) -> MutationSet:
    """Mutation set that turns `parental` into `variant` (equal lengths required)."""
    validate_sequence(parental)
    validate_sequence(variant)
    if len(parental) != len(variant):
        raise ValueError(
            f"length mismatch: parental {len(parental)} vs variant {len(variant)}"
        )
    entries = tuple(
        Mutation(i, a, b) for i, (a, b) in enumerate(zip(parental, variant)) if a != b
    )
    return MutationSet(parental, entries)


def mutate(seq: str, position: int, to_residue: str) -> str:
    """Copy of `seq` with the residue at `position` replaced."""
    validate_sequence(seq)
    if not 0 <= position < len(seq):
        raise ValueError(f"position {position} outside sequence of length {len(seq)}")
    if to_residue not in AA_INDEX:
        raise ValueError(f"non-canonical residue {to_residue!r}")
    return seq[:position] + to_residue + seq[position + 1 :]


@dataclass(frozen=True)
class EncodingMatrix:
    """Named per-residue row vectors used to embed sequences site by site."""

    name: str
    rows: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        missing = [aa for aa in ALPHABET if aa not in self.rows]
        if missing:
            raise ValueError(f"encoding {self.name!r} missing rows for {missing}")
        dims = {len(np.atleast_1d(v)) for v in self.rows.values()}
        if len(dims) != 1:
            raise ValueError(f"encoding {self.name!r} has inconsistent row lengths {dims}")

    @property
    def dim(self) -> int:
        return len(next(iter(self.rows.values())))

    def table(self) -> np.ndarray:
        """(20, dim) float rows in alphabet order: `table()[residue_indices(...)]`
        gathers whole encodings at once."""
        return np.stack([np.asarray(self.rows[aa], dtype=float) for aa in ALPHABET])

    def row(self, residue: str) -> np.ndarray:
        if residue not in self.rows:
            raise ValueError(f"no encoding row for residue {residue!r}")
        return self.rows[residue]


def one_hot_matrix() -> EncodingMatrix:
    """Standard basis rows: residue -> e_i with i the alphabet index."""
    eye = np.eye(len(ALPHABET), dtype=float)
    return EncodingMatrix("one-hot", {aa: eye[i] for i, aa in enumerate(ALPHABET)})


def load_substitution_matrix(path: str | Path) -> EncodingMatrix:
    """Parse an NCBI-style substitution matrix file.

    Lines starting with '#' are comments. The first data line is the header of
    residue codes; each following line is a residue code and its integer row.
    Non-canonical codes (B, Z, X, '*') are tolerated in the file and dropped;
    all 20 canonical residues must be present. Rows are returned restricted to
    canonical columns, reordered to the package alphabet, and the matrix must
    be symmetric on that restriction.
    """
    path = Path(path)
    lines = [
        ln.strip()
        for ln in path.read_text().splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError(f"substitution matrix file {path} has no data lines")
    header = lines[0].split()
    raw: dict[str, dict[str, float]] = {}
    for ln in lines[1:]:
        tokens = ln.split()
        code, values = tokens[0], tokens[1:]
        if len(values) != len(header):
            raise ValueError(
                f"row {code!r} in {path} has {len(values)} entries, expected {len(header)}"
            )
        raw[code] = {col: float(v) for col, v in zip(header, values)}

    missing = [aa for aa in ALPHABET if aa not in raw or aa not in header]
    if missing:
        raise ValueError(f"substitution matrix {path} missing canonical residues {missing}")

    rows = {
        aa: np.array([raw[aa][bb] for bb in ALPHABET], dtype=float) for aa in ALPHABET
    }
    for i, a in enumerate(ALPHABET):
        for b in ALPHABET[i + 1 :]:
            if rows[a][AA_INDEX[b]] != rows[b][AA_INDEX[a]]:
                raise ValueError(
                    f"substitution matrix {path} asymmetric at ({a}, {b})"
                )
    return EncodingMatrix(path.stem, rows)


_BLOSUM62_CACHE: EncodingMatrix | None = None


def blosum62_matrix() -> EncodingMatrix:
    """The bundled BLOSUM-62 matrix restricted to canonical residues."""
    global _BLOSUM62_CACHE
    if _BLOSUM62_CACHE is None:
        with resources.as_file(
            resources.files("abbo.data").joinpath("blosum62.txt")
        ) as p:
            _BLOSUM62_CACHE = load_substitution_matrix(p)
    return _BLOSUM62_CACHE


def encode(seq: str, encoding: EncodingMatrix) -> np.ndarray:
    """Concatenate per-residue encoding rows into one float64 vector of length L*d."""
    validate_sequence(seq)
    if not seq:
        return np.zeros(0, dtype=float)
    return np.concatenate([encoding.row(ch) for ch in seq]).astype(float)
