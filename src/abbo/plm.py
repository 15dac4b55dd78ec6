"""Protein language model stand-ins: per-site probability tables and pseudo-likelihoods.

Real masked language models are deliberately out of scope. Campaigns either
load frozen tables from fixture files or synthesize a conservative
position-specific scoring matrix from substitution-matrix similarity to the
parental sequence. Both routes expose the same query: a pseudo-likelihood
per sequence (`pseudo_likelihood`, or `pseudo_likelihoods` for a batch).
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .exceptions import FixtureError
from .sequences import AA_INDEX, ALPHABET, blosum62_matrix, residue_indices, validate_sequence

__all__ = [
    "PROB_FLOOR",
    "PssmLikelihoodProvider",
    "TableLikelihoodProvider",
    "substitution_softmax_pssm",
    "concentrated_pssm",
    "load_pssm",
    "load_likelihood_table",
    "load_sequence_table",
]

# Probabilities below this are floored before taking logs.
PROB_FLOOR = 1e-12


def _check_pssm(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != len(ALPHABET):
        raise ValueError(f"PSSM must have shape (L, 20), got {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("PSSM contains values that are not finite")
    if np.any(probs < 0):
        raise ValueError("PSSM contains negative probabilities")
    sums = probs.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
    if bad.size:
        raise ValueError(
            f"PSSM rows {bad.tolist()} do not sum to 1 (first bad sum {sums[bad[0]]!r})"
        )
    return probs


class PssmLikelihoodProvider:
    """Sequence likelihoods from an (L, 20) per-site probability table.

    The pseudo-likelihood is the geometric mean of the per-site probabilities
    of the sequence's own residues, i.e. exp of the length-normalized sum of
    log-probabilities. That keeps values in (0, 1] and comparable across
    lengths. Probabilities are floored at PROB_FLOOR before the log; flooring
    is counted and reported once per call via a warning.
    """

    def __init__(self, probs: np.ndarray):
        self.probs = _check_pssm(probs)
        self.floored_sites = 0

    @property
    def length(self) -> int:
        return self.probs.shape[0]

    def pseudo_likelihood(self, seq: str) -> float:
        return float(self.pseudo_likelihoods([seq])[0])

    def pseudo_likelihoods(self, seqs) -> np.ndarray:
        """Pseudo-likelihoods of a batch of sequences, from one (m, L) gather."""
        idx = residue_indices(seqs, self.length)
        p = self.probs[np.arange(self.length), idx]
        n_floored = int(np.sum(p < PROB_FLOOR))
        if n_floored:
            self.floored_sites += n_floored
            warnings.warn(
                f"floored {n_floored} site probabilities at {PROB_FLOOR}",
                RuntimeWarning,
                stacklevel=2,
            )
        logp = np.log(np.maximum(p, PROB_FLOOR))
        return np.exp(logp.mean(axis=1))


class TableLikelihoodProvider:
    """Likelihoods read verbatim from a sequence -> value fixture mapping.

    Used when a campaign replays likelihoods exported from a real model.
    """

    def __init__(self, table: dict[str, float]):
        if not table:
            raise FixtureError("likelihood table is empty")
        for seq, val in table.items():
            validate_sequence(seq)
            if not 0.0 < val <= 1.0:
                raise FixtureError(
                    f"likelihood for {seq[:12]}... must lie in (0, 1], got {val}"
                )
        self.table = dict(table)

    def pseudo_likelihood(self, seq: str) -> float:
        return _table_entry(self.table, "likelihood", seq)

    def pseudo_likelihoods(self, seqs) -> np.ndarray:
        """Pseudo-likelihoods of a batch of sequences, one lookup each."""
        return np.array([self.pseudo_likelihood(seq) for seq in seqs], dtype=float)


def substitution_softmax_pssm(parental: str, temperature: float = 1.0) -> np.ndarray:
    """Synthetic PSSM: per-site softmax of BLOSUM-62 similarity to the parental residue.

    Lower temperatures concentrate mass on the parental residue and its
    conservative substitutions; temperature 1 is the default used everywhere.
    """
    validate_sequence(parental)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    blosum = blosum62_matrix()
    scores = np.stack([blosum.row(ch) for ch in parental]) / temperature
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    return expd / expd.sum(axis=1, keepdims=True)


def concentrated_pssm(parental: str, weight: float = 0.9) -> np.ndarray:
    """PSSM putting `weight` on each parental residue and the rest uniform."""
    validate_sequence(parental)
    if not 0.0 < weight < 1.0:
        raise ValueError(f"weight must lie in (0, 1), got {weight}")
    n = len(ALPHABET)
    probs = np.full((len(parental), n), (1.0 - weight) / (n - 1))
    for i, ch in enumerate(parental):
        probs[i, AA_INDEX[ch]] = weight
    return probs


def load_pssm(path: str | Path) -> np.ndarray:
    """Load an (L, 20) tab-separated probability table, one row per site.

    Columns follow the package alphabet order. A header line repeating the
    alphabet is allowed and skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"PSSM fixture {path} does not exist")
    rows: list[list[float]] = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.replace("\t", " ").split()
        if all(t in AA_INDEX for t in tokens):
            continue  # header row of residue codes
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as err:
            raise FixtureError(f"bad PSSM line in {path}: {line!r}") from err
    try:
        return _check_pssm(np.array(rows, dtype=float))
    except ValueError as err:
        raise FixtureError(f"invalid PSSM in {path}: {err}") from err


def load_sequence_table(path: str | Path, kind: str) -> dict[str, np.ndarray]:
    """Load a CSV of `sequence,v0,v1,...` rows as {sequence: values}.

    Every sequence-keyed fixture (oracle labels, likelihoods, embeddings and
    coordinates) is read here, under these rules. Blank lines, `#` comments
    and a `sequence`/`seq` header before the first entry are skipped. Each
    sequence is canonical and listed once, and every row carries the same
    nonzero number of finite values. Any other row is a FixtureError naming
    the `kind` of fixture, the file, the row and the sequence.
    """
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"{kind} fixture {path} does not exist")
    table: dict[str, np.ndarray] = {}
    width = 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells) or cells[0].startswith("#"):
                continue
            if not table and cells[0].lower() in ("sequence", "seq"):
                continue
            seq = cells[0]
            where = f"{kind} fixture {path}, row {reader.line_num}, sequence {seq!r}"
            try:
                if not seq:
                    raise ValueError("the sequence is empty")
                validate_sequence(seq)
                values = np.array([float(v) for v in cells[1:]])
                if seq in table:
                    raise ValueError("the sequence is listed twice")
                if not values.size or (table and values.size != width):
                    raise ValueError(f"{values.size} values, where a row needs {width or 'some'}")
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"value {values[~np.isfinite(values)][0]} is not finite")
            except ValueError as err:
                raise FixtureError(f"{where}: {err}") from None
            table[seq], width = values, values.size
    if not table:
        raise FixtureError(f"{kind} fixture {path} has no entries")
    return table


def load_likelihood_table(path: str | Path) -> dict[str, float]:
    """Load a CSV of `sequence,value` rows (`load_sequence_table`, one value a row).

    Oracle tables and likelihood tables share this reader; the range a value
    must lie in is checked by whoever consumes the table.
    """
    table = load_sequence_table(path, "table")
    width = next(iter(table.values())).size
    if width != 1:
        raise FixtureError(f"table fixture {path}: each row has {width} values, not one")
    return {seq: float(values[0]) for seq, values in table.items()}


def _table_entry(table: dict, kind: str, seq: str):
    """The entry of `seq` in a sequence-keyed fixture table, or a FixtureError
    naming the fixture `kind` and the sequence."""
    value = table.get(seq)
    if value is None:
        raise FixtureError(
            f"no value for sequence {seq!r}: the {kind} fixture has no entry for it"
        )
    return value
