import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abbo.sequences import (
    ALPHABET,
    Mutation,
    MutationSet,
    blosum62_matrix,
    diff,
    encode,
    mutate,
    one_hot_matrix,
    residue_indices,
    validate_sequence,
)

seq_strategy = st.text(alphabet=ALPHABET, min_size=1, max_size=30)


def test_alphabet_is_the_twenty_canonical_residues():
    assert len(ALPHABET) == 20
    assert len(set(ALPHABET)) == 20
    assert ALPHABET == "".join(sorted(ALPHABET))


def test_validate_sequence_accepts_canonical():
    assert validate_sequence("ACDY") == "ACDY"


@pytest.mark.parametrize("bad", ["ACB", "acdy", "AC DY", "ACX", "AC-Y"])
def test_validate_sequence_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        validate_sequence(bad)


def test_mutation_str_and_validation():
    m = Mutation(5, "A", "C")
    assert str(m) == "A5C"
    with pytest.raises(ValueError):
        Mutation(-1, "A", "C")
    with pytest.raises(ValueError):
        Mutation(0, "A", "A")
    with pytest.raises(ValueError):
        Mutation(0, "B", "C")


def test_mutation_set_applies_and_sorts():
    ms = MutationSet("AAAA", (Mutation(3, "A", "W"), Mutation(1, "A", "C")))
    assert [m.position for m in ms.entries] == [1, 3]
    assert ms.apply() == "ACAW"
    assert ms.positions == (1, 3)


def test_mutation_set_rejects_inconsistent_entries():
    with pytest.raises(ValueError):
        MutationSet("AAAA", (Mutation(1, "C", "W"),))  # wrong from-residue
    with pytest.raises(ValueError):
        MutationSet("AAAA", (Mutation(9, "A", "W"),))  # out of range
    with pytest.raises(ValueError):
        MutationSet("AAAA", (Mutation(1, "A", "W"), Mutation(1, "A", "C")))


@given(seq_strategy, st.data())
@settings(max_examples=200, deadline=None)
def test_diff_apply_roundtrip(parental, data):
    # mutate a few random positions, then diff must recover the variant exactly
    variant = parental
    n_edits = data.draw(st.integers(0, min(4, len(parental))))
    positions = data.draw(
        st.lists(
            st.integers(0, len(parental) - 1),
            min_size=n_edits,
            max_size=n_edits,
            unique=True,
        )
    )
    for pos in positions:
        variant = mutate(variant, pos, data.draw(st.sampled_from(ALPHABET)))
    ms = diff(parental, variant)
    assert ms.apply() == variant
    assert all(parental[m.position] != m.to_residue for m in ms.entries)


def test_diff_requires_equal_lengths():
    with pytest.raises(ValueError):
        diff("AAA", "AAAA")


def test_one_hot_encoding_shape_and_content():
    enc = one_hot_matrix()
    assert enc.dim == 20
    vec = encode("AC", enc)
    assert vec.shape == (40,)
    assert vec.sum() == 2.0
    assert vec[ALPHABET.index("A")] == 1.0
    assert vec[20 + ALPHABET.index("C")] == 1.0


def test_blosum62_known_values_and_symmetry():
    mat = blosum62_matrix()
    rows = np.stack([mat.row(ch) for ch in ALPHABET])
    assert np.array_equal(rows, rows.T)
    # a few textbook entries
    def entry(a, b):
        return mat.row(a)[ALPHABET.index(b)]

    assert entry("W", "W") == 11
    assert entry("A", "A") == 4
    assert entry("C", "C") == 9
    assert entry("W", "C") == -2
    assert entry("A", "R") == -1
    assert entry("E", "D") == 2


def test_blosum_encoding_rows_match_matrix():
    mat = blosum62_matrix()
    vec = encode("WA", mat)
    assert vec.shape == (40,)
    assert np.array_equal(vec[:20], mat.row("W"))
    assert np.array_equal(vec[20:], mat.row("A"))


def test_encode_empty_sequence_gives_empty_vector():
    assert encode("", one_hot_matrix()).shape == (0,)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet=ALPHABET, min_size=7, max_size=7), min_size=1, max_size=10))
def test_residue_indices_gather_equals_encode(seqs):
    idx = residue_indices(seqs, 7)
    assert idx.shape == (len(seqs), 7)
    for encoding in (one_hot_matrix(), blosum62_matrix()):
        rows = encoding.table()[idx].reshape(len(seqs), -1)
        for seq, row in zip(seqs, rows):
            assert np.array_equal(row, encode(seq, encoding))


@pytest.mark.parametrize(
    "seqs, error, match",
    [
        (["ACD", "AXD"], ValueError, "non-canonical residue 'X' at position 1"),
        (["ACD", "ACé"], ValueError, "non-canonical residue 'é' at position 2"),
        (["ACD", "ACDE"], ValueError, "'ACDE' has length 4, expected 3"),
        (["ACD", 7], TypeError, "must be a string"),
    ],
)
def test_residue_indices_reject_bad_batches(seqs, error, match):
    with pytest.raises(error, match=match):
        residue_indices(seqs, 3)
