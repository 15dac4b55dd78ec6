import warnings

import numpy as np
import pytest

from abbo.exceptions import FixtureError
from abbo.plm import (
    PROB_FLOOR,
    PssmLikelihoodProvider,
    TableLikelihoodProvider,
    concentrated_pssm,
    load_likelihood_table,
    load_pssm,
    substitution_softmax_pssm,
)
from abbo.sequences import ALPHABET


def _pssm_for(prob_rows):
    """Rows give the probability of residue 'A' and 'C'; rest uniform filler."""
    out = np.zeros((len(prob_rows), 20))
    for i, (p_a, p_c) in enumerate(prob_rows):
        out[i, ALPHABET.index("A")] = p_a
        out[i, ALPHABET.index("C")] = p_c
        rest = 1.0 - p_a - p_c
        others = [k for k in range(20) if ALPHABET[k] not in "AC"]
        out[i, others] = rest / len(others)
    return out


def test_pseudo_likelihood_is_geometric_mean():
    # two sites with own-residue probabilities 0.5 and 0.25:
    # geometric mean sqrt(0.5 * 0.25)
    probs = _pssm_for([(0.5, 0.3), (0.25, 0.5)])
    provider = PssmLikelihoodProvider(probs)
    assert provider.pseudo_likelihood("AA") == pytest.approx(np.sqrt(0.5 * 0.25))
    assert provider.pseudo_likelihood("AC") == pytest.approx(np.sqrt(0.5 * 0.5))


def test_pseudo_likelihood_in_unit_interval():
    probs = substitution_softmax_pssm("MKTAYIAK")
    provider = PssmLikelihoodProvider(probs)
    value = provider.pseudo_likelihood("MKTAYIAK")
    assert 0.0 < value <= 1.0


def test_zero_probability_is_floored_with_warning():
    probs = _pssm_for([(0.0, 0.5)])  # residue A has probability exactly 0
    provider = PssmLikelihoodProvider(probs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = provider.pseudo_likelihood("A")
    assert value == pytest.approx(PROB_FLOOR)
    assert provider.floored_sites == 1
    assert any("floored" in str(w.message) for w in caught)


def test_pssm_validation_errors():
    with pytest.raises(ValueError):
        PssmLikelihoodProvider(np.ones((3, 19)))
    bad = np.full((2, 20), 0.05)
    bad[0, 0] = -0.05
    with pytest.raises(ValueError):
        PssmLikelihoodProvider(bad)
    with pytest.raises(ValueError):
        PssmLikelihoodProvider(np.full((2, 20), 0.04))  # rows sum to 0.8


def test_length_mismatch_rejected():
    provider = PssmLikelihoodProvider(np.full((4, 20), 0.05))
    with pytest.raises(ValueError):
        provider.pseudo_likelihood("ACD")


def test_table_provider_roundtrip_and_missing():
    provider = TableLikelihoodProvider({"ACD": 0.25, "ACY": 1.0})
    assert provider.pseudo_likelihood("ACD") == 0.25
    with pytest.raises(FixtureError):
        provider.pseudo_likelihood("AAA")
    with pytest.raises(FixtureError):
        TableLikelihoodProvider({"ACD": 1.5})
    with pytest.raises(FixtureError):
        TableLikelihoodProvider({})


def test_substitution_softmax_rows_normalized():
    probs = substitution_softmax_pssm("MKTAY", temperature=0.8)
    assert probs.shape == (5, 20)
    assert np.allclose(probs.sum(axis=1), 1.0)
    modes = probs.argmax(axis=1)
    assert "".join(ALPHABET[m] for m in modes) == "MKTAY"


def test_concentrated_pssm_weights():
    probs = concentrated_pssm("AC", weight=0.9)
    assert probs[0, ALPHABET.index("A")] == pytest.approx(0.9)
    assert probs[1, ALPHABET.index("C")] == pytest.approx(0.9)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_load_pssm_roundtrip(tmp_path):
    probs = substitution_softmax_pssm("ACD")
    path = tmp_path / "table.tsv"
    header = "\t".join(ALPHABET)
    body = "\n".join("\t".join(f"{v:.12f}" for v in row) for row in probs)
    path.write_text(header + "\n" + body + "\n")
    loaded = load_pssm(path)
    assert np.allclose(loaded, probs, atol=1e-9)


def test_load_pssm_errors(tmp_path):
    with pytest.raises(FixtureError):
        load_pssm(tmp_path / "missing.tsv")
    bad = tmp_path / "bad.tsv"
    bad.write_text("0.5 0.5\n")
    with pytest.raises(FixtureError):
        load_pssm(bad)
    for value in ("nan", "inf"):
        # a NaN row sum is not more than 1e-9 away from 1, so it needs its own check
        row = ["0.05"] * 20
        row[3] = value
        bad.write_text(" ".join(row) + "\n")
        with pytest.raises(FixtureError, match="bad.tsv.*not finite"):
            load_pssm(bad)


def test_load_likelihood_table(tmp_path):
    path = tmp_path / "lik.csv"
    path.write_text("sequence,likelihood\nACD,0.5\nACY,0.125\n")
    table = load_likelihood_table(path)
    assert table == {"ACD": 0.5, "ACY": 0.125}
    with pytest.raises(FixtureError):
        load_likelihood_table(tmp_path / "missing.csv")
    # blank lines, comments and a `seq` header are skipped
    path.write_text("# exported\nseq,likelihood\n\nACD,0.5\n  \nACY , 0.125\n")
    assert load_likelihood_table(path) == {"ACD": 0.5, "ACY": 0.125}
    for body, problem in [
        ("ACX,0.5\n", r"row 2, sequence 'ACX': non-canonical residue 'X'"),
        ("ACD,0.5\nACD,0.25\n", r"row 3, sequence 'ACD': the sequence is listed twice"),
        ("ACD,0.5\nACY,0.5,99\n", r"row 3, sequence 'ACY': 2 values, where a row needs 1"),
        ("ACD,0.5,99\nACY,0.5,99\n", r"each row has 2 values, not one"),
        ("ACD\n", r"row 2, sequence 'ACD': 0 values, where a row needs some"),
        (",0.5\n", r"row 2, sequence '': the sequence is empty"),
        ("ACD,nan\n", r"row 2, sequence 'ACD': value nan is not finite"),
        ("# nothing\n", r"has no entries"),
    ]:
        path.write_text("sequence,likelihood\n" + body)
        with pytest.raises(FixtureError, match=rf"lik\.csv.*{problem}"):
            load_likelihood_table(path)
