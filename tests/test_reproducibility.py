"""Seeded campaigns reproduce, whatever the machine's BLAS thread default.

Campaigns run BLAS at one thread (`abbo._blas`). The golden fingerprints below
pin the behaviour of one small seeded campaign per method family: GOLDEN its
designs, GOLDEN_FIT its fitted hyperparameters and log marginal likelihoods.
A change that moves one must say so. After such a change, print the new values
with

    PYTHONPATH=src python3 tests/test_reproducibility.py

and paste them into GOLDEN and GOLDEN_FIT. METHODS pins the designs of every
registered method name on a smaller campaign the same way. The script also
names the entries that differ from the committed ones, the cases a
re-baseline moves.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import abbo
from abbo import _blas
from abbo.campaign import (
    CampaignConfig,
    CampaignLog,
    OracleConfig,
    ProtocolConfig,
    registered_method_names,
    run_campaign,
    validate_campaign,
)
from abbo.exceptions import FixtureError
from abbo.gaopt import GAConfig

PARENTAL = "EVQLVESGGGLVQPGGSLRLSCAASGFTFSSYAMSWVRQAPGK"

# One campaign per method family: one-hot/BLOSUM Tanimoto, Matern on
# embeddings, the coordinate-Matern plus Tanimoto sum, Kermut, a constrained
# variant and the random baseline; then constrained Kermut on BLOSUM and
# Kermut under a constant mean.
GOLDEN = {
    "BLO-T": "3b0c25755b8459c1",
    "ESM-M": "632319b3d91e3103",
    "IgFold-BLO-T": "0b3b6af63e6273ca",
    "Kermut-T": "3ab192d34a4b5000",
    "C-OneHot-T": "9a5cbe89e7212de5",
    "Random": "36d7a5bc543d6ceb",
    "C-Kermut-BLO-T": "48a337f7059ae10f",
    "Const-Kermut-T": "87bfdeff412a0bd2",
}

# The same campaigns' fits: each round's hyperparameters and log ML.
GOLDEN_FIT = {
    "BLO-T": "6b3b6c9969a0c943",
    "ESM-M": "9bfad3a0502eb3eb",
    "IgFold-BLO-T": "a4b68f951f73c645",
    "Kermut-T": "cf4a11fe3f008ea0",
    "C-OneHot-T": "335f279ad415bf4d",
    "Random": "66e529d14e5ed948",
    "C-Kermut-BLO-T": "75658fd14c24ab8a",
    "Const-Kermut-T": "5922ee5bda840576",
}


# Every registered method name under `method_config`: its designs' digest.
# Several methods read the same one because a one-round search from ten
# labels does not always tell their surrogates apart.
METHODS = {
    "AbBoth-Kermut-BLO-T": "f8b8b6442d025409",
    "AbMPNN-Kermut-T": "08e095d1954b9be3",
    "AbSeq-Kermut-T": "52b03eeea6ee457e",
    "BLO-T": "55fa3052bd9781ec",
    "Const-Kermut-T": "3923561794668fab",
    "ESM-M": "f6bcc06d88c0ff04",
    "IgFold-BLO-T": "b7efd1931aed991b",
    "IgFold-ESM-M": "f6bcc06d88c0ff04",
    "IgFold-M": "f6bcc06d88c0ff04",
    "Kermut-BLO-T": "08ffbf0f2d0e545f",
    "Kermut-T": "52b03eeea6ee457e",
    "OneHot-T": "6921f889a7a45cac",
    "Random": "e9d841737b8393a3",
    "C-AbBoth-Kermut-BLO-T": "815da890c3444723",
    "C-AbMPNN-Kermut-T": "dff3e2332ea6d42b",
    "C-AbSeq-Kermut-T": "e279bfc174f129da",
    "C-BLO-T": "5051a97d7c43be25",
    "C-Const-Kermut-T": "f0169bc623c36ab4",
    "C-ESM-M": "09c9c107ef307999",
    "C-IgFold-BLO-T": "f52cdb5480a88119",
    "C-IgFold-ESM-M": "56e1a4d11a227914",
    "C-IgFold-M": "95fb7b49c00b05a6",
    "C-Kermut-BLO-T": "54c6f6eb29185197",
    "C-Kermut-T": "e279bfc174f129da",
    "C-OneHot-T": "78c4311e20c45f2e",
}


def method_config(method: str) -> CampaignConfig:
    """One round from ten labels: small enough to run every method name."""
    return CampaignConfig(
        parental=PARENTAL,
        method=method,
        seed=4,
        protocol=ProtocolConfig(
            initial_pool_size=30,
            initial_sample_size=10,
            rounds=1,
            batch_size=12,
            drop_count=4,
            repeats=1,
        ),
        ga=GAConfig(population_size=16, generations=3),
    )


def small_config(method: str) -> CampaignConfig:
    return CampaignConfig(
        parental=PARENTAL,
        method=method,
        seed=3,
        protocol=ProtocolConfig(
            initial_pool_size=80,
            initial_sample_size=24,
            rounds=2,
            batch_size=16,
            drop_count=5,
            repeats=1,
        ),
        ga=GAConfig(population_size=32, generations=8),
    )


def late_config() -> CampaignConfig:
    """The benchmark's `onehot-late` campaign at seed 2: one round from 300
    labels, whose fit sits at its noise bound, so the designs amplify
    last-digit differences in the model."""
    return CampaignConfig(
        parental=PARENTAL,
        method="OneHot-T",
        seed=2,
        protocol=ProtocolConfig(
            initial_pool_size=400,
            initial_sample_size=300,
            rounds=1,
            batch_size=80,
            drop_count=30,
            repeats=1,
        ),
    )


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def design_digest(log: CampaignLog) -> str:
    """The benchmark's behaviour fingerprint (`bench/checks.py`): a hash of
    the best-so-far series and the acquired sequences of every round."""
    return _digest(
        {
            "best_so_far": [rec.best_so_far for rec in log.records],
            "acquired": [[a.sequence for a in rec.acquired] for rec in log.records],
        }
    )


def fit_digest(log: CampaignLog) -> str:
    """A hash of the `repr` of every round's hyperparameters and log ML."""
    return _digest(
        [[repr(rec.hyperparameters), repr(rec.log_marginal_likelihood)] for rec in log.records]
    )


def fingerprint(config: CampaignConfig) -> str:
    """`design_digest` of a one-repeat campaign."""
    (log,) = run_campaign(config).logs
    return design_digest(log)


@functools.cache
def golden_log(method: str) -> CampaignLog:
    (log,) = run_campaign(small_config(method)).logs
    return log


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_golden_fingerprint(method):
    assert design_digest(golden_log(method)) == GOLDEN[method]


@pytest.mark.parametrize("method", sorted(GOLDEN_FIT))
def test_golden_fit(method):
    assert fit_digest(golden_log(method)) == GOLDEN_FIT[method]


@pytest.mark.parametrize("method", registered_method_names())
def test_method_fingerprint(method):
    assert fingerprint(method_config(method)) == METHODS.get(method)


def test_seeded_campaign_does_not_depend_on_blas_threads():
    # Before campaigns pinned BLAS to one thread, this campaign gave
    # best-so-far 10.569 at one OpenBLAS thread and 9.848 at two.
    src = Path(abbo.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]\n"
        "from test_reproducibility import fingerprint, late_config\n"
        "print(fingerprint(late_config()))\n"
    )
    prints = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr
        prints.append(done.stdout.strip())
    assert prints[0] == prints[1]


@pytest.fixture
def two_threads():
    """Every reachable OpenBLAS at two threads for the test, then back."""
    controls = _blas._controls()
    assert len(controls) == 2, "this numpy/scipy build exposes no OpenBLAS thread control"
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


def test_campaign_runs_at_one_thread_and_restores_the_counts(two_threads, monkeypatch):
    import abbo.campaign as campaign

    during = []
    real_fit = campaign.fit_gp

    def recording_fit(*args, **kwargs):
        during.append([get() for get, _ in two_threads])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(campaign, "fit_gp", recording_fit)
    run_campaign(small_config("OneHot-T"))
    assert during and all(counts == [1, 1] for counts in during)
    assert [get() for get, _ in two_threads] == [2, 2]
    assert validate_campaign(small_config("OneHot-T")) == []
    assert [get() for get, _ in two_threads] == [2, 2]


def test_failing_campaign_restores_the_counts(two_threads, tmp_path):
    table = tmp_path / "oracle.csv"
    table.write_text(f"{PARENTAL},0.0\n")
    config = small_config("OneHot-T")
    config.oracle = OracleConfig(kind="fixture", table_path=str(table))
    with pytest.raises(FixtureError):
        run_campaign(config)
    assert [get() for get, _ in two_threads] == [2, 2]


def test_missing_thread_control_warns_once_and_runs(monkeypatch):
    missing = tuple((module, "no_getter", "no_such_setter") for module, *_ in _blas._LIBRARIES)
    monkeypatch.setattr(_blas, "_LIBRARIES", missing)
    _blas._controls.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_campaign(small_config("OneHot-T"))
            assert validate_campaign(small_config("OneHot-T")) == []
    finally:
        _blas._controls.cache_clear()
    assert len(result.logs[0].records) == 3
    (warning,) = [w for w in caught if "BLAS thread count" in str(w.message)]
    assert warning.category is RuntimeWarning
    assert "no_such_setter" in str(warning.message)


if __name__ == "__main__":
    moved = []
    for name, committed, digest in (
        ("GOLDEN", GOLDEN, lambda method: design_digest(golden_log(method))),
        ("GOLDEN_FIT", GOLDEN_FIT, lambda method: fit_digest(golden_log(method))),
        ("METHODS", METHODS, lambda method: fingerprint(method_config(method))),
    ):
        print(f"{name} = {{")
        for method in registered_method_names() if committed is METHODS else committed:
            value = digest(method)
            print(f"    {method!r}: {value!r},")
            if value != committed[method]:
                moved.append(f"{name}[{method!r}]")
        print("}")
    print(f"# differ from the committed values: {', '.join(moved) or 'none'}")
