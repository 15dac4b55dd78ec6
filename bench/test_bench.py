"""Tests of the benchmark itself: every check passes on a real output and fails
on a deliberately corrupted one, tracing changes no behaviour and reports
every layer, and a directory without the program is refused.

    python3 -m pytest bench/test_bench.py

The campaigns here are the benchmark's workloads shrunk to a few seconds in
all (tiny pool, batch and GA), so every check sees real program output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
from tracing import PER_LAYER, aggregate  # noqa: E402
from workloads import PARENTAL, WORKLOADS  # noqa: E402

worker.import_abbo()

SEED = 3


def tiny(name: str):
    wl = WORKLOADS[name]
    ga = {**wl.ga, "population_size": 16, "generations": 3}
    return replace(wl, pool=30, init=10, rounds=2, batch=8, drop=3, ga=ga)


def as_read(out: dict) -> dict:
    """The output as the parent reads it back from the worker's JSON file."""
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def case(request):
    wl = tiny(request.param)
    return wl, as_read(worker.run(wl, SEED))


def test_real_output_passes_every_check(case):
    wl, out = case
    problems, _ = checks.check_all(out, wl, PARENTAL, SEED)
    assert problems == {name: [] for name in problems}


def _last(out):
    return out["rounds"][-1]


def _kept(out):
    return next(a for a in _last(out)["acquired"] if not a["dropped"])


def _widest(out):
    return max(_last(out)["acquired"], key=lambda a: a["std"])


CORRUPTIONS = {
    "n_data": ("bookkeeping", lambda o: _last(o).__setitem__("n_data", _last(o)["n_data"] + 1)),
    "repeated_candidate": (
        "bookkeeping",
        lambda o: _last(o)["acquired"][1].__setitem__(
            "sequence", _last(o)["acquired"][0]["sequence"]
        ),
    ),
    "short_candidate": (
        "bookkeeping",
        lambda o: _last(o)["acquired"][0].__setitem__(
            "sequence", _last(o)["acquired"][0]["sequence"][:-1]
        ),
    ),
    "drop_count": (
        "bookkeeping",
        lambda o: next(a for a in _last(o)["acquired"] if a["dropped"]).__setitem__(
            "dropped", False
        ),
    ),
    "best_decreases": (
        "bookkeeping",
        lambda o: _last(o).__setitem__("best_so_far", o["rounds"][0]["best_so_far"] - 1.0),
    ),
    "best_not_max": (
        "bookkeeping",
        lambda o: _last(o).__setitem__("best_so_far", _last(o)["best_so_far"] + 1e-6),
    ),
    "no_improvement": (
        "bookkeeping",
        lambda o: [r.__setitem__("best_so_far", o["rounds"][0]["best_so_far"]) for r in o["rounds"]],
    ),
    "acquired_label": (
        "labels",
        lambda o: _kept(o).__setitem__("oracle_value", _kept(o)["oracle_value"] + 0.5),
    ),
    "oracle_label": ("labels", lambda o: o["labels"][0].__setitem__(1, o["labels"][0][1] + 1e-6)),
    "log_ml": (
        "gp_fit",
        lambda o: _last(o).__setitem__("log_ml", _last(o)["log_ml"] + 1e-3 * abs(_last(o)["log_ml"])),
    ),
    "hyperparameter": (
        "gp_fit",
        lambda o: _last(o)["hyperparameters"].__setitem__(
            "noise.variance", _last(o)["hyperparameters"]["noise.variance"] * 1.5 + 1e-3
        ),
    ),
    "posterior_mean": ("posterior", lambda o: _widest(o).__setitem__("mean", _widest(o)["mean"] + 1e-4)),
    "posterior_std": ("posterior", lambda o: _widest(o).__setitem__("std", _widest(o)["std"] * 1.001)),
    "likelihood": (
        "soft_constraint",
        lambda o: _kept(o).__setitem__("likelihood", _kept(o)["likelihood"] * (1 + 1e-6)),
    ),
    "batch_mean_likelihood": (
        "soft_constraint",
        lambda o: _last(o).__setitem__(
            "batch_mean_likelihood", _last(o)["batch_mean_likelihood"] * (1 + 1e-6)
        ),
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_output(case, corruption):
    wl, out = case
    check, corrupt = CORRUPTIONS[corruption]
    bad = copy.deepcopy(out)
    corrupt(bad)
    problems, _ = checks.check_all(bad, wl, PARENTAL, SEED)
    assert problems[check], f"{check} missed the {corruption} corruption"


def test_tracing_reports_every_layer_and_changes_no_behaviour(case):
    wl, out = case
    traced = as_read(worker.run(wl, SEED, trace=True))
    assert checks.fingerprint(traced) == checks.fingerprint(out)
    layers = {name: m["value"] for name, m in aggregate([traced["layers"]]).items()}
    assert list(layers) == [name for name, _ in PER_LAYER]
    assert layers["gp.fit_calls"] == wl.rounds
    assert layers["acquisition.select_calls"] == wl.rounds
    assert layers["campaign.oracle_calls"] == wl.init + wl.kept * wl.rounds
    assert layers["gaopt.evaluate_calls"] == layers["gaopt.evaluations"] > 0
    assert layers["gp.predict_rows"] >= layers["gaopt.evaluations"]
    assert all(value >= 0 for value in layers.values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "onehot-late", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
