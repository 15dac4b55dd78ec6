import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from abbo.cli import (
    EXIT_CONFIG,
    EXIT_FIXTURE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNEXPECTED,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    main,
)

PARENTAL = "MKTAYIAKQRQISFVKSHFSRQ"


def write_config(path: Path, **overrides) -> Path:
    payload = {
        "parental": PARENTAL,
        "method": "OneHot-T",
        "seed": 3,
        "protocol": {
            "initial_pool_size": 30,
            "initial_sample_size": 8,
            "rounds": 2,
            "batch_size": 6,
            "drop_count": 2,
            "repeats": 2,
        },
        "ga": {"population_size": 12, "generations": 3},
        "gp": {"restarts": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(payload.get(key), dict):
            payload[key].update(value)
        else:
            payload[key] = value
    path.write_text(yaml.safe_dump(payload))
    return path


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# run


def test_run_writes_all_outputs(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert "OneHot-T" in capsys.readouterr().out

    rounds = read_csv(out / "rounds.csv")
    # one row per repeat and round, counting the initial round 0
    assert len(rounds) == 2 * 3
    assert sorted({row["round"] for row in rounds}) == ["0", "1", "2"]
    aggregate = read_csv(out / "aggregate.csv")
    assert len(aggregate) == 3

    assert len(list(out.glob("rep*/acquisitions_round*.csv"))) == 2 * 2
    assert len(list(out.glob("rep*/hyperparams_round*.txt"))) > 0


def test_run_round_and_seed_overrides(tmp_path):
    config = write_config(tmp_path / "config.yaml")
    out = tmp_path / "short"
    code = main(["run", "--config", str(config), "--out", str(out), "--rounds", "1"])
    assert code == EXIT_OK
    assert sorted({row["round"] for row in read_csv(out / "rounds.csv")}) == ["0", "1"]

    # the same seed reproduces byte-identical logs, a new seed does not
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for target, seed in ((out_a, "9"), (out_b, "9"), (out_c, "10")):
        assert main([
            "run", "--config", str(config), "--out", str(target),
            "--seed", seed, "--rounds", "1",
        ]) == EXIT_OK
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    assert (out_a / "rounds.csv").read_bytes() != (out_c / "rounds.csv").read_bytes()


def test_run_method_override_to_random(tmp_path):
    config = write_config(tmp_path / "config.yaml")
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out), "--method", "Random"])
    assert code == EXIT_OK
    assert read_csv(out / "rounds.csv")[0]["method"] == "Random"
    # no surrogate, so no hyperparameter dumps
    assert list(out.glob("rep*/hyperparams_round*.txt")) == []


def test_run_rejects_bad_round_override(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x"), "--rounds", "0"])
    assert code == EXIT_CONFIG
    assert "rounds" in capsys.readouterr().err


def test_run_missing_config_is_config_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "nope.yaml" in capsys.readouterr().err


def test_run_unknown_method_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml", method="Webbed-T")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "Webbed-T" in capsys.readouterr().err


def test_run_missing_fixture_is_fixture_error(tmp_path, capsys):
    config = write_config(
        tmp_path / "config.yaml",
        oracle={"kind": "fixture", "table": str(tmp_path / "missing_oracle.csv")},
    )
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == EXIT_FIXTURE
    assert "missing_oracle.csv" in capsys.readouterr().err


def test_usage_error_code_differs_from_every_other_code(capsys):
    # argparse exits on its own; its code must not read as a missing fixture
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config"])
    assert exc.value.code == EXIT_USAGE
    assert exc.value.code != EXIT_FIXTURE
    codes = [EXIT_OK, EXIT_UNEXPECTED, EXIT_USAGE, EXIT_CONFIG, EXIT_FIXTURE,
             EXIT_VIOLATIONS, EXIT_NUMERICAL]
    assert len(set(codes)) == len(codes)
    assert "usage" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_good_config(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml")
    assert main(["validate", "--config", str(config)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out


def test_validate_lists_protocol_contradiction(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml", protocol={"drop_count": 6})
    assert main(["validate", "--config", str(config)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "problem(s) found" in out
    assert "drop" in out


def test_validate_lists_missing_fixture(tmp_path, capsys):
    config = write_config(
        tmp_path / "config.yaml",
        oracle={"kind": "fixture", "table": str(tmp_path / "missing_oracle.csv")},
    )
    assert main(["validate", "--config", str(config)]) == EXIT_VIOLATIONS
    assert "missing_oracle.csv" in capsys.readouterr().out


def test_validate_verbose_lists_methods(tmp_path, capsys):
    config = write_config(tmp_path / "config.yaml")
    assert main(["validate", "--config", str(config), "--verbose"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "known methods" in out
    assert "Kermut-T" in out and "C-OneHot-T" in out


# ---------------------------------------------------------------------------
# report


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    config = write_config(root / "config.yaml")
    for method, sub in (("OneHot-T", "onehot"), ("Random", "random")):
        code = main([
            "run", "--config", str(root / "config.yaml"),
            "--out", str(root / sub), "--method", method,
        ])
        assert code == EXIT_OK
    return root


def test_report_merges_methods(finished_runs, capsys):
    assert main(["report", "--out", str(finished_runs), "--verbose"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "summary_best.csv" in out

    rows = read_csv(finished_runs / "summary_best.csv")
    methods = {row["method"] for row in rows}
    assert methods == {"OneHot-T", "Random"}
    for method in methods:
        rounds = [int(r["round"]) for r in rows if r["method"] == method]
        assert rounds == [0, 1, 2]
    assert all(row["n"] == "2" for row in rows)
    assert (finished_runs / "summary_rmsd.csv").exists()


def test_report_standard_error_matches_definition(finished_runs):
    per_round = {}
    for row in read_csv(finished_runs / "onehot" / "rounds.csv"):
        per_round.setdefault(int(row["round"]), []).append(float(row["best_so_far"]))
    summary = {
        int(row["round"]): row
        for row in read_csv(finished_runs / "summary_best.csv")
        if row["method"] == "OneHot-T"
    }
    # summaries carry 10 significant digits, so compare at that precision
    for rnd, values in per_round.items():
        arr = np.array(values)
        assert float(summary[rnd]["best_so_far_mean"]) == pytest.approx(arr.mean(), rel=1e-9)
        expected_se = arr.std(ddof=1) / np.sqrt(arr.size)
        assert float(summary[rnd]["best_so_far_se"]) == pytest.approx(expected_se, rel=1e-8)


def test_report_is_idempotent_and_read_only(finished_runs):
    rounds_path = finished_runs / "onehot" / "rounds.csv"
    before_rounds = rounds_path.read_bytes()
    before_summary = (finished_runs / "summary_best.csv").read_bytes()
    assert main(["report", "--out", str(finished_runs)]) == EXIT_OK
    assert rounds_path.read_bytes() == before_rounds
    assert (finished_runs / "summary_best.csv").read_bytes() == before_summary


def test_report_single_repeat_has_zero_se(tmp_path):
    config = write_config(tmp_path / "config.yaml", protocol={"repeats": 1})
    out = tmp_path / "solo"
    assert main(["run", "--config", str(config), "--out", str(out), "--rounds", "1"]) == EXIT_OK
    assert main(["report", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "summary_best.csv")
    assert all(row["n"] == "1" and float(row["best_so_far_se"]) == 0.0 for row in rows)


def test_report_missing_directory(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "void")]) == EXIT_FIXTURE
    assert "void" in capsys.readouterr().err


def test_report_without_rounds_files(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["report", "--out", str(tmp_path / "empty")]) == EXIT_FIXTURE
    assert "rounds.csv" in capsys.readouterr().err


def test_report_rejects_corrupt_rounds_file(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "rounds.csv").write_text("method,round\nOneHot-T,zero\n")
    assert main(["report", "--out", str(bad)]) == EXIT_FIXTURE
    assert "corrupt" in capsys.readouterr().err
