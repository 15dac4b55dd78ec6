import csv
import dataclasses
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from abbo.campaign import (
    CampaignConfig,
    GPConfig,
    OracleConfig,
    ProtocolConfig,
    ProviderConfig,
    _assemble,
)
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
from abbo.features import SyntheticFeatureProvider, synthetic_structure_context
from abbo.gaopt import GAConfig
from abbo.sequences import ALPHABET

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


def read_round_log(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


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
    # the same rows as JSON lines, each acquired batch in full
    lines = read_round_log(out / "rounds.jsonl")
    assert [(line["repeat"], line["round_index"]) for line in lines] == [
        (int(row["repeat"]), int(row["round"])) for row in rounds
    ]
    assert [len(line["acquired"]) for line in lines] == [0, 6, 6] * 2
    assert sorted(p.name for p in out.iterdir()) == ["rounds.csv", "rounds.jsonl"]


@pytest.mark.parametrize("dump_fronts", [False, True])
def test_readme_names_exactly_the_files_run_writes(tmp_path, dump_fronts):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("`run` writes exactly these into `--out`:", 1)[1].split("\n\n")[1]
    items = re.findall(r"^- `([^`]+)`(.*?)(?=^- |\Z)", listing, flags=re.M | re.S)
    named = {name for name, text in items if dump_fronts or "dump_fronts" not in text}
    config = write_config(tmp_path / "config.yaml", dump_fronts=dump_fronts)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--rounds", "1"]) == EXIT_OK
    written = {path.name + "/" * path.is_dir() for path in out.iterdir()}
    assert written == named, f"README lists {sorted(named)}, run wrote {sorted(written)}"


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
    # no surrogate, so nothing fitted
    lines = read_round_log(out / "rounds.jsonl")
    assert {line["method"] for line in lines} == {"Random"}
    assert all(line["hyperparameters"] is None for line in lines)


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


def run_or_validate(command: str, config: Path, out_dir: Path, capsys) -> tuple[int, str]:
    """Exit code and report of `abbo run` (writing under `out_dir`) or `abbo validate`."""
    args = [command, "--config", str(config)]
    if command == "run":
        args += ["--out", str(out_dir)]
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.err if command == "run" else captured.out


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "overrides, name",
    [
        pytest.param({"mean": {"gamma": {"frozen": True}}}, "mean.gamma", id="unknown-name"),
        pytest.param({"kernel": {"variance": -1}}, "kernel.variance", id="out-of-range"),
        pytest.param({"kernel": {"variance": "abc"}}, "kernel.variance", id="kernel-text"),
        pytest.param({"mean": {"beta": "abc"}}, "mean.beta", id="mean-text"),
        pytest.param(
            {"kernel": {"variance": {"frozen": "no"}}}, "kernel.variance", id="frozen-text"
        ),
    ],
)
def test_bad_parameter_override_is_config_error(tmp_path, capsys, command, overrides, name):
    config = write_config(tmp_path / "config.yaml", **overrides)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_CONFIG if command == "run" else EXIT_VIOLATIONS)
    assert name in message
    assert "available: [" in message


# each config section and the dataclass it reads into ("" is the root)
SECTIONS = {
    "": CampaignConfig,
    "protocol": ProtocolConfig,
    "oracle": OracleConfig,
    "providers": ProviderConfig,
    "ga": GAConfig,
    "gp": GPConfig,
}
# a value of the wrong type for each scalar annotation
WRONG_TYPE = {bool: "no", int: 1.5, float: "abc", str: 5}


def wrong_type_cases():
    """One case per scalar field of every section: its key set to a value of another type."""
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if cls is GAConfig and f.name in ("seed", "objective_set"):
                continue  # derived by each round, so not a key
            hint = hints[f.name]
            kinds = [k for k in typing.get_args(hint) or (hint,) if k in WRONG_TYPE]
            if not kinds:
                continue
            key = "table" if f.name == "table_path" else f.name
            value = WRONG_TYPE[kinds[0]]
            overrides = {section: {key: value}} if section else {key: value}
            name = f"{section}.{key}" if section else key
            yield pytest.param(overrides, name, id=f"{name}-wrong-type")


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "overrides, name",
    [
        *wrong_type_cases(),
        *(
            pytest.param({section: {"bogus": 1}}, f"unknown keys in {section}", id=f"{section}-key")
            for section in SECTIONS
            if section
        ),
        pytest.param({"bogus": 1}, "unknown keys in config root", id="root-key"),
        pytest.param({"parental": PARENTAL[:-2] + "GX"}, "parental", id="parental-non-canonical"),
        pytest.param({"protocol": 0}, "section 'protocol'", id="protocol-number"),
        pytest.param({"gp": False}, "section 'gp'", id="gp-false"),
        pytest.param({"kernel": ""}, "section 'kernel'", id="kernel-empty-text"),
        pytest.param({"seed": "abc"}, "seed", id="seed-text"),
        pytest.param({"seed": 1.7}, "seed", id="seed-fraction"),
        pytest.param({"embedding_dim": "abc"}, "embedding_dim", id="embedding-dim-text"),
        pytest.param(
            {"providers": {"antibody_temperature": "abc"}},
            "providers: ['antibody_temperature']",
            id="temperature-text",
        ),
        pytest.param({"dump_fronts": "no"}, "dump_fronts", id="dump-fronts-text"),
        pytest.param(
            {"kernel": {"variance": True}}, "kernel.variance must be a number", id="kernel-bool"
        ),
        pytest.param(
            {"kernel": {"variance": {"value": "2"}}},
            "kernel.variance must be a number",
            id="kernel-mapping-text",
        ),
        pytest.param({"mean": {"beta": "1.5"}}, "mean.beta must be a number", id="mean-string"),
        pytest.param({"gp": {"fit_noise": "no"}}, "gp.fit_noise", id="fit-noise-text"),
        pytest.param({"protocol": {"rounds": 1.5}}, "protocol.rounds", id="rounds-fraction"),
        pytest.param({"oracle": {"seed": "abc"}}, "oracle.seed", id="oracle-seed-text"),
        pytest.param({"ga": {"population_size": 3}}, "population_size", id="ga-odd-population"),
        pytest.param({"ga": {"generations": 2.5}}, "ga.generations", id="ga-generations-fraction"),
        pytest.param(
            {"ga": {"max_mutations": 1.5}}, "ga.max_mutations", id="ga-max-mutations-fraction"
        ),
        pytest.param(
            {"ga": {"population_size": "abc"}}, "ga.population_size", id="ga-population-text"
        ),
        # a round derives both from the campaign seed and the method
        pytest.param({"ga": {"seed": 1}}, "ga: ['seed']", id="ga-seed"),
        pytest.param(
            {"ga": {"objective_set": "mean_std"}}, "ga: ['objective_set']", id="ga-objective-set"
        ),
        # a provider's source follows its paths, so no key chooses it
        *(
            pytest.param({"providers": {key: "fixture"}}, f"providers: [{key!r}]", id=key)
            for key in (
                "features",
                "structure",
                "antibody_structure",
                "constraint",
                "zero_shot",
                "antibody_zero_shot",
            )
        ),
        # a set provider path that the method does not read
        pytest.param(
            {"providers": {"site_probs_path": "s.tsv", "distances_path": "d.tsv"}},
            "providers.site_probs_path is set, but OneHot-T does not read it; "
            "it is read by Kermut-T, Kermut-BLO-T, Const-Kermut-T, AbSeq-Kermut-T",
            id="context-unread",
        ),
        pytest.param(
            {"providers": {"coords_path": "c.csv"}},
            "providers.coords_path is set, but OneHot-T does not read it; "
            "it is read by IgFold-M, IgFold-ESM-M, IgFold-BLO-T",
            id="coords-unread",
        ),
        pytest.param(
            {"method": "Const-Kermut-T", "providers": {"zero_shot_pssm_path": "z.tsv"}},
            "providers.zero_shot_pssm_path is set, but Const-Kermut-T does not read it; "
            "it is read by Kermut-T, Kermut-BLO-T, AbMPNN-Kermut-T",
            id="zero-shot-unread",
        ),
        # a synthetic oracle would not read the table
        pytest.param(
            {"oracle": {"kind": "synthetic-stability", "table": "/nonexistent/oracle.csv"}},
            "oracle.table",
            id="oracle-table-unread",
        ),
    ],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, command, overrides, name):
    config = write_config(tmp_path / "config.yaml", **overrides)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_CONFIG if command == "run" else EXIT_VIOLATIONS)
    assert name in message


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("noise_init", [50.0, 1e-9])
def test_fitted_noise_init_outside_its_bounds_is_config_error(
    tmp_path, capsys, command, noise_init
):
    config = write_config(tmp_path / "config.yaml", gp={"noise_init": noise_init})
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_CONFIG if command == "run" else EXIT_VIOLATIONS)
    assert "gp.noise_init" in message
    # a frozen noise is not fitted, so any positive value stands
    frozen = write_config(
        tmp_path / "frozen.yaml", gp={"noise_init": noise_init, "fit_noise": False}
    )
    assert main(["validate", "--config", str(frozen)]) == EXIT_OK


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "method, section, name, value, bounds",
    [
        ("ESM-M", "kernel", "lengthscale", 1.0e5, "[0.001, 1000.0]"),
        ("OneHot-T", "kernel", "variance", 1.0e-7, "[1e-06, 1000.0]"),
        ("Kermut-T", "kernel", "mix", 0.9999, "[0.001, 0.999]"),
        ("IgFold-BLO-T", "kernel", "coords.lengthscale", 2.0e3, "[0.001, 1000.0]"),
        ("OneHot-T", "mean", "beta", -2.0e6, "[-1000000.0, 1000000.0]"),
    ],
)
def test_free_override_outside_its_bounds_is_config_error(
    tmp_path, capsys, command, method, section, name, value, bounds
):
    config = write_config(tmp_path / "config.yaml", method=method, **{section: {name: value}})
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_CONFIG if command == "run" else EXIT_VIOLATIONS)
    assert f"{section}.{name} {value} lies outside its fitted bounds {bounds}" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()
    # frozen, the fit leaves it alone, so any value the transform accepts stands
    setting = {name: {"value": value, "frozen": True}}
    frozen = write_config(tmp_path / "frozen.yaml", method=method, **{section: setting})
    code, message = run_or_validate(command, frozen, tmp_path / "y", capsys)
    assert code == EXIT_OK, message


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(f"{PARENTAL[:-1]}A,high", id="non-numeric"),
        pytest.param(f"{PARENTAL[:-1]}X,0.5", id="non-canonical"),
        pytest.param(f"{PARENTAL},0.25", id="listed-twice"),
        pytest.param(f"{PARENTAL[:-1]}A,0.5,99", id="two-values"),
    ],
)
@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("table_use", ["oracle", "constraint"])
def test_non_numeric_table_value_is_fixture_error(tmp_path, capsys, command, table_use, row):
    table = tmp_path / "table.csv"
    table.write_text(f"sequence,value\n{PARENTAL},0.5\n{row}\n")
    if table_use == "oracle":
        overrides = {"oracle": {"kind": "fixture", "table": str(table)}}
    else:
        overrides = {"providers": {"constraint_table_path": str(table)}}
    config = write_config(tmp_path / "config.yaml", **overrides)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert "table.csv" in message
    assert "row 3" in message


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_oracle_label_fails_before_round_one(tmp_path, capsys, command, bad):
    pool = _assemble(CampaignConfig.from_yaml(write_config(tmp_path / "synthetic.yaml"))).pool
    bad_seq = pool[4]
    table = tmp_path / "oracle.csv"
    table.write_text(
        "sequence,value\n"
        + "".join(f"{seq},{bad if seq == bad_seq else 0.1 * i}\n" for i, seq in enumerate(pool))
    )
    config = write_config(tmp_path / "config.yaml", oracle={"kind": "fixture", "table": str(table)})
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert bad_seq in message
    assert f"value {bad} is not finite" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "non-canonical", "listed-twice", "short"])
@pytest.mark.parametrize("kind", ["embedding", "coords"])
def test_malformed_feature_fixture_is_fixture_error(tmp_path, capsys, command, bad, kind):
    values = [f"{0.1 * k:.1f}" for k in range(3 * len(PARENTAL))]
    # a bad last value, or a whole bad row
    rows = {
        "non-canonical": f"{PARENTAL[:-1]}X,{','.join(values)}",
        "listed-twice": f"{PARENTAL},{','.join(values)}",
        "short": f"{PARENTAL[:-1]}A,{','.join(values[:-1])}",
    }
    fixture = tmp_path / "features.csv"
    fixture.write_text(
        f"sequence,values\n{PARENTAL},{','.join(values)}\n"
        + rows.get(bad, f"{PARENTAL[:-1]}A,{','.join(values[:-1] + [bad])}")
        + "\n"
    )
    method = "ESM-M" if kind == "embedding" else "IgFold-M"
    providers = {f"{kind}_path": str(fixture)}
    config = write_config(tmp_path / "config.yaml", method=method, providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert "features.csv" in message
    assert "row 3" in message


@pytest.mark.parametrize("command", ["run", "validate"])
def test_collinear_parental_coordinates_fail_before_round_one(tmp_path, capsys, command):
    coords = tmp_path / "coords.csv"
    line = ",".join(f"{i}.0,{2 * i}.0,{3 * i}.0" for i in range(len(PARENTAL)))
    coords.write_text(f"{PARENTAL},{line}\n")
    providers = {"coords_path": str(coords)}
    config = write_config(tmp_path / "config.yaml", method="IgFold-M", providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert "coords.csv" in message
    assert "collinear" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_collinear_variant_coordinates_fail_before_round_one(tmp_path, capsys, command):
    rng = np.random.default_rng(0)
    variant = PARENTAL[:-1] + "W"
    coords = tmp_path / "coords.csv"
    good = ",".join(f"{v:.4f}" for v in rng.standard_normal(3 * len(PARENTAL)))
    line = ",".join(f"{i}.0,{2 * i}.0,{3 * i}.0" for i in range(len(PARENTAL)))
    coords.write_text(f"{PARENTAL},{good}\n{variant},{line}\n")
    providers = {"coords_path": str(coords)}
    config = write_config(tmp_path / "config.yaml", method="IgFold-M", providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert f"coords.csv, sequence '{variant}': points are collinear" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "method, key",
    [
        ("C-OneHot-T", "constraint_pssm_path"),
        ("Kermut-T", "zero_shot_pssm_path"),
        ("Kermut-T", "site_probs_path"),
        ("Kermut-T", "distances_path"),
    ],
)
def test_non_finite_probability_or_distance_is_fixture_error(
    tmp_path, capsys, command, method, key
):
    context = synthetic_structure_context(PARENTAL)
    probs = context.site_probs.copy()
    probs[0, ALPHABET.index(PARENTAL[0])] = np.nan  # the parental residue's site
    distances = context.distances.copy()
    distances[0, 1] = distances[1, 0] = np.nan
    bad, good = tmp_path / "bad.tsv", tmp_path / "good.tsv"
    if key == "distances_path":
        np.savetxt(bad, distances, delimiter="\t")
        np.savetxt(good, context.site_probs, delimiter="\t")
    else:
        np.savetxt(bad, probs, delimiter="\t")
        np.savetxt(good, context.distances, delimiter="\t")
    providers = {key: str(bad)}
    # the other half of a structure context's pair
    pair = {"site_probs_path": "distances_path", "distances_path": "site_probs_path"}
    if key in pair:
        providers[pair[key]] = str(good)
    config = write_config(tmp_path / "config.yaml", method=method, providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert "bad.tsv" in message
    assert "not finite" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "method, keys",
    [
        pytest.param("C-OneHot-T", ["constraint_pssm_path"], id="constraint-pssm"),
        pytest.param("Kermut-T", ["zero_shot_pssm_path"], id="zero-shot"),
        pytest.param("AbSeq-Kermut-T", ["antibody_zero_shot_pssm_path"], id="antibody-zero-shot"),
        pytest.param("Kermut-T", ["site_probs_path", "distances_path"], id="context"),
        pytest.param(
            "AbMPNN-Kermut-T",
            ["antibody_site_probs_path", "antibody_distances_path"],
            id="antibody-context",
        ),
    ],
)
def test_per_site_table_of_the_wrong_length_is_fixture_error(
    tmp_path, capsys, command, method, keys
):
    # a well-formed table for a parental one residue shorter than the configured one
    short = synthetic_structure_context(PARENTAL[:-1])
    providers = {}
    for key in keys:
        path = tmp_path / f"short_{key}.tsv"
        table = short.distances if key.endswith("distances_path") else short.site_probs
        np.savetxt(path, table, delimiter="\t")
        providers[key] = str(path)
    config = write_config(tmp_path / "config.yaml", method=method, providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert f"short_{keys[0]}.tsv" in message
    assert f"has {len(PARENTAL) - 1} sites" in message
    assert f"the parental sequence has {len(PARENTAL)}" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()


@pytest.mark.parametrize("method", ["IgFold-BLO-T", "C-IgFold-BLO-T"])
def test_sum_kernel_method_reads_coordinate_fixture(tmp_path, capsys, method):
    # the sum kernel's coordinates come from the configured fixture provider
    pool = _assemble(CampaignConfig.from_yaml(write_config(tmp_path / "synthetic.yaml"))).pool
    provider = SyntheticFeatureProvider(PARENTAL)
    coords = tmp_path / "coords.csv"
    coords.write_text(
        "".join(
            seq + "," + ",".join(f"{v:.17g}" for v in provider.features(seq).coords) + "\n"
            for seq in [PARENTAL, *pool]
        )
    )
    providers = {"coords_path": str(coords)}
    config = write_config(tmp_path / "config.yaml", method=method, providers=providers)
    assert main(["validate", "--config", str(config)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out
    # a run goes on until the GA proposes a design the fixture does not cover
    code, message = run_or_validate("run", config, tmp_path / "x", capsys)
    assert code == EXIT_FIXTURE
    assert "coordinate fixture has no entry" in message


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "method, keys",
    [
        pytest.param("ESM-M", ["embedding_path"], id="embedding"),
        pytest.param("IgFold-M", ["coords_path"], id="coords"),
        pytest.param("IgFold-ESM-M", ["embedding_path", "coords_path"], id="embedding-coords"),
        pytest.param("Kermut-T", ["site_probs_path", "distances_path"], id="context"),
        pytest.param(
            "AbMPNN-Kermut-T",
            ["antibody_site_probs_path", "antibody_distances_path"],
            id="antibody-context",
        ),
        pytest.param("C-OneHot-T", ["constraint_pssm_path"], id="constraint-pssm"),
        pytest.param("C-OneHot-T", ["constraint_table_path"], id="constraint-table"),
        pytest.param("Kermut-T", ["zero_shot_pssm_path"], id="zero-shot"),
        pytest.param("AbSeq-Kermut-T", ["antibody_zero_shot_pssm_path"], id="antibody-zero-shot"),
    ],
)
def test_set_provider_path_reads_its_fixture(tmp_path, capsys, command, method, keys):
    # a set path selects the fixture, so a missing file is a fixture error, never synthetic data
    providers = {key: str(tmp_path / f"missing_{key}.txt") for key in keys}
    config = write_config(tmp_path / "config.yaml", method=method, providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_FIXTURE if command == "run" else EXIT_VIOLATIONS)
    assert f"missing_{keys[0]}.txt" in message
    assert "does not exist" in message
    assert not (tmp_path / "x" / "rounds.csv").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("prefix", ["", "antibody_"])
@pytest.mark.parametrize("half", ["site_probs_path", "distances_path"])
def test_half_a_structure_context_is_config_error(tmp_path, capsys, command, prefix, half):
    providers = {f"{prefix}{half}": str(tmp_path / "context.tsv")}
    config = write_config(tmp_path / "config.yaml", method="Kermut-T", providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_CONFIG if command == "run" else EXIT_VIOLATIONS)
    assert f"providers.{prefix}site_probs_path" in message
    assert f"providers.{prefix}distances_path" in message


@pytest.mark.parametrize("command", ["run", "validate"])
def test_both_constraint_paths_are_config_error(tmp_path, capsys, command):
    providers = {
        "constraint_pssm_path": str(tmp_path / "pssm.tsv"),
        "constraint_table_path": str(tmp_path / "table.csv"),
    }
    config = write_config(tmp_path / "config.yaml", method="C-OneHot-T", providers=providers)
    code, message = run_or_validate(command, config, tmp_path / "x", capsys)
    assert code == (EXIT_CONFIG if command == "run" else EXIT_VIOLATIONS)
    assert "providers.constraint_pssm_path" in message
    assert "providers.constraint_table_path" in message


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
