import csv
import dataclasses
import gc
import json
import warnings

import numpy as np
import pytest
import yaml

from abbo.campaign import (
    METHOD_REGISTRY,
    AcquiredRecord,
    CampaignConfig,
    FixtureOracle,
    OracleConfig,
    ProtocolConfig,
    ProviderConfig,
    RoundRecord,
    SyntheticOracle,
    _random_mutant,
    generate_pool,
    registered_method_names,
    resolve_method,
    run_campaign,
    validate_campaign,
    write_round_log,
    write_rounds_csv,
)
from abbo.exceptions import ConfigError, FixtureError
from abbo.gaopt import GAConfig
from abbo.sequences import ALPHABET, diff

PARENTAL = "MKTAYIAKQRQISFVKSHFSRQ"

SMALL_PROTOCOL = dict(
    initial_pool_size=40,
    initial_sample_size=10,
    rounds=2,
    batch_size=8,
    drop_count=3,
    repeats=2,
)


def small_config(method="OneHot-T", seed=0, **overrides):
    proto = {**SMALL_PROTOCOL, **overrides.pop("protocol", {})}
    return CampaignConfig(
        parental=PARENTAL,
        method=method,
        seed=seed,
        protocol=ProtocolConfig(**proto),
        ga=GAConfig(population_size=16, generations=4),
        **overrides,
    )


# ---------------------------------------------------------------------------
# registry


def test_registry_contains_the_twelve_surrogates_plus_random():
    expected = {
        "OneHot-T",
        "BLO-T",
        "ESM-M",
        "IgFold-M",
        "IgFold-ESM-M",
        "IgFold-BLO-T",
        "Kermut-T",
        "Kermut-BLO-T",
        "Const-Kermut-T",
        "AbMPNN-Kermut-T",
        "AbSeq-Kermut-T",
        "AbBoth-Kermut-BLO-T",
        "Random",
    }
    assert set(METHOD_REGISTRY) == expected


def test_constrained_prefix_resolution():
    spec, constrained = resolve_method("C-OneHot-T")
    assert spec.name == "OneHot-T"
    assert constrained
    spec, constrained = resolve_method("Kermut-T")
    assert spec.name == "Kermut-T"
    assert not constrained


def test_unknown_method_and_constrained_random_rejected():
    with pytest.raises(ConfigError):
        resolve_method("Bogus-T")
    with pytest.raises(ConfigError):
        resolve_method("C-Random")


def test_registered_names_include_constrained_variants():
    names = registered_method_names()
    assert "C-Kermut-BLO-T" in names
    assert "C-Random" not in names
    assert len(names) == 13 + 12


# ---------------------------------------------------------------------------
# oracles


class TestSyntheticOracle:
    def test_parental_scores_exactly_baseline(self):
        affinity = SyntheticOracle(PARENTAL, kind="affinity", seed=0)
        stability = SyntheticOracle(PARENTAL, kind="stability", seed=0)
        assert affinity.value(PARENTAL) == 0.0
        assert stability.value(PARENTAL) == 70.0

    def test_additive_component_reads_site_table(self):
        oracle = SyntheticOracle(PARENTAL, seed=1)
        variant = "W" + PARENTAL[1:]
        expected = oracle.site_table[0, ALPHABET.index("W")]
        assert oracle.additive_component(variant) == pytest.approx(expected)

    def test_single_site_scan_matches_table(self):
        # the additive part of a single mutant is exactly one table entry:
        # scan a full site and compare all 20 values
        oracle = SyntheticOracle(PARENTAL, seed=2)
        site = 4
        for k, aa in enumerate(ALPHABET):
            variant = PARENTAL[:site] + aa + PARENTAL[site + 1 :]
            assert oracle.additive_component(variant) == pytest.approx(
                oracle.site_table[site, k]
            )

    def test_epistatic_pairs_fire_only_together(self):
        oracle = SyntheticOracle(PARENTAL, seed=3)
        i, a, j, b, w = oracle.pairs[0]
        single = list(PARENTAL)
        single[i] = ALPHABET[a]
        both = list(single)
        both[j] = ALPHABET[b]
        gap_single = oracle.value("".join(single)) - oracle.additive_component(
            "".join(single)
        )
        gap_both = oracle.value("".join(both)) - oracle.additive_component("".join(both))
        # the pair bonus w appears only when both residues are present; other
        # pairs could overlap, so compare the two directly
        matched_single = [
            p[4] for p in oracle.pairs
            if "".join(single)[p[0]] == ALPHABET[p[1]] and "".join(single)[p[2]] == ALPHABET[p[3]]
        ]
        matched_both = [
            p[4] for p in oracle.pairs
            if "".join(both)[p[0]] == ALPHABET[p[1]] and "".join(both)[p[2]] == ALPHABET[p[3]]
        ]
        assert w in matched_both
        assert w not in matched_single

    def test_deterministic_across_instances(self):
        a = SyntheticOracle(PARENTAL, seed=5)
        b = SyntheticOracle(PARENTAL, seed=5)
        seqs = ["W" + PARENTAL[1:], PARENTAL[:-1] + "W"]
        assert all(a.value(s) == b.value(s) for s in seqs)
        c = SyntheticOracle(PARENTAL, seed=6)
        assert any(a.value(s) != c.value(s) for s in seqs)

    def test_value_matches_formula_over_full_features(self):
        # the oracle reads embeddings alone; its labels must equal the formula
        # written against the embeddings of full feature bundles
        from conftest import random_mutants

        from abbo.features import SyntheticFeatureProvider

        for kind in SyntheticOracle.KINDS:
            oracle = SyntheticOracle(PARENTAL, kind=kind, seed=8)
            provider = SyntheticFeatureProvider(PARENTAL, seed=0, embedding_dim=64)
            parental_embedding = provider.features(PARENTAL).embedding
            for seq in random_mutants(np.random.default_rng(1), PARENTAL, 25, max_sites=5):
                expected = oracle.baseline + oracle.additive_component(seq)
                for i, a, j, b, w in oracle.pairs:
                    if seq[i] == ALPHABET[a] and seq[j] == ALPHABET[b]:
                        expected += w
                shift = provider.features(seq).embedding - parental_embedding
                expected += oracle.smooth_scale * float(shift @ oracle._direction)
                assert oracle.value(seq) == expected
        assert oracle._embedder.computations == 0  # no structure was built

    def test_site_argmax_sequence_maximizes_additive_part(self):
        oracle = SyntheticOracle(PARENTAL, seed=7)
        best = oracle.site_argmax_sequence()
        rng = np.random.default_rng(0)
        from conftest import random_mutants

        best_additive = oracle.additive_component(best)
        for other in random_mutants(rng, PARENTAL, 50):
            assert oracle.additive_component(other) <= best_additive + 1e-12

    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            SyntheticOracle(PARENTAL, kind="potency")


def test_fixture_oracle():
    oracle = FixtureOracle({"ACD": 1.5, "ACY": -2.0})
    assert oracle.value("ACD") == 1.5
    with pytest.raises(FixtureError):
        oracle.value("AAA")
    with pytest.raises(FixtureError):
        FixtureOracle({})


# ---------------------------------------------------------------------------
# configuration


def test_protocol_arithmetic():
    proto = ProtocolConfig(**SMALL_PROTOCOL)
    assert proto.kept_per_round == 5
    assert proto.expected_size(0) == 10
    assert proto.expected_size(2) == 20


def test_protocol_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(batch_size=10, drop_count=10)
    with pytest.raises(ConfigError):
        ProtocolConfig(initial_pool_size=5, initial_sample_size=10)
    with pytest.raises(ConfigError):
        ProtocolConfig(rounds=0)


def test_default_protocol_matches_reported_numbers():
    proto = ProtocolConfig()
    assert proto.initial_pool_size == 159
    assert proto.initial_sample_size == 50
    assert proto.rounds == 9
    assert proto.batch_size == 80
    assert proto.drop_count == 30
    assert proto.repeats == 3
    assert proto.expected_size(9) == 500


def test_config_from_yaml_roundtrip(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "parental": PARENTAL,
                "method": "C-BLO-T",
                "seed": 11,
                "protocol": dict(SMALL_PROTOCOL),
                "ga": {"population_size": 16, "generations": 3},
                "gp": {"restarts": 2},
                "kernel": {"variance": {"value": 1.5, "frozen": True}},
            }
        )
    )
    config = CampaignConfig.from_yaml(path)
    assert config.method == "C-BLO-T"
    assert config.seed == 11
    assert config.gp.restarts == 2
    assert config.kernel_overrides["variance"]["frozen"] is True


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"parental": PARENTAL, "trails": 3}))
    with pytest.raises(ConfigError, match="trails"):
        CampaignConfig.from_yaml(path)
    path.write_text(
        yaml.safe_dump({"parental": PARENTAL, "protocol": {"rounds": 2, "budget": 9}})
    )
    with pytest.raises(ConfigError):
        CampaignConfig.from_yaml(path)


def test_config_requires_parental(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"method": "OneHot-T"}))
    with pytest.raises(ConfigError, match="parental"):
        CampaignConfig.from_yaml(path)


def test_fixture_root_env_var(tmp_path, monkeypatch):
    fixture_dir = tmp_path / "fixtures"
    fixture_dir.mkdir()
    (fixture_dir / "oracle.csv").write_text(f"{PARENTAL},1.0\n")
    config_path = tmp_path / "elsewhere" / "config.yaml"
    config_path.parent.mkdir()
    config_path.write_text(
        yaml.safe_dump(
            {
                "parental": PARENTAL,
                "oracle": {"kind": "fixture", "table": "oracle.csv"},
            }
        )
    )
    monkeypatch.setenv("ABBO_FIXTURE_ROOT", str(fixture_dir))
    config = CampaignConfig.from_yaml(config_path)
    assert config.oracle.table_path == str(fixture_dir / "oracle.csv")


@pytest.mark.parametrize("fixture_root", [False, True])
def test_every_provider_path_key_is_resolved(tmp_path, monkeypatch, fixture_root):
    path_keys = [f.name for f in dataclasses.fields(ProviderConfig) if f.name.endswith("_path")]
    assert {"embedding_path", "site_probs_path", "antibody_zero_shot_pssm_path"} <= set(path_keys)
    config_path = tmp_path / "configs" / "config.yaml"
    config_path.parent.mkdir()
    config_path.write_text(
        yaml.safe_dump(
            {"parental": PARENTAL, "providers": {key: f"{key}.npy" for key in path_keys}}
        )
    )
    base = config_path.parent
    if fixture_root:
        base = tmp_path / "fixtures"
        monkeypatch.setenv("ABBO_FIXTURE_ROOT", str(base))
    else:
        monkeypatch.delenv("ABBO_FIXTURE_ROOT", raising=False)
    providers = CampaignConfig.from_yaml(config_path).providers
    for key in path_keys:
        assert getattr(providers, key) == str(base / f"{key}.npy"), key


# ---------------------------------------------------------------------------
# pools


def test_pool_is_unique_low_order_mutants(rng):
    pool = generate_pool(PARENTAL, 159, rng, max_sites=2)
    assert len(pool) == len(set(pool)) == 159
    assert PARENTAL not in pool
    for seq in pool:
        assert 1 <= len(diff(PARENTAL, seq).entries) <= 2


def test_pool_depends_only_on_rng_state():
    a = generate_pool(PARENTAL, 30, np.random.default_rng(42))
    b = generate_pool(PARENTAL, 30, np.random.default_rng(42))
    assert a == b


def test_pool_equals_the_plain_rejection_loop_over_the_parental():
    def rejection_loop(parental, size, rng, max_sites):
        pool, seen = [], {parental}
        while len(pool) < size:
            candidate = _random_mutant(parental, max_sites, rng)
            if candidate not in seen:
                seen.add(candidate)
                pool.append(candidate)
        return pool

    cases = [(PARENTAL, size, seed) for size in (30, 159, 400) for seed in range(10)]
    cases += [("ACD", 1140, seed) for seed in range(3)]  # every <= 2-site mutant of ACD
    for parental, size, seed in cases:
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pool = generate_pool(parental, size, rng, max_sites=2)
        assert pool == rejection_loop(parental, size, expected_rng, 2)
        assert rng.random() == expected_rng.random()  # the same draws were taken


def test_pool_size_feasibility_guard():
    with pytest.raises(ConfigError):
        generate_pool("ACD", 10**9, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# campaign runs


class TestCampaignRuns:
    def test_dataset_growth_and_monotonicity(self):
        result = run_campaign(small_config())
        proto = result.protocol
        for log in result.logs:
            sizes = [rec.n_data for rec in log.records]
            assert sizes == [proto.expected_size(k) for k in range(proto.rounds + 1)]
            best = log.best_so_far_series()
            assert np.all(np.diff(best) >= 0)

    def test_same_seed_reproduces_exactly(self):
        a = run_campaign(small_config(seed=5))
        b = run_campaign(small_config(seed=5))
        for log_a, log_b in zip(a.logs, b.logs):
            assert np.array_equal(log_a.best_so_far_series(), log_b.best_so_far_series())
            for rec_a, rec_b in zip(log_a.records, log_b.records):
                assert [x.sequence for x in rec_a.acquired] == [
                    x.sequence for x in rec_b.acquired
                ]

    def test_different_seeds_differ(self):
        a = run_campaign(small_config(seed=1))
        b = run_campaign(small_config(seed=2))
        assert not np.array_equal(
            a.logs[0].best_so_far_series(), b.logs[0].best_so_far_series()
        )

    def test_repeats_share_pool_but_not_samples(self):
        result = run_campaign(small_config())
        first_rounds = [log.records[1] for log in result.logs]
        seqs = [{a.sequence for a in rec.acquired} for rec in first_rounds]
        assert seqs[0] != seqs[1]

    def test_acquired_batch_bookkeeping(self):
        result = run_campaign(small_config())
        proto = result.protocol
        for log in result.logs:
            for rec in log.records[1:]:
                assert len(rec.acquired) == proto.batch_size
                dropped = [a for a in rec.acquired if a.dropped]
                assert len(dropped) == proto.drop_count
                for acq in rec.acquired:
                    assert (acq.oracle_value is None) == acq.dropped
                assert rec.batch_mean_likelihood is not None
                assert rec.rmsd_mean is not None and rec.rmsd_max is not None
                assert rec.rmsd_max >= rec.rmsd_mean >= 0.0

    def test_random_method_has_no_surrogate_fields(self):
        result = run_campaign(small_config(method="Random"))
        rec = result.logs[0].records[1]
        assert rec.hyperparameters is None
        assert all(a.mean is None and a.r is None for a in rec.acquired)
        assert rec.batch_mean_likelihood is not None

    def test_constrained_method_logs_likelihood_objective(self):
        result = run_campaign(small_config(method="C-OneHot-T"))
        rec = result.logs[0].records[1]
        assert all(a.likelihood is not None for a in rec.acquired)

    def test_zero_shot_mean_methods_run(self):
        result = run_campaign(small_config(method="Kermut-T"))
        hyper = result.logs[0].records[1].hyperparameters
        assert "mean.alpha" in hyper
        assert "kernel.mix" in hyper

    def test_frozen_config_overrides_hold_in_every_fit(self):
        # OneHot-T takes the spectral fit, so this covers frozen parameters there
        config = small_config(
            kernel_overrides={"variance": {"value": 1.5, "frozen": True}},
            mean_overrides={"beta": {"value": 0.25, "frozen": True}},
        )
        result = run_campaign(config)
        fitted = [rec.hyperparameters for log in result.logs for rec in log.records[1:]]
        assert len(fitted) == result.protocol.repeats * result.protocol.rounds
        for hyper in fitted:
            assert hyper["kernel.variance"] == 1.5
            assert hyper["mean.beta"] == 0.25

    def test_front_dumps_are_closed_and_complete(self, tmp_path):
        config = small_config(dump_fronts=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_campaign(config, front_dump_dir=tmp_path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        proto = config.protocol
        files = sorted(tmp_path.glob("fronts_rep*_round*.csv"))
        assert len(files) == proto.repeats * proto.rounds
        for path in files:
            rows = list(csv.reader(path.read_text().splitlines()))
            assert rows[0] == ["generation", "sequence", "objectives"]
            generations = {int(row[0]) for row in rows[1:]}
            assert generations == set(range(config.ga.generations))
            assert all(len(row[2].split()) == 2 for row in rows[1:])

    def test_fixture_oracle_campaign_requires_coverage(self, tmp_path):
        # a fixture oracle that misses a proposed sequence must fail loudly
        table_path = tmp_path / "oracle.csv"
        table_path.write_text(f"{PARENTAL},0.0\n")
        config = small_config(
            oracle=OracleConfig(kind="fixture", table_path=str(table_path))
        )
        with pytest.raises(FixtureError):
            run_campaign(config)


# ---------------------------------------------------------------------------
# validation and writers


def test_validate_passes_on_good_config():
    assert validate_campaign(small_config()) == []


def test_validate_reports_missing_fixture():
    config = small_config(
        oracle=OracleConfig(kind="fixture", table_path="/nonexistent/oracle.csv")
    )
    problems = validate_campaign(config)
    assert len(problems) == 1
    assert "/nonexistent/oracle.csv" in problems[0]


def test_validate_warns_about_fixture_oracle(tmp_path):
    # a table covering the whole initial pool: the dry run succeeds, but the
    # first round's designs lie outside it
    from abbo.campaign import _TAG_POOL, _derived_rng

    config = small_config(seed=4)
    pool = generate_pool(PARENTAL, 40, _derived_rng(config.seed, _TAG_POOL))
    table_path = tmp_path / "oracle.csv"
    table_path.write_text("".join(f"{seq},{k * 0.1}\n" for k, seq in enumerate(pool)))
    config.oracle = OracleConfig(kind="fixture", table_path=str(table_path))
    problems = validate_campaign(config)
    assert len(problems) == 1
    assert "fixture oracle" in problems[0] and "40 sequences" in problems[0]
    with pytest.raises(FixtureError, match="no value for sequence"):
        run_campaign(config)


@pytest.mark.parametrize("method", ["OneHot-T", "C-Kermut-T"])
def test_validate_and_run_fit_the_same_initial_data(monkeypatch, method):
    # validate's dry-run fit and the first fit of repeat 0 see the same start
    import abbo.campaign as campaign

    seen = []
    real_fit = campaign.fit_gp

    def recording_fit(dataset, *args, **kwargs):
        seen.append(dataset)
        return real_fit(dataset, *args, **kwargs)

    monkeypatch.setattr(campaign, "fit_gp", recording_fit)
    config = small_config(method=method, seed=7, protocol={"repeats": 1, "rounds": 1})
    assert validate_campaign(config) == []
    run_campaign(config)
    assert len(seen) == 2
    dry, first = seen
    assert dry.sequences == first.sequences
    assert np.array_equal(dry.y, first.y)
    a, b = dry.inputs, first.inputs
    assert a.vectors.keys() == b.vectors.keys()
    assert all(np.array_equal(a.vectors[k], b.vectors[k]) for k in a.vectors)
    assert np.array_equal(a.residues, b.residues) and a.parental == b.parental


def test_validate_warns_about_small_ga_population():
    config = small_config(protocol={"batch_size": 20, "drop_count": 3})
    problems = validate_campaign(config)
    assert any("padding" in p for p in problems)


def test_rounds_csv_layout(tmp_path):
    result = run_campaign(small_config())
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, result)
    lines = path.read_text().strip().splitlines()
    proto = result.protocol
    assert len(lines) == 1 + proto.repeats * (proto.rounds + 1)
    header = lines[0].split(",")
    assert header[:5] == ["method", "repeat", "round", "n_data", "best_so_far"]


@pytest.mark.parametrize("method", ["OneHot-T", "Random"])
def test_round_log_rebuilds_every_record(tmp_path, method):
    result = run_campaign(small_config(method=method))
    path = tmp_path / "rounds.jsonl"
    write_round_log(path, result)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    pairs = [(log, rec) for log in result.logs for rec in log.records]
    assert len(lines) == len(pairs)
    if method == "Random":
        # no surrogate: nothing fitted, and no portfolio return or weight
        assert all(line["hyperparameters"] is None for line in lines)
        assert all(line["log_marginal_likelihood"] is None for line in lines)
        assert all(a["r"] is None and a["z"] is None for line in lines for a in line["acquired"])
    else:
        assert all(line["hyperparameters"] for line in lines if line["round_index"] > 0)
    for line, (log, rec) in zip(lines, pairs):
        head = {key: line.pop(key) for key in list(line)[:3]}
        assert head == {"method": log.method, "seed": log.seed, "repeat": log.repeat}
        line["acquired"] = [AcquiredRecord(**a) for a in line["acquired"]]
        assert RoundRecord(**line) == rec
