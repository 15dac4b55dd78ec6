import hashlib
import json

import numpy as np
import pytest

from abbo.gaopt import (
    GAConfig,
    _rank_population,
    _survivors,
    crowding_distance,
    evolve,
    non_dominated_sort,
)
from abbo.sequences import ALPHABET, diff

from conftest import batched, brute_force_fronts

PARENTAL = "MKTAYIAKQRQISFVKSH"


# ---------------------------------------------------------------------------
# sorting and crowding


def test_non_dominated_sort_matches_brute_force(rng):
    for _ in range(60):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(2, 4))
        objs = rng.standard_normal((n, m))
        if rng.random() < 0.3:
            objs = np.round(objs, 1)  # force ties and duplicates
        got = [sorted(f.tolist()) for f in non_dominated_sort(objs)]
        want = brute_force_fronts(objs)
        assert got == want


@pytest.mark.parametrize("m", [2, 3])
def test_non_dominated_sort_matches_brute_force_at_full_union_size(rng, m):
    objs = np.round(rng.standard_normal((256, m)), 1)  # ties and duplicates
    got = [sorted(f.tolist()) for f in non_dominated_sort(objs)]
    assert got == brute_force_fronts(objs)


def test_sort_covers_every_index_once(rng):
    objs = rng.standard_normal((25, 3))
    fronts = non_dominated_sort(objs)
    flat = np.concatenate(fronts)
    assert sorted(flat.tolist()) == list(range(25))


def test_single_point_is_front_zero():
    fronts = non_dominated_sort(np.array([[1.0, 2.0]]))
    assert len(fronts) == 1 and fronts[0].tolist() == [0]


def test_duplicate_points_share_a_front():
    objs = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    fronts = non_dominated_sort(objs)
    assert fronts[0].tolist() == [0, 1]
    assert fronts[1].tolist() == [2]


def test_crowding_distance_hand_example():
    # four collinear points: boundaries infinite, interior distances from the
    # normalized neighbor gaps summed over both (perfectly correlated) axes
    front = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [6.0, 6.0]])
    out = crowding_distance(front)
    assert np.isinf(out[0]) and np.isinf(out[3])
    assert out[1] == pytest.approx(2 * (3.0 - 0.0) / 6.0)
    assert out[2] == pytest.approx(2 * (6.0 - 1.0) / 6.0)


def test_crowding_distance_small_fronts_all_infinite():
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))


def test_crowding_distance_flat_objective_contributes_nothing():
    front = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    out = crowding_distance(front)
    assert out[1] == pytest.approx((2.0 - 0.0) / 2.0)


def _per_front_ranking(objs):
    ranks = np.empty(len(objs), dtype=int)
    crowd = np.empty(len(objs))
    for rank, front in enumerate(non_dominated_sort(objs)):
        ranks[front] = rank
        crowd[front] = crowding_distance(objs[front])
    return ranks, crowd


def _assert_ranking_matches_reference(objs):
    ranks, crowd = _rank_population(objs)
    want_ranks, want_crowd = _per_front_ranking(objs)
    assert np.array_equal(ranks, want_ranks)
    assert np.array_equal(crowd, want_crowd)  # bitwise, infinities included


def test_one_pass_ranking_equals_per_front_reference(rng):
    for _ in range(200):
        n = int(rng.integers(1, 257))
        m = int(rng.integers(2, 4))
        objs = rng.standard_normal((n, m))
        if rng.random() < 0.5:
            objs = np.round(objs, int(rng.integers(0, 2)))  # ties and duplicates
        if rng.random() < 0.2:
            objs[:, rng.integers(m)] = 1.5  # a flat column
        _assert_ranking_matches_reference(objs)


def test_survivors_keep_their_union_ranks(rng):
    # the survivors' ranks are taken from the union instead of sorting them
    # again; they must be the ranks a fresh sort of the survivors gives
    for _ in range(200):
        n = int(rng.integers(2, 257))
        m = int(rng.integers(2, 4))
        objs = rng.standard_normal((n, m))
        if rng.random() < 0.5:
            objs = np.round(objs, int(rng.integers(0, 2)))  # ties and duplicates
        if rng.random() < 0.3:
            objs[rng.integers(n, size=n // 3)] = objs[rng.integers(n)]  # repeated rows
        size = int(rng.integers(1, n + 1))
        keep, ranks = _survivors(objs, size)
        fresh_ranks, fresh_crowd = _rank_population(objs[keep])
        assert np.array_equal(ranks, fresh_ranks)
        reused_ranks, reused_crowd = _rank_population(objs[keep], ranks)
        assert np.array_equal(reused_ranks, fresh_ranks)
        assert np.array_equal(reused_crowd, fresh_crowd)


def test_one_pass_ranking_on_small_and_flat_fronts():
    # fronts of one, two and three points, then a front of three equal points
    objs = np.array(
        [[9.0, 9.0], [8.0, 7.0], [7.0, 8.0], [6.0, 2.0], [4.0, 4.0], [2.0, 6.0]]
        + [[1.0, 1.0]] * 3
    )
    assert [f.size for f in non_dominated_sort(objs)] == [1, 2, 3, 3]
    _assert_ranking_matches_reference(objs)
    _assert_ranking_matches_reference(np.ones((5, 3)))
    _assert_ranking_matches_reference(np.array([[0.5, -1.0]]))


def test_residue_index_flip_picks_the_choices_list_entry():
    # a substitution draws r from 19 and writes r + (r >= current): the r-th
    # residue other than the current one
    for cur in range(len(ALPHABET)):
        others = [aa for aa in ALPHABET if aa != ALPHABET[cur]]
        for r in range(len(others)):
            assert ALPHABET[r + (r >= cur)] == others[r]


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        GAConfig(population_size=3)
    with pytest.raises(ValueError):
        GAConfig(population_size=7)  # must be even
    with pytest.raises(ValueError):
        GAConfig(generations=0)
    with pytest.raises(ValueError):
        GAConfig(crossover_probability=1.5)
    with pytest.raises(ValueError):
        GAConfig(objective_set="nope")
    with pytest.raises(ValueError):
        GAConfig(mutation_rate=0.0)


# ---------------------------------------------------------------------------
# evolution


def _additive_objective(parental):
    """Two cooperating objectives with a known optimum at all-W."""

    def evaluate(seq: str) -> np.ndarray:
        score = sum(1.0 for c in seq if c == "W")
        dist = sum(1.0 for a, b in zip(seq, parental) if a != b)
        return np.array([score, 0.1 * dist])

    return evaluate


def test_evolve_improves_and_history_is_monotone(rng):
    config = GAConfig(population_size=32, generations=20, seed=7)
    result = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    history = result.history
    assert history.shape == (21, 2)
    # elitism: the per-objective best can never regress
    assert np.all(np.diff(history, axis=0) >= -1e-12)
    assert history[-1, 0] > history[0, 0]


def test_evolve_is_deterministic(rng):
    config = GAConfig(population_size=16, generations=8, seed=3)
    a = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    b = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    assert [s for s, _ in a.front] == [s for s, _ in b.front]
    assert np.array_equal(a.history, b.history)
    c = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), GAConfig(16, 8, seed=4))
    assert not np.array_equal(a.history, c.history)


def test_evolve_sorts_only_the_initial_population_and_each_union(monkeypatch):
    from abbo import gaopt

    sorted_sizes = []
    real = gaopt.non_dominated_sort

    def counting(objs):
        sorted_sizes.append(len(objs))
        return real(objs)

    monkeypatch.setattr(gaopt, "non_dominated_sort", counting)
    evolve(PARENTAL, batched(_additive_objective(PARENTAL)), GAConfig(16, 5, seed=3))
    assert sorted_sizes == [16] + [32] * 5


def test_front_is_mutually_non_dominating(rng):
    config = GAConfig(population_size=24, generations=10, seed=5)
    result = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    objs = np.stack([o for _, o in result.front])
    fronts = non_dominated_sort(objs)
    assert len(fronts) == 1


def test_exclude_is_respected(rng):
    config = GAConfig(population_size=16, generations=6, seed=1)
    first = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    seen = {s for s, _ in first.front}
    second = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config, exclude=seen)
    assert not seen & {s for s, _ in second.front}


def test_seed_sequences_join_the_initial_population(rng):
    # seeding with a near-optimal individual must show up in generation zero's
    # recorded best
    good = "W" * len(PARENTAL)
    config = GAConfig(population_size=16, generations=1, seed=2)
    seeded = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config, seed_sequences=[good])
    assert seeded.history[0, 0] == pytest.approx(len(PARENTAL))


def test_max_mutations_cap_enforced(rng):
    config = GAConfig(population_size=16, generations=10, seed=6, max_mutations=2)
    result = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    for seq, _ in result.front:
        assert len(diff(PARENTAL, seq).entries) <= 2


def test_front_and_ranked_are_unique(rng):
    config = GAConfig(population_size=16, generations=5, seed=9)
    result = evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config)
    front_seqs = [s for s, _ in result.front]
    ranked_seqs = [s for s, _, _, _ in result.ranked]
    assert len(front_seqs) == len(set(front_seqs))
    assert len(ranked_seqs) == len(set(ranked_seqs))
    # the front is exactly the rank-zero prefix of the ranked list
    ranks = [r for _, _, r, _ in result.ranked]
    assert ranks == sorted(ranks)
    assert set(front_seqs) <= set(ranked_seqs)


def test_objective_arity_checked(rng):
    config = GAConfig(population_size=8, generations=2, objective_set="mean_std")

    def three_objectives(seq):
        return np.zeros(3)

    with pytest.raises(ValueError):
        evolve(PARENTAL, batched(three_objectives), config)


def test_nonfinite_objective_rejected(rng):
    config = GAConfig(population_size=8, generations=2)

    def bad(seq):
        return np.array([np.nan, 0.0])

    with pytest.raises(ValueError):
        evolve(PARENTAL, batched(bad), config)


def test_front_writer_called_per_generation(rng):
    calls = []

    def writer(generation, seqs, objs):
        calls.append((generation, len(seqs), objs.shape[1]))

    config = GAConfig(population_size=16, generations=4, seed=11)
    evolve(PARENTAL, batched(_additive_objective(PARENTAL)), config, front_writer=writer)
    assert [c[0] for c in calls] == [0, 1, 2, 3]
    assert all(c[2] == 2 for c in calls)


# ---------------------------------------------------------------------------
# the batch evaluator contract


def test_evaluate_many_is_called_once_per_generation_with_new_sequences_only():
    calls: list[list[str]] = []
    additive = _additive_objective(PARENTAL)

    def evaluate_many(seqs):
        calls.append(list(seqs))
        return np.array([additive(s) for s in seqs])

    config = GAConfig(population_size=16, generations=12, seed=5, mutation_rate=0.02)
    result = evolve(PARENTAL, evaluate_many, config, seed_sequences=[PARENTAL])
    assert 2 <= len(calls) <= config.generations + 1
    received = [seq for batch in calls for seq in batch]
    # no sequence is asked for twice, within one call or across calls
    assert len(received) == len(set(received))
    assert result.evaluations == len(received)


@pytest.mark.parametrize(
    "reshape",
    [
        pytest.param(lambda rows: rows[:, :1], id="too-few-objectives"),
        pytest.param(lambda rows: np.hstack([rows, rows]), id="too-many-objectives"),
        pytest.param(lambda rows: rows[:-1], id="too-few-rows"),
        pytest.param(lambda rows: rows.ravel(), id="flat"),
    ],
)
def test_wrong_batch_shape_names_a_sequence(reshape):
    additive = batched(_additive_objective(PARENTAL))
    config = GAConfig(population_size=8, generations=2, seed=1)
    with pytest.raises(ValueError, match=PARENTAL):
        evolve(PARENTAL, lambda seqs: reshape(additive(seqs)), config)


def test_non_finite_row_names_its_sequence():
    additive = _additive_objective(PARENTAL)
    bad: list[str] = []

    def evaluate_many(seqs):
        rows = np.array([additive(s) for s in seqs])
        if len(seqs) > 3 and not bad:  # spoil one row of the first batch
            bad.append(seqs[3])
            rows[3, 1] = np.inf
        return rows

    config = GAConfig(population_size=8, generations=2, seed=1)
    with pytest.raises(ValueError, match="non-finite") as err:
        evolve(PARENTAL, evaluate_many, config)
    assert repr(bad[0]) in str(err.value)


# ---------------------------------------------------------------------------
# golden runs: a whole EvolveResult and every front_writer call, hashed


def _golden_objective(parental: str, n_objectives: int):
    """Conflicting objectives rounded to one decimal, so fronts share values:
    two random per-site residue tables and minus the mutation count."""
    tables = np.random.default_rng(0).standard_normal((2, len(parental), len(ALPHABET)))
    sites = np.arange(len(parental))

    def evaluate(seq: str) -> np.ndarray:
        idx = [ALPHABET.index(ch) for ch in seq]
        row = [
            round(float(tables[0, sites, idx].sum()), 1),
            -float(sum(a != b for a, b in zip(seq, parental))),
            round(float(tables[1, sites, idx].sum()), 1),
        ]
        return np.array(row[:n_objectives])

    return evaluate


GA_GOLDEN_CASES = {
    # default crossover, no cap, seeds and an exclude set, two objectives
    "uncapped-k2": (
        PARENTAL,
        GAConfig(population_size=16, generations=6, seed=1),
        ["MKTAYIAKQRQISFVKSW", "WKTAYIAKQRQISFVKSH"],
        {PARENTAL, "MKTAYIAKQRQISFVKSW"},
    ),
    # no crossover, a low flip rate and a cap of two: unflipped children copy
    # their parents and are re-mutated as duplicates; repair trims the rest
    "cap2-nocross-k3": (
        PARENTAL,
        GAConfig(
            population_size=16,
            generations=6,
            seed=2,
            mutation_rate=0.05,
            crossover_probability=0.0,
            max_mutations=2,
            objective_set="mean_std_likelihood",
        ),
        ["MKTAYIAKQRQISFVKWW", "MKTAYIAKQRQISWWWWW"],  # the second is over the cap
        (),
    ),
    # every pair crosses over at a high flip rate, three objectives
    "fullcross-k3": (
        PARENTAL,
        GAConfig(
            population_size=20,
            generations=5,
            seed=3,
            mutation_rate=0.5,
            crossover_probability=1.0,
            objective_set="mean_std_likelihood",
        ),
        [],
        {PARENTAL},
    ),
    # a five-residue parental at a high flip rate: the initial population
    # repeats a mutant, and capped children collide with each other
    "short-cap2-k2": (
        "MKTAY",
        GAConfig(
            population_size=24,
            generations=5,
            seed=4,
            mutation_rate=0.4,
            crossover_probability=1.0,
            max_mutations=2,
        ),
        ["MKTAW"],
        {"MKTAY", "MKTAW"},
    ),
}

# Pinned before the GA moved to residue-index arrays. A change that moves one
# must say so; print the new values with
#     PYTHONPATH=src python3 tests/test_gaopt.py
GA_GOLDEN = {
    "uncapped-k2": "3695c07ea71c3b19",
    "cap2-nocross-k3": "e25a86f259ef74ff",
    "fullcross-k3": "fc458816fbf56ce7",
    "short-cap2-k2": "da49f7fad587052a",
}


def ga_digest(case: str) -> str:
    """sha256 prefix of an EvolveResult and the front_writer calls of its run."""
    parental, config, seeds, exclude = GA_GOLDEN_CASES[case]
    calls = []

    def writer(generation, seqs, objs):
        calls.append([generation, list(seqs), objs.tobytes().hex()])

    n_objectives = 2 if config.objective_set == "mean_std" else 3
    result = evolve(
        parental,
        batched(_golden_objective(parental, n_objectives)),
        config,
        exclude=exclude,
        seed_sequences=seeds,
        front_writer=writer,
    )
    payload = {
        "ranked": [
            [seq, objs.tobytes().hex(), rank, repr(crowd)]
            for seq, objs, rank, crowd in result.ranked
        ],
        "front": [[seq, objs.tobytes().hex()] for seq, objs in result.front],
        "history": result.history.tobytes().hex(),
        "evaluations": result.evaluations,
        "front_writer": calls,
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GA_GOLDEN))
def test_ga_golden_run(case):
    assert ga_digest(case) == GA_GOLDEN[case]


if __name__ == "__main__":
    print("GA_GOLDEN = {")
    for case in GA_GOLDEN:
        print(f"    {case!r}: {ga_digest(case)!r},")
    print("}")
