"""NSGA-II style multi-objective search over fixed-length sequence space.

All objectives are maximized. The optimizer is deliberately generic: it knows
nothing about GPs or likelihoods, only that `evaluate_many` maps a list of
sequences to one fixed-length objective row each, deterministically. It is
called once per generation with every new sequence at once, so a campaign can
score a whole generation with one representation step and one posterior
predict.

Inside `evolve` the population and its offspring are (N, L) arrays of residue
indices into `ALPHABET`: crossover is one `np.where` per pair, a substitution
rewrites one entry, and duplicates are found by row bytes. Sequences appear
only at the edges: the seeds and exclusions going in, the evaluator and its
cache, the front writer and the result. Ranking is array code too: (N, N)
domination per objective, and crowding for every front in one sorted pass
per objective. Only each generation's union is sorted into fronts: the
survivors keep their union ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .exceptions import ConfigError
from .sequences import ALPHABET, residue_indices, validate_sequence

__all__ = [
    "GAConfig",
    "EvolveResult",
    "non_dominated_sort",
    "crowding_distance",
    "evolve",
]

OBJECTIVE_SETS = ("mean_std", "mean_std_likelihood")

_LETTERS = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)


@dataclass
class GAConfig:
    """Knobs for one evolve() run.

    `mutation_rate` of None means one expected substitution per child (1/L).
    `objective_set` is carried for campaign bookkeeping (it decides what the
    evaluator computes); evolve() itself only checks the evaluator's output
    width.
    """

    population_size: int = 128
    generations: int = 50
    mutation_rate: float | None = None
    crossover_probability: float = 0.9
    max_mutations: int | None = None
    objective_set: str = "mean_std"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigError(
                f"ga.population_size must be an even number >= 4, got {self.population_size}"
            )
        if self.generations < 1:
            raise ConfigError(f"ga.generations must be >= 1, got {self.generations}")
        if self.mutation_rate is not None and not 0.0 < self.mutation_rate <= 1.0:
            raise ConfigError(f"ga.mutation_rate must lie in (0, 1], got {self.mutation_rate}")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ConfigError(
                f"ga.crossover_probability must lie in [0, 1], got {self.crossover_probability}"
            )
        if self.max_mutations is not None and self.max_mutations < 1:
            raise ConfigError(f"ga.max_mutations must be >= 1, got {self.max_mutations}")
        if self.objective_set not in OBJECTIVE_SETS:
            raise ConfigError(
                f"ga.objective_set must be one of {OBJECTIVE_SETS}, got {self.objective_set!r}"
            )


def non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Fronts of indices under maximization dominance.

    Front 0 holds the non-dominated points; each later front is non-dominated
    once the earlier ones are removed. x dominates y when x >= y in every
    objective and x > y in at least one.
    """
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValueError(f"expected a nonempty (n, m) objective matrix, got {objs.shape}")
    n = objs.shape[0]
    ge = np.ones((n, n), dtype=bool)
    gt = np.zeros((n, n), dtype=bool)
    for col in objs.T:
        ge &= col[:, None] >= col[None, :]
        gt |= col[:, None] > col[None, :]
    dominates = ge & gt

    dominated_count = dominates.sum(axis=0)
    fronts: list[np.ndarray] = []
    current = np.nonzero(dominated_count == 0)[0]
    assigned = 0
    while current.size:
        fronts.append(current)
        assigned += current.size
        if assigned == n:
            break
        dominated_count = dominated_count - dominates[current].sum(axis=0)
        dominated_count[np.concatenate(fronts)] = -1
        current = np.nonzero(dominated_count == 0)[0]
    return fronts


def crowding_distance(front_objectives: np.ndarray) -> np.ndarray:
    """Crowding distances within one front; boundary points get infinity.

    Interior points sum, per objective, the normalized gap between their two
    sorted neighbors. Flat objectives (zero range) contribute nothing.

    This is the readable per-front reference: `evolve` ranks with
    `_rank_population`, which computes every front's distances in one pass,
    and the tests hold the two equal.
    """
    objs = np.asarray(front_objectives, dtype=float)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValueError(f"expected a nonempty (k, m) objective matrix, got {objs.shape}")
    k, m = objs.shape
    if k <= 2:
        return np.full(k, np.inf)
    distance = np.zeros(k)
    for t in range(m):
        order = np.argsort(objs[:, t], kind="stable")
        col = objs[order, t]
        span = col[-1] - col[0]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span > 0:
            gaps = (col[2:] - col[:-2]) / span
            interior = order[1:-1]
            finite = np.isfinite(distance[interior])
            distance[interior[finite]] += gaps[finite]
    return distance


@dataclass
class EvolveResult:
    """Final front plus enough ranking context to pad a batch from the runners-up."""

    front: list[tuple[str, np.ndarray]]
    ranked: list[tuple[str, np.ndarray, int, float]]  # (seq, objectives, rank, crowding)
    history: np.ndarray  # (generations + 1, m) per-objective population best
    evaluations: int = 0


def _rank_population(
    objs: np.ndarray, ranks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance of every row, equal to
    `non_dominated_sort` then `crowding_distance` front by front.

    `ranks`, when given, are the rows' front ranks, known without sorting
    (`_survivors`). Sorting one objective by (rank, value) lays the fronts
    out one after another, each in `crowding_distance`'s stable order, so
    every front's neighbor gaps come from one pass. A row that is the lowest
    or highest of its front in any objective is infinitely far from the crowd.
    """
    n = objs.shape[0]
    if ranks is None:
        ranks = np.empty(n, dtype=int)
        for rank, front in enumerate(non_dominated_sort(objs)):
            ranks[front] = rank
    crowd = np.zeros(n)
    boundary = np.zeros(n, dtype=bool)
    pos = np.arange(n)
    for col in objs.T:
        order = np.lexsort((col, ranks))
        sorted_ranks = ranks[order]
        first = np.searchsorted(sorted_ranks, sorted_ranks)
        last = np.searchsorted(sorted_ranks, sorted_ranks, side="right") - 1
        values = col[order]
        span = values[last] - values[first]
        boundary[order[(pos == first) | (pos == last)]] = True
        inner = pos[(first < pos) & (pos < last) & (span > 0)]
        crowd[order[inner]] += (values[inner + 1] - values[inner - 1]) / span[inner]
    crowd[boundary] = np.inf
    return ranks, crowd


def _survivors(union_objs: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The `size` rows of a union that survive, best (front rank, crowding)
    first, and their front ranks within the survivors alone.

    The survivors are whole fronts 0..k-1 and part of front k. Every row
    that dominates a survivor has a lower rank, so it survives too, and each
    survivor's rank among the survivors is its rank in the union: the next
    ranking takes these instead of sorting again. Crowding is not reused;
    the partly kept front's distances change with its membership.
    """
    ranks, crowd = _rank_population(union_objs)
    keep = np.lexsort((-crowd, ranks))[:size]
    return keep, ranks[keep]


def _sequences(rows: np.ndarray) -> list[str]:
    """The strings of an (m, L) residue-index array."""
    length = rows.shape[1]
    text = _LETTERS[rows].tobytes().decode("ascii")
    return [text[i : i + length] for i in range(0, len(text), length)]


def evolve(
    parental: str,
    evaluate_many: Callable[[list[str]], np.ndarray],
    config: GAConfig,
    *,
    exclude: Iterable[str] = (),
    seed_sequences: Sequence[str] = (),
    front_writer: Callable[[int, list[str], np.ndarray], None] | None = None,
) -> EvolveResult:
    """Run the (mu + lambda) elitist multi-objective GA.

    Parameters
    ----------
    parental : str
        Anchor sequence; defines length and the mutation-count cap.
    evaluate_many : callable
        Deterministic, side-effect-free map from a list of m sequences to an
        (m, k) array of objective rows, k = 2 for "mean_std" and 3 for
        "mean_std_likelihood". Called once for the initial population and
        then at most once per generation, with that generation's offspring
        that were never scored before, each once. Its rows are cached for the
        rest of the run; this cache is the campaign's only evaluation cache.
        A row of the wrong width or with a non-finite value is a ValueError
        naming its sequence.
    config : GAConfig
    exclude : iterable of str
        Sequences never emitted in the final front (typically the training set).
    seed_sequences : sequence of str
        Extra starting individuals, e.g. the best observed variants.
    front_writer : callable, optional
        Called after every generation with (generation, front sequences,
        front objectives); used for per-generation dump files.

    The initial population is the parental, the valid seed sequences, and
    random 1-3 site mutants. Duplicates arising anywhere are re-mutated once
    and then tolerated. Selection keeps the union's best N by (front rank,
    crowding distance), which makes per-objective population maxima
    non-decreasing across generations.
    """
    validate_sequence(parental)
    length = len(parental)
    if length == 0:
        raise ValueError("parental sequence must be nonempty")
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / length
    cap = config.max_mutations
    rng = np.random.default_rng(config.seed)
    exclude_set = set(exclude)

    cache: dict[str, np.ndarray] = {}
    n_objectives = 2 if config.objective_set == "mean_std" else 3

    def scored(batch: list[str]) -> np.ndarray:
        """Objective rows of `batch`, evaluating its uncached sequences in one call."""
        new = [seq for seq in dict.fromkeys(batch) if seq not in cache]
        if new:
            values = np.asarray(evaluate_many(new), dtype=float)
            if values.shape != (len(new), n_objectives):
                raise ValueError(
                    f"evaluate_many returned shape {values.shape} for the {len(new)} "
                    f"sequences starting with {new[0]!r}, but objective set "
                    f"{config.objective_set!r} needs ({len(new)}, {n_objectives})"
                )
            bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
            if bad.size:
                raise ValueError(
                    f"evaluate_many returned non-finite objectives for {new[bad[0]]!r}"
                )
            cache.update(zip(new, values))
        return np.stack([cache[seq] for seq in batch])

    # uint8 rows: the 20 residue indices fit, and the row bytes that
    # deduplication hashes stay L long
    parental_row = residue_indices([parental], length)[0].astype(np.uint8)

    def substitute(row: np.ndarray, pos: int) -> None:
        """Replace residue `pos` of `row` by one of the other 19, uniformly."""
        r = rng.integers(len(ALPHABET) - 1)
        row[pos] = r + (r >= row[pos])

    def mutate_sites(row: np.ndarray, n_sites: int) -> None:
        for pos in rng.choice(length, size=min(n_sites, length), replace=False):
            substitute(row, pos)

    def repair(row: np.ndarray) -> None:
        """Revert random sites until at most `cap` differ from the parental."""
        if cap is None:
            return
        differing = (row != parental_row).nonzero()[0]
        if len(differing) <= cap:
            return
        differing = differing.tolist()
        while len(differing) > cap:
            pos = differing.pop(rng.integers(len(differing)))
            row[pos] = parental_row[pos]

    def point_mutation(row: np.ndarray) -> None:
        mutate_sites(row, 1)
        repair(row)

    # -- initial population
    rows = [parental_row]
    seen = {parental_row.tobytes()}
    for seq in seed_sequences:
        validate_sequence(seq)
        if len(seq) != length:
            raise ValueError(
                f"seed sequence length {len(seq)} != parental length {length}"
            )
        row = residue_indices([seq], length)[0].astype(np.uint8)
        if cap is not None and np.count_nonzero(row != parental_row) > cap:
            continue
        if row.tobytes() not in seen and len(rows) < config.population_size:
            rows.append(row)
            seen.add(row.tobytes())
    max_sites = 3 if cap is None else min(3, cap)
    while len(rows) < config.population_size:
        row = parental_row.copy()
        mutate_sites(row, int(rng.integers(1, max_sites + 1)))
        if row.tobytes() in seen:
            point_mutation(row)  # re-mutate once, then tolerate
        rows.append(row)
        seen.add(row.tobytes())
    population = np.stack(rows)
    sequences = _sequences(population)

    objs = scored(sequences)
    history = [objs.max(axis=0)]
    ranks = None  # the initial population's are sorted; later ones come from `_survivors`

    for generation in range(config.generations):
        ranks, crowd = _rank_population(objs, ranks)
        standing = list(zip(ranks.tolist(), (-crowd).tolist()))

        def tournament() -> int:
            i, j = rng.integers(len(population)), rng.integers(len(population))
            return int(i) if standing[i] <= standing[j] else int(j)

        offspring = np.empty_like(population)
        batch_seen = {row.tobytes() for row in population}
        for k in range(0, config.population_size, 2):
            a = population[tournament()]
            b = population[tournament()]
            if rng.random() < config.crossover_probability:
                mask = rng.random(length) < 0.5
                offspring[k] = np.where(mask, b, a)
                offspring[k + 1] = np.where(mask, a, b)
            else:
                offspring[k], offspring[k + 1] = a, b
            for child in offspring[k : k + 2]:
                for pos in (rng.random(length) < rate).nonzero()[0]:
                    substitute(child, pos)
                repair(child)
                if child.tobytes() in batch_seen:
                    point_mutation(child)
                batch_seen.add(child.tobytes())

        union_sequences = sequences + _sequences(offspring)
        union_objs = np.concatenate([objs, scored(union_sequences[len(sequences) :])])
        keep, ranks = _survivors(union_objs, config.population_size)
        population = np.concatenate([population, offspring])[keep]
        sequences = [union_sequences[i] for i in keep]
        objs = union_objs[keep]
        history.append(objs.max(axis=0))

        if front_writer is not None:
            front_idx = keep[ranks == 0]
            front_writer(
                generation,
                [union_sequences[i] for i in front_idx],
                union_objs[front_idx],
            )

    ranks, crowd = _rank_population(objs, ranks)

    front: list[tuple[str, np.ndarray]] = []
    ranked: list[tuple[str, np.ndarray, int, float]] = []
    emitted: set[str] = set()
    for i in np.lexsort((-crowd, ranks)):
        seq = sequences[i]
        if seq in emitted or seq in exclude_set:
            continue
        emitted.add(seq)
        ranked.append((seq, objs[i].copy(), int(ranks[i]), float(crowd[i])))
        if ranks[i] == 0:
            front.append((seq, objs[i].copy()))
    return EvolveResult(
        front=front, ranked=ranked, history=np.stack(history), evaluations=len(cache)
    )
