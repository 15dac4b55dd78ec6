"""Simulated acquisition campaigns: method registry, oracles, and the round loop.

A campaign starts from a seeded sample of a mutant pool, then repeats: fit the
method's surrogate, evolve a candidate front against it, pick a batch with the
portfolio selector, drop a seeded subset (mimicking synthesis attrition),
label the survivors with the oracle, and append them to the dataset. All
randomness flows from named, derived seeds so runs are exactly repeatable.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .acquisition import PortfolioProblem, select_batch, write_acquisition_csv
from .exceptions import ConfigError, FixtureError
from .features import (
    FixtureFeatureProvider,
    StructureContext,
    SyntheticFeatureProvider,
    kabsch_align,
    load_structure_context,
    synthetic_structure_context,
)
from .gaopt import GAConfig, evolve
from .gp import ConstantMean, Dataset, ZeroShotMean, fit_gp
from .kernels import (
    Kernel,
    KernelInput,
    KermutKernel,
    Matern52Kernel,
    SumKernel,
    TanimotoKernel,
)
from .plm import (
    PssmLikelihoodProvider,
    TableLikelihoodProvider,
    load_likelihood_table,
    load_pssm,
    substitution_softmax_pssm,
)
from .sequences import ALPHABET, blosum62_matrix, diff, encode, one_hot_matrix, validate_sequence

__all__ = [
    "MethodSpec",
    "METHOD_REGISTRY",
    "resolve_method",
    "registered_method_names",
    "SyntheticOracle",
    "FixtureOracle",
    "ProtocolConfig",
    "OracleConfig",
    "ProviderConfig",
    "GPConfig",
    "CampaignConfig",
    "AcquiredRecord",
    "RoundRecord",
    "CampaignLog",
    "CampaignResult",
    "run_campaign",
    "validate_campaign",
    "write_rounds_csv",
    "write_aggregate_csv",
    "write_hyperparameter_files",
    "write_acquisition_files",
]

CONSTRAINED_PREFIX = "C-"

# seed-stream tags for the per-repeat derived generators
_TAG_POOL = 11
_TAG_INIT = 12
_TAG_GA = 21
_TAG_DROP = 22
_TAG_PAD = 23
_TAG_RANDOM = 24
_TAG_FIT = 25


# ---------------------------------------------------------------------------
# method registry


@dataclass(frozen=True)
class MethodSpec:
    """What a surrogate method is made of.

    representation: vector field fed to the sequence kernel.
    context_kind:   which inverse-folding context the structural kernel uses.
    mean_table:     which log-probability table feeds the zero-shot prior mean.
    """

    name: str
    mean_kind: str  # "constant" | "zero-shot"
    kernel_kind: str  # "tanimoto" | "matern52" | "sum" | "kermut" | "none"
    representation: str | None = None
    context_kind: str | None = None  # "standard" | "antibody"
    mean_table: str | None = None  # "standard" | "antibody"


METHOD_REGISTRY: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in [
        MethodSpec("OneHot-T", "constant", "tanimoto", "onehot"),
        MethodSpec("BLO-T", "constant", "tanimoto", "blosum"),
        MethodSpec("ESM-M", "constant", "matern52", "embedding"),
        MethodSpec("IgFold-M", "constant", "matern52", "coords"),
        MethodSpec("IgFold-ESM-M", "constant", "matern52", "embedding+coords"),
        MethodSpec("IgFold-BLO-T", "constant", "sum", "blosum"),
        MethodSpec("Kermut-T", "zero-shot", "kermut", "onehot", "standard", "standard"),
        MethodSpec("Kermut-BLO-T", "zero-shot", "kermut", "blosum", "standard", "standard"),
        MethodSpec("Const-Kermut-T", "constant", "kermut", "onehot", "standard"),
        MethodSpec("AbMPNN-Kermut-T", "zero-shot", "kermut", "onehot", "antibody", "standard"),
        MethodSpec("AbSeq-Kermut-T", "zero-shot", "kermut", "onehot", "standard", "antibody"),
        MethodSpec(
            "AbBoth-Kermut-BLO-T", "zero-shot", "kermut", "blosum", "antibody", "antibody"
        ),
        MethodSpec("Random", "none", "none"),
    ]
}


def resolve_method(name: str) -> tuple[MethodSpec, bool]:
    """Map a method name (optionally 'C-' prefixed) to its spec and constraint flag."""
    constrained = name.startswith(CONSTRAINED_PREFIX)
    base = name[len(CONSTRAINED_PREFIX) :] if constrained else name
    if base not in METHOD_REGISTRY:
        raise ConfigError(
            f"unknown method {name!r}; known methods: {', '.join(sorted(METHOD_REGISTRY))} "
            f"(each accepts a {CONSTRAINED_PREFIX!r} prefix except Random)"
        )
    if constrained and base == "Random":
        raise ConfigError("the random baseline has no constrained variant")
    return METHOD_REGISTRY[base], constrained


def registered_method_names(include_constrained: bool = True) -> list[str]:
    names = sorted(METHOD_REGISTRY)
    if include_constrained:
        names += [f"{CONSTRAINED_PREFIX}{n}" for n in sorted(METHOD_REGISTRY) if n != "Random"]
    return names


# ---------------------------------------------------------------------------
# oracles


class SyntheticOracle:
    """Deterministic fitness landscape over variants of one parental sequence.

    The value is an additive per-site table, plus a handful of pairwise
    epistatic bonuses, plus a smooth term linear in the synthetic embedding.
    The parental scores exactly `baseline`: its site entries are zeroed, the
    epistatic patterns never match it, and the smooth term is centered on it.

    kind "affinity" reads as log10 fold-improvement over the parental
    (baseline 0); kind "stability" reads as a melting temperature in Celsius
    (baseline 70) with denser epistasis and larger site effects.
    """

    KINDS = ("affinity", "stability")

    def __init__(self, parental: str, kind: str = "affinity", seed: int = 0):
        validate_sequence(parental)
        if kind not in self.KINDS:
            raise ConfigError(f"unknown synthetic oracle kind {kind!r}; use one of {self.KINDS}")
        if len(parental) < 3:
            raise ConfigError("synthetic oracle needs parental length >= 3")
        self.parental = parental
        self.kind = kind
        self.seed = seed
        length = len(parental)
        if kind == "affinity":
            self.baseline, site_scale, n_pairs, pair_scale, self.smooth_scale = (
                0.0,
                0.25,
                10,
                0.5,
                0.5,
            )
        else:
            self.baseline, site_scale, n_pairs, pair_scale, self.smooth_scale = (
                70.0,
                0.8,
                20,
                1.5,
                1.0,
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0AC1E]))
        self.site_table = rng.normal(0.0, site_scale, size=(length, len(ALPHABET)))
        self._aa_index = {aa: i for i, aa in enumerate(ALPHABET)}
        for i, ch in enumerate(parental):
            self.site_table[i, self._aa_index[ch]] = 0.0
        self.pairs: list[tuple[int, int, int, int, float]] = []
        for _ in range(n_pairs):
            i, j = sorted(rng.choice(length, size=2, replace=False).tolist())
            a = self._random_non_parental(rng, i)
            b = self._random_non_parental(rng, j)
            self.pairs.append((i, a, j, b, float(rng.normal(0.0, pair_scale))))
        direction = rng.standard_normal(64)
        self._direction = direction / np.linalg.norm(direction)
        self._embedder = SyntheticFeatureProvider(parental, seed=0, embedding_dim=64)
        self._parental_embedding = self._embedder.embedding(parental)

    def _random_non_parental(self, rng: np.random.Generator, position: int) -> int:
        options = [k for k in range(len(ALPHABET)) if ALPHABET[k] != self.parental[position]]
        return int(options[rng.integers(len(options))])

    def additive_component(self, seq: str) -> float:
        idx = [self._aa_index[c] for c in seq]
        return float(self.site_table[np.arange(len(seq)), idx].sum())

    def site_argmax_sequence(self) -> str:
        best = self.site_table.argmax(axis=1)
        return "".join(ALPHABET[k] for k in best)

    def value(self, seq: str) -> float:
        validate_sequence(seq)
        if len(seq) != len(self.parental):
            raise ValueError(
                f"sequence length {len(seq)} != parental length {len(self.parental)}"
            )
        total = self.baseline + self.additive_component(seq)
        for i, a, j, b, w in self.pairs:
            if self._aa_index[seq[i]] == a and self._aa_index[seq[j]] == b:
                total += w
        embedding = self._embedder.embedding(seq)
        total += self.smooth_scale * float(
            (embedding - self._parental_embedding) @ self._direction
        )
        return total

    __call__ = value


class FixtureOracle:
    """Labels replayed from a sequence -> value table."""

    def __init__(self, table: dict[str, float]):
        if not table:
            raise FixtureError("oracle fixture table is empty")
        self.table = {validate_sequence(k): float(v) for k, v in table.items()}

    def value(self, seq: str) -> float:
        try:
            return self.table[seq]
        except KeyError:
            raise FixtureError(f"oracle fixture has no value for sequence {seq!r}") from None

    __call__ = value


# ---------------------------------------------------------------------------
# configuration


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass
class ProtocolConfig:
    initial_pool_size: int = 159
    initial_sample_size: int = 50
    rounds: int = 9
    batch_size: int = 80
    drop_count: int = 30
    repeats: int = 3

    def __post_init__(self) -> None:
        for name in (
            "initial_pool_size",
            "initial_sample_size",
            "rounds",
            "batch_size",
            "repeats",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"protocol.{name} must be >= 1")
        if self.drop_count < 0:
            raise ConfigError("protocol.drop_count must be >= 0")
        if self.drop_count >= self.batch_size:
            raise ConfigError(
                f"protocol.drop_count ({self.drop_count}) must be smaller than "
                f"protocol.batch_size ({self.batch_size})"
            )
        if self.initial_sample_size > self.initial_pool_size:
            raise ConfigError(
                f"protocol.initial_sample_size ({self.initial_sample_size}) exceeds "
                f"the pool size ({self.initial_pool_size})"
            )

    @property
    def kept_per_round(self) -> int:
        return self.batch_size - self.drop_count

    def expected_size(self, after_round: int) -> int:
        return self.initial_sample_size + self.kept_per_round * after_round


@dataclass
class OracleConfig:
    kind: str = "synthetic-affinity"
    seed: int | None = None  # defaults to the campaign seed
    table_path: str | None = None

    KINDS = ("synthetic-affinity", "synthetic-stability", "fixture")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigError(f"oracle.kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kind == "fixture" and not self.table_path:
            raise ConfigError("oracle.kind 'fixture' needs oracle.table")


@dataclass
class ProviderConfig:
    features: str = "synthetic"
    embedding_path: str | None = None
    coords_path: str | None = None
    structure: str = "synthetic"
    site_probs_path: str | None = None
    distances_path: str | None = None
    antibody_structure: str = "synthetic"
    antibody_site_probs_path: str | None = None
    antibody_distances_path: str | None = None
    antibody_temperature: float = 0.8
    constraint: str = "synthetic"
    constraint_pssm_path: str | None = None
    constraint_table_path: str | None = None
    zero_shot: str = "synthetic"
    zero_shot_pssm_path: str | None = None
    antibody_zero_shot: str = "synthetic"
    antibody_zero_shot_pssm_path: str | None = None

    def __post_init__(self) -> None:
        if self.features not in ("synthetic", "fixture"):
            raise ConfigError("providers.features must be 'synthetic' or 'fixture'")
        for name in ("structure", "antibody_structure"):
            if getattr(self, name) not in ("synthetic", "fixture"):
                raise ConfigError(f"providers.{name} must be 'synthetic' or 'fixture'")
        if self.constraint not in ("synthetic", "pssm", "table"):
            raise ConfigError("providers.constraint must be 'synthetic', 'pssm', or 'table'")
        for name in ("zero_shot", "antibody_zero_shot"):
            if getattr(self, name) not in ("synthetic", "pssm"):
                raise ConfigError(f"providers.{name} must be 'synthetic' or 'pssm'")
        if self.antibody_temperature <= 0:
            raise ConfigError("providers.antibody_temperature must be positive")


@dataclass
class GPConfig:
    restarts: int = 8
    noise_init: float = 0.1
    fit_noise: bool = True

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ConfigError("gp.restarts must be >= 1")
        if self.noise_init <= 0:
            raise ConfigError("gp.noise_init must be positive")


@dataclass
class CampaignConfig:
    parental: str
    method: str = "OneHot-T"
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    providers: ProviderConfig = field(default_factory=ProviderConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    gp: GPConfig = field(default_factory=GPConfig)
    kernel_overrides: dict = field(default_factory=dict)
    mean_overrides: dict = field(default_factory=dict)
    embedding_dim: int = 64
    dump_fronts: bool = False

    def __post_init__(self) -> None:
        validate_sequence(self.parental)
        if len(self.parental) < 3:
            raise ConfigError("parental sequence must have length >= 3")
        resolve_method(self.method)
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".") -> "CampaignConfig":
        import os

        allowed = {
            "parental",
            "method",
            "seed",
            "protocol",
            "oracle",
            "providers",
            "ga",
            "gp",
            "kernel",
            "mean",
            "embedding_dim",
            "dump_fronts",
        }
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _require_keys(raw, allowed, "config root")
        if "parental" not in raw:
            raise ConfigError("config is missing the required 'parental' key")

        fixture_root = os.environ.get("ABBO_FIXTURE_ROOT")
        base = Path(fixture_root) if fixture_root else Path(base_dir)

        def resolve(p):
            if p is None:
                return None
            path = Path(str(p))
            return str(path if path.is_absolute() else base / path)

        def section(name: str) -> dict:
            value = raw.get(name) or {}
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be a mapping")
            return dict(value)

        try:
            protocol = ProtocolConfig(**section("protocol"))
        except TypeError as err:
            raise ConfigError(f"bad protocol section: {err}") from None

        oracle_raw = section("oracle")
        _require_keys(oracle_raw, {"kind", "seed", "table"}, "oracle")
        oracle = OracleConfig(
            kind=oracle_raw.get("kind", "synthetic-affinity"),
            seed=oracle_raw.get("seed"),
            table_path=resolve(oracle_raw.get("table")),
        )

        prov_raw = section("providers")
        path_keys = {
            "embedding_path",
            "coords_path",
            "site_probs_path",
            "distances_path",
            "antibody_site_probs_path",
            "antibody_distances_path",
            "constraint_pssm_path",
            "constraint_table_path",
            "zero_shot_pssm_path",
            "antibody_zero_shot_pssm_path",
        }
        allowed_prov = path_keys | {
            "features",
            "structure",
            "antibody_structure",
            "antibody_temperature",
            "constraint",
            "zero_shot",
            "antibody_zero_shot",
        }
        _require_keys(prov_raw, allowed_prov, "providers")
        for key in path_keys:
            if key in prov_raw:
                prov_raw[key] = resolve(prov_raw[key])
        providers = ProviderConfig(**prov_raw)

        ga_raw = section("ga")
        try:
            ga = GAConfig(**ga_raw)
        except TypeError as err:
            raise ConfigError(f"bad ga section: {err}") from None

        gp_raw = section("gp")
        try:
            gp = GPConfig(**gp_raw)
        except TypeError as err:
            raise ConfigError(f"bad gp section: {err}") from None

        return cls(
            parental=raw["parental"],
            method=raw.get("method", "OneHot-T"),
            seed=int(raw.get("seed", 0)),
            protocol=protocol,
            oracle=oracle,
            providers=providers,
            ga=ga,
            gp=gp,
            kernel_overrides=section("kernel"),
            mean_overrides=section("mean"),
            embedding_dim=int(raw.get("embedding_dim", 64)),
            dump_fronts=bool(raw.get("dump_fronts", False)),
        )

    @classmethod
    def from_yaml(cls, path: str | Path) -> "CampaignConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            raw = yaml.safe_load(path.read_text())
        except yaml.YAMLError as err:
            raise ConfigError(f"could not parse {path}: {err}") from None
        return cls.from_dict(raw or {}, base_dir=path.parent)


# ---------------------------------------------------------------------------
# providers and method assembly


@dataclass
class _Providers:
    features: SyntheticFeatureProvider | FixtureFeatureProvider | None
    context_standard: StructureContext | None
    context_antibody: StructureContext | None
    constraint: PssmLikelihoodProvider | TableLikelihoodProvider
    zero_shot_tables: dict[str, np.ndarray]


def _build_oracle(config: CampaignConfig):
    if config.oracle.kind == "fixture":
        return FixtureOracle(load_likelihood_table_raw(config.oracle.table_path))
    kind = "affinity" if config.oracle.kind.endswith("affinity") else "stability"
    seed = config.seed if config.oracle.seed is None else config.oracle.seed
    return SyntheticOracle(config.parental, kind=kind, seed=seed)


def load_likelihood_table_raw(path: str | Path) -> dict[str, float]:
    """Oracle tables share the likelihood CSV format but allow any float value."""
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"oracle fixture {path} does not exist")
    table: dict[str, float] = {}
    with path.open(newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0].lower() in ("sequence", "seq"):
                continue
            if len(row) < 2:
                raise FixtureError(f"bad oracle row in {path}: {row!r}")
            table[row[0].strip()] = float(row[1])
    if not table:
        raise FixtureError(f"oracle fixture {path} has no entries")
    return table


def _build_providers(
    config: CampaignConfig, spec: MethodSpec, constrained: bool
) -> _Providers:
    prov = config.providers
    parental = config.parental

    features = None
    needs_vectors = spec.representation in ("embedding", "coords", "embedding+coords")
    # coordinates also feed the per-round RMSD log, so build the provider
    # whenever the synthetic route makes that possible
    if needs_vectors or prov.features == "synthetic":
        if prov.features == "synthetic":
            features = SyntheticFeatureProvider(
                parental, seed=config.seed, embedding_dim=config.embedding_dim
            )
        else:
            features = FixtureFeatureProvider(
                parental,
                embedding_path=prov.embedding_path,
                coords_path=prov.coords_path,
            )

    context_standard = None
    context_antibody = None
    if spec.kernel_kind == "kermut":
        if spec.context_kind == "antibody":
            if prov.antibody_structure == "synthetic":
                context_antibody = synthetic_structure_context(
                    parental, seed=config.seed, temperature=prov.antibody_temperature
                )
            else:
                context_antibody = load_structure_context(
                    prov.antibody_site_probs_path, prov.antibody_distances_path
                )
        else:
            if prov.structure == "synthetic":
                context_standard = synthetic_structure_context(parental, seed=config.seed)
            else:
                context_standard = load_structure_context(
                    prov.site_probs_path, prov.distances_path
                )

    if prov.constraint == "synthetic":
        constraint = PssmLikelihoodProvider(substitution_softmax_pssm(parental))
    elif prov.constraint == "pssm":
        constraint = PssmLikelihoodProvider(load_pssm(prov.constraint_pssm_path))
    else:
        constraint = TableLikelihoodProvider(load_likelihood_table(prov.constraint_table_path))

    zero_shot_tables: dict[str, np.ndarray] = {}
    if spec.mean_kind == "zero-shot":
        if spec.mean_table == "antibody":
            if prov.antibody_zero_shot == "synthetic":
                probs = substitution_softmax_pssm(parental, prov.antibody_temperature)
            else:
                probs = load_pssm(prov.antibody_zero_shot_pssm_path)
            zero_shot_tables["antibody"] = np.log(np.maximum(probs, 1e-12))
        else:
            if prov.zero_shot == "synthetic":
                probs = substitution_softmax_pssm(parental)
            else:
                probs = load_pssm(prov.zero_shot_pssm_path)
            zero_shot_tables["standard"] = np.log(np.maximum(probs, 1e-12))

    return _Providers(
        features=features,
        context_standard=context_standard,
        context_antibody=context_antibody,
        constraint=constraint,
        zero_shot_tables=zero_shot_tables,
    )


def _build_kernel(spec: MethodSpec, providers: _Providers, config: CampaignConfig) -> Kernel | None:
    if spec.kernel_kind == "none":
        return None
    if spec.kernel_kind == "tanimoto":
        kernel: Kernel = TanimotoKernel(spec.representation)
    elif spec.kernel_kind == "matern52":
        field_name = (
            "embedding_coords" if spec.representation == "embedding+coords" else spec.representation
        )
        kernel = Matern52Kernel(field_name)
    elif spec.kernel_kind == "sum":
        kernel = SumKernel(
            [
                ("coords", Matern52Kernel("coords")),
                ("seq", TanimotoKernel(spec.representation)),
            ]
        )
    elif spec.kernel_kind == "kermut":
        context = (
            providers.context_antibody
            if spec.context_kind == "antibody"
            else providers.context_standard
        )
        kernel = KermutKernel(context, TanimotoKernel(spec.representation))
    else:
        raise ConfigError(f"unknown kernel kind {spec.kernel_kind!r}")

    for name, setting in config.kernel_overrides.items():
        if isinstance(setting, dict):
            _require_keys(setting, {"value", "frozen"}, f"kernel.{name}")
            if "value" in setting:
                _set_kernel_param(kernel, name, setting["value"])
            if setting.get("frozen"):
                _freeze_kernel_param(kernel, name)
        else:
            _set_kernel_param(kernel, name, setting)
    return kernel


def _set_kernel_param(kernel: Kernel, name: str, value) -> None:
    try:
        kernel.set_param(name, float(value))
    except KeyError:
        raise ConfigError(
            f"kernel has no hyperparameter {name!r}; available: {sorted(kernel.params())}"
        ) from None


def _freeze_kernel_param(kernel: Kernel, name: str) -> None:
    try:
        kernel.freeze(name)
    except KeyError:
        raise ConfigError(
            f"kernel has no hyperparameter {name!r}; available: {sorted(kernel.params())}"
        ) from None


def _build_mean(spec: MethodSpec, providers: _Providers, config: CampaignConfig):
    if spec.mean_kind == "none":
        return None
    if spec.mean_kind == "constant":
        mean = ConstantMean(0.0)
    else:
        table_key = spec.mean_table or "standard"
        mean = ZeroShotMean(providers.zero_shot_tables[table_key])
    for name, setting in config.mean_overrides.items():
        if isinstance(setting, dict):
            _require_keys(setting, {"value", "frozen"}, f"mean.{name}")
            if "value" in setting:
                try:
                    mean.set_param(name, float(setting["value"]))
                except KeyError:
                    raise ConfigError(f"mean has no parameter {name!r}") from None
            if setting.get("frozen"):
                mean.freeze(name)
        else:
            try:
                mean.set_param(name, float(setting))
            except KeyError:
                raise ConfigError(f"mean has no parameter {name!r}") from None
    return mean


class _Representer:
    """Sequence -> KernelInput with exactly the vector fields a method needs."""

    def __init__(
        self,
        parental: str,
        fields: set[str],
        features: SyntheticFeatureProvider | FixtureFeatureProvider | None,
    ):
        self.parental = parental
        self.fields = fields
        self.features = features
        self._onehot = one_hot_matrix() if "onehot" in fields else None
        self._blosum = blosum62_matrix() if "blosum" in fields else None
        self._cache: dict[str, KernelInput] = {}

    def __call__(self, seq: str) -> KernelInput:
        cached = self._cache.get(seq)
        if cached is not None:
            return cached
        vectors: dict[str, np.ndarray] = {}
        if self._onehot is not None:
            vectors["onehot"] = encode(seq, self._onehot)
        if self._blosum is not None:
            vectors["blosum"] = encode(seq, self._blosum)
        if {"embedding", "coords", "embedding_coords"} & self.fields:
            if self.features is None:
                raise ConfigError(
                    "method needs embeddings or coordinates but no feature provider is configured"
                )
            bundle = self.features.features(seq)
            if "embedding" in self.fields:
                if bundle.embedding is None:
                    raise FixtureError("feature provider has no embeddings configured")
                vectors["embedding"] = bundle.embedding
            if "coords" in self.fields:
                if bundle.coords is None:
                    raise FixtureError("feature provider has no coordinates configured")
                vectors["coords"] = bundle.coords
            if "embedding_coords" in self.fields:
                if bundle.embedding is None or bundle.coords is None:
                    raise FixtureError(
                        "feature provider must supply both embeddings and coordinates"
                    )
                vectors["embedding_coords"] = np.concatenate([bundle.embedding, bundle.coords])
        item = KernelInput(vectors=vectors, mutations=diff(self.parental, seq))
        self._cache[seq] = item
        return item


def _fields_for(spec: MethodSpec) -> set[str]:
    rep = spec.representation
    if rep is None:
        return set()
    if rep == "embedding+coords":
        return {"embedding_coords"}
    if spec.kernel_kind == "sum":
        return {"coords", rep}
    return {rep}


# ---------------------------------------------------------------------------
# pools and random proposals


def _space_size(length: int, max_sites: int) -> int:
    from math import comb

    return sum(comb(length, k) * (len(ALPHABET) - 1) ** k for k in range(1, max_sites + 1))


def generate_pool(
    parental: str, size: int, rng: np.random.Generator, max_sites: int = 2
) -> list[str]:
    """Unique random 1..max_sites-site mutants of the parental."""
    length = len(parental)
    if size > _space_size(length, max_sites):
        raise ConfigError(
            f"pool of {size} unique <= {max_sites}-site mutants impossible for length {length}"
        )
    pool: list[str] = []
    seen = {parental}
    while len(pool) < size:
        k = int(rng.integers(1, max_sites + 1))
        positions = rng.choice(length, size=k, replace=False)
        chars = list(parental)
        for pos in positions:
            options = [aa for aa in ALPHABET if aa != parental[pos]]
            chars[pos] = options[rng.integers(len(options))]
        candidate = "".join(chars)
        if candidate not in seen:
            seen.add(candidate)
            pool.append(candidate)
    return pool


def _propose_random_mutants(
    bases: list[str],
    parental: str,
    count: int,
    rng: np.random.Generator,
    exclude: set[str],
    max_sites: int = 3,
) -> list[str]:
    """Random 1..max_sites-site mutants of randomly chosen base sequences."""
    length = len(parental)
    out: list[str] = []
    seen = set(exclude)
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ConfigError(
                "could not generate enough unique candidate mutants; "
                "the sequence space is too small for the requested batch size"
            )
        base = bases[int(rng.integers(len(bases)))]
        k = int(rng.integers(1, max_sites + 1))
        positions = rng.choice(length, size=k, replace=False)
        chars = list(base)
        for pos in positions:
            options = [aa for aa in ALPHABET if aa != chars[pos]]
            chars[pos] = options[rng.integers(len(options))]
        candidate = "".join(chars)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out


# ---------------------------------------------------------------------------
# logs


@dataclass
class AcquiredRecord:
    sequence: str
    mean: float | None
    std: float | None
    r: float | None
    z: float | None
    likelihood: float | None
    oracle_value: float | None  # None for dropped candidates
    dropped: bool


@dataclass
class RoundRecord:
    round_index: int
    n_data: int
    best_so_far: float
    batch_mean_likelihood: float | None = None
    rmsd_mean: float | None = None
    rmsd_max: float | None = None
    n_padded: int = 0
    hyperparameters: dict[str, float] | None = None
    log_marginal_likelihood: float | None = None
    acquired: list[AcquiredRecord] = field(default_factory=list)


@dataclass
class CampaignLog:
    method: str
    seed: int
    repeat: int
    records: list[RoundRecord]

    def best_so_far_series(self) -> np.ndarray:
        return np.array([rec.best_so_far for rec in self.records])

    @property
    def final_size(self) -> int:
        return self.records[-1].n_data


@dataclass
class CampaignResult:
    method: str
    seed: int
    protocol: ProtocolConfig
    logs: list[CampaignLog]

    def aggregate(self) -> list[dict]:
        """Per-round mean and standard error of best-so-far across repeats."""
        rows = []
        n_rounds = len(self.logs[0].records)
        for k in range(n_rounds):
            values = np.array([log.records[k].best_so_far for log in self.logs])
            se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
            rows.append(
                {
                    "round": k,
                    "best_so_far_mean": float(values.mean()),
                    "best_so_far_se": se,
                    "repeats": int(values.size),
                }
            )
        return rows


# ---------------------------------------------------------------------------
# campaign execution


def _derived_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _derived_int(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _batch_rmsd(
    sequences: list[str], features
) -> tuple[float | None, float | None]:
    if features is None or getattr(features, "parental_coords", None) is None:
        return None, None
    values = []
    for seq in sequences:
        coords = features.features(seq).coords
        if coords is None:
            return None, None
        _, rmsd = kabsch_align(coords.reshape(-1, 3), features.parental_coords)
        values.append(rmsd)
    return float(np.mean(values)), float(np.max(values))


def _run_round(
    *,
    config: CampaignConfig,
    spec: MethodSpec,
    constrained: bool,
    round_index: int,
    repeat_seed: int,
    dataset: Dataset,
    observed: list[str],
    best_so_far: float,
    oracle,
    providers: _Providers,
    kernel_template: Kernel | None,
    mean_template,
    representer: _Representer,
    front_writer: Callable | None,
) -> tuple[RoundRecord, Dataset, list[str], float]:
    proto = config.protocol
    q = proto.batch_size
    observed_set = set(observed)

    r_vals = z_vals = None
    means = stds = None
    n_padded = 0
    hyper = None
    log_ml = None

    if spec.kernel_kind == "none":
        rnd_rng = _derived_rng(repeat_seed, _TAG_RANDOM, round_index)
        acquired_seqs = _propose_random_mutants(
            observed, config.parental, q, rnd_rng, exclude=observed_set
        )
        likelihoods = np.array(
            [providers.constraint.pseudo_likelihood(s) for s in acquired_seqs]
        )
        sel_records = [
            AcquiredRecord(s, None, None, None, None, float(likelihoods[i]), None, False)
            for i, s in enumerate(acquired_seqs)
        ]
    else:
        model = fit_gp(
            dataset,
            kernel_template,
            mean_template,
            noise=config.gp.noise_init,
            fit_noise=config.gp.fit_noise,
            restarts=config.gp.restarts,
            seed=_derived_int(repeat_seed, _TAG_FIT, round_index),
        )
        hyper = model.hyperparameters()
        log_ml = model.log_marginal_likelihood()

        predict_cache: dict[str, np.ndarray] = {}

        def evaluator(seq: str) -> np.ndarray:
            value = predict_cache.get(seq)
            if value is None:
                mean_arr, std_arr = model.predict([representer(seq)])
                if constrained:
                    value = np.array(
                        [
                            mean_arr[0],
                            std_arr[0],
                            providers.constraint.pseudo_likelihood(seq),
                        ]
                    )
                else:
                    value = np.array([mean_arr[0], std_arr[0]])
                predict_cache[seq] = value
            return value

        order = np.argsort(dataset.y)[::-1]
        top_observed = [dataset.sequences[i] for i in order[:5]]
        ga_config = dataclasses.replace(
            config.ga,
            seed=_derived_int(repeat_seed, _TAG_GA, round_index),
            objective_set="mean_std_likelihood" if constrained else "mean_std",
        )
        result = evolve(
            config.parental,
            evaluator,
            ga_config,
            exclude=observed_set,
            seed_sequences=top_observed,
            front_writer=front_writer,
        )
        candidates = [seq for seq, _ in result.front]
        cand_objs = [obj for _, obj in result.front]

        if len(candidates) < q:
            in_batch = set(candidates)
            for seq, obj, rank, _ in result.ranked:
                if len(candidates) >= q:
                    break
                if rank == 0 or seq in in_batch:
                    continue
                candidates.append(seq)
                cand_objs.append(obj)
                in_batch.add(seq)
                n_padded += 1
        if len(candidates) < q:
            pad_rng = _derived_rng(repeat_seed, _TAG_PAD, round_index)
            extra = _propose_random_mutants(
                observed,
                config.parental,
                q - len(candidates),
                pad_rng,
                exclude=observed_set | set(candidates),
            )
            for seq in extra:
                candidates.append(seq)
                cand_objs.append(evaluator(seq))
                n_padded += 1

        objs = np.stack(cand_objs)
        means, stds = objs[:, 0], objs[:, 1]
        likelihoods = (
            objs[:, 2]
            if constrained
            else np.array([providers.constraint.pseudo_likelihood(s) for s in candidates])
        )
        problem = PortfolioProblem(
            means, stds, likelihoods=likelihoods if constrained else None
        )
        sel, r_vals, z_vals = select_batch(problem, q, return_details=True)
        acquired_seqs = [candidates[i] for i in sel]
        sel_records = [
            AcquiredRecord(
                candidates[i],
                float(means[i]),
                float(stds[i]),
                float(r_vals[i]),
                float(z_vals[i]),
                float(likelihoods[i]),
                None,
                False,
            )
            for i in sel
        ]
        likelihoods = np.array([rec.likelihood for rec in sel_records])

    drop_rng = _derived_rng(repeat_seed, _TAG_DROP, round_index)
    drop_positions = set(
        drop_rng.choice(q, size=proto.drop_count, replace=False).tolist()
    )
    surviving: list[str] = []
    for pos, record in enumerate(sel_records):
        if pos in drop_positions:
            record.dropped = True
        else:
            surviving.append(record.sequence)
            record.oracle_value = oracle.value(record.sequence)

    new_y = [rec.oracle_value for rec in sel_records if not rec.dropped]
    dataset = dataset.extended(
        surviving, [representer(s) for s in surviving], new_y
    )
    observed = observed + surviving
    best_so_far = max(best_so_far, max(new_y))

    rmsd_mean, rmsd_max = _batch_rmsd(acquired_seqs, providers.features)
    record = RoundRecord(
        round_index=round_index,
        n_data=len(dataset),
        best_so_far=float(best_so_far),
        batch_mean_likelihood=float(np.mean(likelihoods)),
        rmsd_mean=rmsd_mean,
        rmsd_max=rmsd_max,
        n_padded=n_padded,
        hyperparameters=hyper,
        log_marginal_likelihood=log_ml,
        acquired=sel_records,
    )
    return record, dataset, observed, best_so_far


def run_campaign(
    config: CampaignConfig,
    *,
    verbose: bool = False,
    progress: Callable[[str], None] | None = None,
    front_dump_dir: str | Path | None = None,
) -> CampaignResult:
    """Run all repeats of the configured campaign and return the full logs.

    Repeat i uses seed `config.seed + i`. The mutant pool, oracle, and feature
    providers derive from the base seed alone, so repeats (and different
    methods on the same seed) share the landscape and starting pool and differ
    only in sampling, optimization, and attrition randomness.
    """
    spec, constrained = resolve_method(config.method)
    proto = config.protocol
    say = progress if progress is not None else (print if verbose else None)

    oracle = _build_oracle(config)
    providers = _build_providers(config, spec, constrained)
    kernel_template = _build_kernel(spec, providers, config)
    mean_template = _build_mean(spec, providers, config) if spec.kernel_kind != "none" else None
    representer = _Representer(config.parental, _fields_for(spec), providers.features)

    pool = generate_pool(
        config.parental,
        proto.initial_pool_size,
        _derived_rng(config.seed, _TAG_POOL),
        max_sites=2,
    )

    logs: list[CampaignLog] = []
    for repeat in range(proto.repeats):
        repeat_seed = config.seed + repeat
        init_rng = _derived_rng(repeat_seed, _TAG_INIT)
        picks = init_rng.choice(len(pool), size=proto.initial_sample_size, replace=False)
        initial = [pool[i] for i in picks]
        y0 = [oracle.value(s) for s in initial]
        dataset = Dataset(initial, [representer(s) for s in initial], y0)
        observed = list(initial)
        best = float(np.max(y0))
        records = [RoundRecord(round_index=0, n_data=len(dataset), best_so_far=best)]
        if say:
            say(
                f"[{config.method} rep {repeat}] round 0: n={len(dataset)} "
                f"best={best:.4f}"
            )

        for round_index in range(1, proto.rounds + 1):
            front_writer = None
            if front_dump_dir is not None and config.dump_fronts:
                front_writer = _make_front_writer(
                    Path(front_dump_dir), repeat, round_index
                )
            record, dataset, observed, best = _run_round(
                config=config,
                spec=spec,
                constrained=constrained,
                round_index=round_index,
                repeat_seed=repeat_seed,
                dataset=dataset,
                observed=observed,
                best_so_far=best,
                oracle=oracle,
                providers=providers,
                kernel_template=kernel_template,
                mean_template=mean_template,
                representer=representer,
                front_writer=front_writer,
            )
            records.append(record)
            if say:
                say(
                    f"[{config.method} rep {repeat}] round {round_index}: "
                    f"n={record.n_data} best={record.best_so_far:.4f} "
                    f"padded={record.n_padded}"
                )
        logs.append(CampaignLog(config.method, repeat_seed, repeat, records))

    return CampaignResult(config.method, config.seed, proto, logs)


def _make_front_writer(out_dir: Path, repeat: int, round_index: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fronts_rep{repeat}_round{round_index}.csv"
    fh = path.open("w", newline="")
    writer = csv.writer(fh)
    writer.writerow(["generation", "sequence", "objectives"])

    def write(generation: int, sequences: list[str], objectives: np.ndarray) -> None:
        for seq, obj in zip(sequences, objectives):
            writer.writerow([generation, seq, " ".join(f"{v:.8g}" for v in obj)])
        fh.flush()

    return write


# ---------------------------------------------------------------------------
# validation and output files


def validate_campaign(config: CampaignConfig) -> list[str]:
    """Cheap consistency checks plus a dry-run GP fit; returns found problems."""
    problems: list[str] = []
    try:
        spec, constrained = resolve_method(config.method)
    except ConfigError as err:
        return [str(err)]

    proto = config.protocol
    final = proto.expected_size(proto.rounds)
    if proto.batch_size > config.ga.population_size and spec.kernel_kind != "none":
        problems.append(
            f"batch_size {proto.batch_size} exceeds GA population "
            f"{config.ga.population_size}; batches will rely on random padding"
        )

    try:
        blosum62_matrix()
    except ValueError as err:
        problems.append(f"bundled substitution matrix failed to load: {err}")

    try:
        oracle = _build_oracle(config)
        providers = _build_providers(config, spec, constrained)
    except (FixtureError, ConfigError) as err:
        problems.append(str(err))
        return problems
    if isinstance(oracle, FixtureOracle):
        problems.append(
            f"the fixture oracle labels only the {len(oracle.table)} sequences of its "
            "table, but every round acquires newly proposed designs; the campaign will "
            "stop with a fixture error at the first one outside the table"
        )

    try:
        kernel = _build_kernel(spec, providers, config)
        mean = _build_mean(spec, providers, config) if spec.kernel_kind != "none" else None
        representer = _Representer(config.parental, _fields_for(spec), providers.features)
        pool = generate_pool(
            config.parental,
            proto.initial_pool_size,
            _derived_rng(config.seed, _TAG_POOL),
            max_sites=2,
        )
        picks = _derived_rng(config.seed, _TAG_INIT).choice(
            len(pool), size=proto.initial_sample_size, replace=False
        )
        initial = [pool[i] for i in picks]
        y0 = [oracle.value(s) for s in initial]
        if spec.kernel_kind != "none":
            dataset = Dataset(initial, [representer(s) for s in initial], y0)
            fit_gp(
                dataset,
                kernel,
                mean,
                noise=config.gp.noise_init,
                fit_noise=config.gp.fit_noise,
                restarts=1,
                seed=config.seed,
            )
    except (FixtureError, ConfigError) as err:
        problems.append(str(err))
    except Exception as err:  # dry-run failures should be reported, not crash
        problems.append(f"dry-run failed: {type(err).__name__}: {err}")
    else:
        if final < proto.initial_sample_size:
            problems.append("protocol arithmetic is inconsistent")
    return problems


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_rounds_csv(path: str | Path, result: CampaignResult) -> None:
    """Long-format per-round metrics, one row per (repeat, round)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = [
        "method",
        "repeat",
        "round",
        "n_data",
        "best_so_far",
        "batch_mean_likelihood",
        "batch_rmsd_mean",
        "batch_rmsd_max",
        "n_padded",
        "log_marginal_likelihood",
    ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for log in result.logs:
            for rec in log.records:
                writer.writerow(
                    [
                        result.method,
                        log.repeat,
                        rec.round_index,
                        rec.n_data,
                        _fmt(rec.best_so_far),
                        _fmt(rec.batch_mean_likelihood),
                        _fmt(rec.rmsd_mean),
                        _fmt(rec.rmsd_max),
                        rec.n_padded,
                        _fmt(rec.log_marginal_likelihood),
                    ]
                )


def write_aggregate_csv(path: str | Path, result: CampaignResult) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = result.aggregate()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "best_so_far_mean", "best_so_far_se", "repeats"])
        for row in rows:
            writer.writerow(
                [
                    row["round"],
                    _fmt(row["best_so_far_mean"]),
                    _fmt(row["best_so_far_se"]),
                    row["repeats"],
                ]
            )


def write_hyperparameter_files(out_dir: str | Path, result: CampaignResult) -> None:
    """One name = value text file per repeat and round, skipped for Random."""
    out_dir = Path(out_dir)
    for log in result.logs:
        rep_dir = out_dir / f"rep{log.repeat}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        for rec in log.records:
            if rec.hyperparameters is None:
                continue
            lines = [f"round = {rec.round_index}"]
            if rec.log_marginal_likelihood is not None:
                lines.append(f"log_marginal_likelihood = {rec.log_marginal_likelihood:.10g}")
            lines += [
                f"{name} = {value:.10g}"
                for name, value in sorted(rec.hyperparameters.items())
            ]
            (rep_dir / f"hyperparams_round{rec.round_index}.txt").write_text(
                "\n".join(lines) + "\n"
            )


def write_acquisition_files(out_dir: str | Path, result: CampaignResult) -> None:
    """Per-round candidate-level CSVs of the selected batches."""
    out_dir = Path(out_dir)
    for log in result.logs:
        rep_dir = out_dir / f"rep{log.repeat}"
        for rec in log.records:
            if not rec.acquired:
                continue
            write_acquisition_csv(
                rep_dir / f"acquisitions_round{rec.round_index}.csv",
                [a.sequence for a in rec.acquired],
                [a.mean if a.mean is not None else float("nan") for a in rec.acquired],
                [a.std if a.std is not None else float("nan") for a in rec.acquired],
                None if rec.acquired[0].r is None else [a.r for a in rec.acquired],
                None if rec.acquired[0].z is None else [a.z for a in rec.acquired],
                [a.likelihood for a in rec.acquired],
                selected=range(len(rec.acquired)),
            )
