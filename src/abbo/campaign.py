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
import functools
import json
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import numpy as np
import yaml

from ._blas import one_thread
from .acquisition import PortfolioProblem, select_batch
from .exceptions import ConfigError, FixtureError
from .features import (
    FixtureFeatureProvider,
    StructureContext,
    SyntheticFeatureProvider,
    load_structure_context,
    synthetic_structure_context,
)
from .gaopt import GAConfig, evolve
from .gp import NOISE_BOUNDS, ConstantMean, Dataset, GPModel, ZeroShotMean, fit_gp
from .kernels import (
    Kernel,
    KernelInputs,
    KermutKernel,
    Matern52Kernel,
    SumKernel,
    TanimotoKernel,
)
from .plm import (
    PROB_FLOOR,
    PssmLikelihoodProvider,
    TableLikelihoodProvider,
    _table_entry,
    load_likelihood_table,
    load_pssm,
    substitution_softmax_pssm,
)
from .sequences import (
    ALPHABET,
    blosum62_matrix,
    one_hot_matrix,
    residue_indices,
    validate_sequence,
)

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
    "write_round_log",
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
        MethodSpec("IgFold-ESM-M", "constant", "matern52", "embedding_coords"),
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


def registered_method_names() -> list[str]:
    names = sorted(METHOD_REGISTRY)
    return names + [f"{CONSTRAINED_PREFIX}{n}" for n in names if n != "Random"]


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
        for seq, label in self.table.items():
            if not np.isfinite(label):
                raise FixtureError(f"oracle fixture label for sequence {seq!r} is {label}")

    def value(self, seq: str) -> float:
        return _table_entry(self.table, "oracle", seq)

    __call__ = value


# ---------------------------------------------------------------------------
# configuration


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


# config keys that differ from their dataclass field's name
_CONFIG_KEYS = {"table_path": "table", "kernel_overrides": "kernel", "mean_overrides": "mean"}
# fields that no key sets: each round derives the GA seed and objective set (`_run_round`)
_DERIVED_FIELDS = {GAConfig: frozenset({"seed", "objective_set"})}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _config_key(name: str, where: str) -> str:
    """The dotted config key of field `name` of section `where` ("" for the root)."""
    key = _CONFIG_KEYS.get(name, name)
    return f"{where}.{key}" if where else key


# a config class's field annotations, looked up once per class
_field_hints = functools.cache(get_type_hints)


def _is_number(value, kind: type = numbers.Real) -> bool:
    """Whether a config value is a number of `kind`: a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_start(where: str, value: float, bounds: tuple[float, float]) -> None:
    """A fitted parameter must start inside its bounds: L-BFGS-B would clip it there."""
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ConfigError(
            f"{where} {value} lies outside its fitted bounds [{lo}, {hi}]; "
            "move it inside them or freeze it"
        )


def _check_types(cls: type, values: dict, where: str) -> None:
    """Raise a ConfigError naming the key of the first value in `values` that
    does not match its field's bool, int, float or str annotation of `cls`.

    `X | None` also takes None; a bool is neither an int nor a float here,
    and an int is a float. Fields of other types are not checked.
    """
    for name, hint in _field_hints(cls).items():
        if name not in values:
            continue
        value = values[name]
        args = get_args(hint) or (hint,)
        kind = next((k for k in args if k in _TYPE_NAMES), None)
        if kind is None or (value is None and type(None) in args):
            continue
        if kind in (bool, str):
            ok = isinstance(value, kind)
        else:
            ok = _is_number(value, numbers.Integral if kind is int else numbers.Real)
        if not ok:
            raise ConfigError(
                f"{_config_key(name, where)} must be {_TYPE_NAMES[kind]}, got {value!r}"
            )


def _mapping(value, where: str) -> dict:
    """A config section's mapping; an absent (null) section is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {where!r} must be a mapping, got {value!r}")
    return dict(value)


def _read_config(cls: type, raw: dict, where: str, base: Path):
    """Build the config dataclass `cls` from its section `raw` ("" is the root).

    The allowed keys are the fields of `cls`, renamed by `_CONFIG_KEYS` and
    less `_DERIVED_FIELDS`. Scalar values are type-checked against the
    field annotations, every `*_path` value resolves against `base`, a
    dataclass-typed field reads its own section, and a `dict` field takes a
    mapping as it is. Range and contradiction checks are the dataclass's own.
    """
    derived = _DERIVED_FIELDS.get(cls, frozenset())
    names = {
        _CONFIG_KEYS.get(f.name, f.name): f.name
        for f in dataclasses.fields(cls)
        if f.name not in derived
    }
    _require_keys(raw, set(names), where or "config root")
    values = {names[key]: value for key, value in raw.items()}
    _check_types(cls, values, where)
    for name, value in values.items():
        hint, key = _field_hints(cls)[name], _config_key(name, where)
        if name.endswith("_path") and value is not None:
            values[name] = str(base / value)  # `/` keeps an absolute path as it is
        elif dataclasses.is_dataclass(hint):
            values[name] = _read_config(hint, _mapping(value, key), key, base)
        elif hint is dict:
            values[name] = _mapping(value, key)
    return cls(**values)


@dataclass
class ProtocolConfig:
    initial_pool_size: int = 159
    initial_sample_size: int = 50
    rounds: int = 9
    batch_size: int = 80
    drop_count: int = 30
    repeats: int = 3

    def __post_init__(self) -> None:
        _check_types(ProtocolConfig, vars(self), "protocol")
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
        _check_types(OracleConfig, vars(self), "oracle")
        if self.kind not in self.KINDS:
            raise ConfigError(f"oracle.kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.kind == "fixture" and not self.table_path:
            raise ConfigError("oracle.kind 'fixture' needs oracle.table")
        if self.kind != "fixture" and self.table_path is not None:
            raise ConfigError(f"oracle.table is read only by kind 'fixture', not {self.kind!r}")


@dataclass
class ProviderConfig:
    """Fixture paths of the providers: each provider replays its fixtures when
    its path is set and is synthetic otherwise (`_build_providers`). A set
    path that the method does not read (`_provider_keys`) is a ConfigError."""

    embedding_path: str | None = None
    coords_path: str | None = None
    site_probs_path: str | None = None
    distances_path: str | None = None
    antibody_site_probs_path: str | None = None
    antibody_distances_path: str | None = None
    constraint_pssm_path: str | None = None
    constraint_table_path: str | None = None
    zero_shot_pssm_path: str | None = None
    antibody_zero_shot_pssm_path: str | None = None

    def __post_init__(self) -> None:
        _check_types(ProviderConfig, vars(self), "providers")


@dataclass
class GPConfig:
    restarts: int = 8
    noise_init: float = 0.1
    fit_noise: bool = True

    def __post_init__(self) -> None:
        _check_types(GPConfig, vars(self), "gp")
        if self.restarts < 1:
            raise ConfigError("gp.restarts must be >= 1")
        if self.noise_init <= 0:
            raise ConfigError("gp.noise_init must be positive")
        if self.fit_noise:
            _check_start("gp.noise_init", self.noise_init, NOISE_BOUNDS)


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
    dump_fronts: bool = False

    def __post_init__(self) -> None:
        _check_types(CampaignConfig, vars(self), "")
        try:
            validate_sequence(self.parental)
        except ValueError as err:
            raise ConfigError(f"parental sequence: {err}") from None
        if len(self.parental) < 3:
            raise ConfigError("parental sequence must have length >= 3")
        resolve_method(self.method)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".") -> "CampaignConfig":
        """The config of a parsed YAML mapping; relative paths resolve against
        `base_dir`, or against `$ABBO_FIXTURE_ROOT` when that is set."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        if "parental" not in raw:
            raise ConfigError("config is missing the required 'parental' key")
        fixture_root = os.environ.get("ABBO_FIXTURE_ROOT")
        return _read_config(cls, raw, "", Path(fixture_root or base_dir))

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


# representation fields that only a feature provider can supply
_PROVIDER_FIELDS = frozenset({"embedding", "coords", "embedding_coords"})
# the synthetic antibody context and zero-shot table sample at this temperature
_ANTIBODY_TEMPERATURE = 0.8


@dataclass
class _Providers:
    features: SyntheticFeatureProvider | FixtureFeatureProvider
    context: StructureContext | None  # Kermut's, standard or antibody
    constraint: PssmLikelihoodProvider | TableLikelihoodProvider
    zero_shot: np.ndarray | None  # log-probabilities of the zero-shot mean


def _build_oracle(config: CampaignConfig):
    if config.oracle.kind == "fixture":
        return FixtureOracle(load_likelihood_table(config.oracle.table_path))
    kind = "affinity" if config.oracle.kind.endswith("affinity") else "stability"
    seed = config.seed if config.oracle.seed is None else config.oracle.seed
    return SyntheticOracle(config.parental, kind=kind, seed=seed)


def _context_paths(prov: ProviderConfig, prefix: str) -> tuple[str, str] | None:
    """A structure context's site-probability and distance paths: both set, or neither."""
    keys = (f"{prefix}site_probs_path", f"{prefix}distances_path")
    paths = tuple(getattr(prov, key) for key in keys)
    if paths.count(None) == 1:
        raise ConfigError(f"providers.{keys[0]} and providers.{keys[1]} must be set together")
    return None if paths[0] is None else paths


def _provider_keys(spec: MethodSpec) -> set[str]:
    """The `providers:` path keys that a method of `spec` reads."""
    fields = _fields_for(spec)
    # every method logs its batches' pseudo-likelihoods
    keys = {"constraint_pssm_path", "constraint_table_path"}
    if fields & {"embedding", "embedding_coords"}:
        keys.add("embedding_path")
    if fields & {"coords", "embedding_coords"}:
        keys.add("coords_path")
    if spec.kernel_kind == "kermut":
        prefix = "antibody_" if spec.context_kind == "antibody" else ""
        keys |= {f"{prefix}site_probs_path", f"{prefix}distances_path"}
    if spec.mean_kind == "zero-shot":
        antibody = spec.mean_table == "antibody"
        keys.add("antibody_zero_shot_pssm_path" if antibody else "zero_shot_pssm_path")
    return keys


def _check_sites(sites: int, path: str, parental: str) -> None:
    """A per-site fixture table must have one row per parental residue."""
    if sites != len(parental):
        raise FixtureError(
            f"fixture {path} has {sites} sites, but the parental sequence has {len(parental)}"
        )


def _build_providers(config: CampaignConfig, spec: MethodSpec) -> _Providers:
    """Each provider replays its fixture paths when they are set, else is synthetic."""
    prov = config.providers
    parental = config.parental
    contexts = {"standard": _context_paths(prov, ""), "antibody": _context_paths(prov, "antibody_")}
    if prov.constraint_pssm_path is not None and prov.constraint_table_path is not None:
        raise ConfigError(
            "providers.constraint_pssm_path and providers.constraint_table_path "
            "are alternatives; set at most one"
        )
    read = _provider_keys(spec)
    for key, path in vars(prov).items():
        if path is not None and key not in read:
            readers = [name for name, s in METHOD_REGISTRY.items() if key in _provider_keys(s)]
            raise ConfigError(
                f"providers.{key} is set, but {config.method} does not read it; "
                f"it is read by {', '.join(readers)}"
            )

    if prov.embedding_path is None and prov.coords_path is None:
        # synthetic coordinates also feed the per-round RMSD log, whatever the method reads
        features = SyntheticFeatureProvider(parental, seed=config.seed)
    else:
        features = FixtureFeatureProvider(
            parental, embedding_path=prov.embedding_path, coords_path=prov.coords_path
        )

    context = None
    if spec.kernel_kind == "kermut":
        paths = contexts[spec.context_kind]
        temperature = _ANTIBODY_TEMPERATURE if spec.context_kind == "antibody" else 1.0
        if paths is None:
            context = synthetic_structure_context(parental, config.seed, temperature)
        else:
            context = load_structure_context(*paths)
            _check_sites(context.length, " and ".join(map(str, paths)), parental)

    if prov.constraint_table_path is not None:
        constraint = TableLikelihoodProvider(load_likelihood_table(prov.constraint_table_path))
    elif prov.constraint_pssm_path is not None:
        pssm = load_pssm(prov.constraint_pssm_path)
        _check_sites(len(pssm), prov.constraint_pssm_path, parental)
        constraint = PssmLikelihoodProvider(pssm)
    else:
        constraint = PssmLikelihoodProvider(substitution_softmax_pssm(parental))

    zero_shot = None
    if spec.mean_kind == "zero-shot":
        antibody = spec.mean_table == "antibody"
        path = prov.antibody_zero_shot_pssm_path if antibody else prov.zero_shot_pssm_path
        temperature = _ANTIBODY_TEMPERATURE if antibody else 1.0
        if path is None:
            probs = substitution_softmax_pssm(parental, temperature)
        else:
            probs = load_pssm(path)
            _check_sites(len(probs), path, parental)
        zero_shot = np.log(np.maximum(probs, PROB_FLOOR))

    return _Providers(features, context, constraint, zero_shot)


def _build_kernel(spec: MethodSpec, providers: _Providers, config: CampaignConfig) -> Kernel | None:
    if spec.kernel_kind == "none":
        return None
    if spec.kernel_kind == "tanimoto":
        kernel: Kernel = TanimotoKernel(spec.representation)
    elif spec.kernel_kind == "matern52":
        kernel = Matern52Kernel(spec.representation)
    elif spec.kernel_kind == "sum":
        kernel = SumKernel(
            [
                ("coords", Matern52Kernel("coords")),
                ("seq", TanimotoKernel(spec.representation)),
            ]
        )
    elif spec.kernel_kind == "kermut":
        kernel = KermutKernel(providers.context, TanimotoKernel(spec.representation))
    else:
        raise ConfigError(f"unknown kernel kind {spec.kernel_kind!r}")

    _apply_param_overrides(kernel, config.kernel_overrides, "kernel")
    return kernel


def _apply_param_overrides(target, overrides: dict, section: str) -> None:
    """Apply a `kernel:` or `mean:` config section to a kernel or prior mean.

    Each entry is `name: value` or `name: {value: ..., frozen: true|false}`.
    An unknown name, a value that is not a number (a bool or a string is
    not) or that the parameter rejects, or a non-boolean `frozen` is a
    ConfigError naming `section.name` and the available names. So is a value
    outside the parameter's bounds, unless the parameter is frozen.
    """
    for name, setting in overrides.items():
        name, where = str(name), f"{section}.{name}"
        if not isinstance(setting, dict):
            setting = {"value": setting}
        _require_keys(setting, {"value", "frozen"}, where)
        value, frozen = setting.get("value"), setting.get("frozen", False)
        available = f"available: {sorted(target.params())}"
        if "value" in setting and not _is_number(value):
            raise ConfigError(f"{where} must be a number, got {value!r}; {available}")
        try:
            if not isinstance(frozen, bool):
                raise ValueError(f"frozen must be true or false, got {frozen!r}")
            if "value" in setting:
                target.set_param(name, float(value))
            if frozen:
                target.freeze(name)
        except (KeyError, ValueError) as err:
            problem = "unknown hyperparameter" if isinstance(err, KeyError) else f"bad value: {err}"
            raise ConfigError(f"{where}: {problem}; {available}") from None
        if "value" in setting and name not in target.frozen():
            _check_start(where, float(value), target.bounds(name))


def _build_mean(spec: MethodSpec, providers: _Providers, config: CampaignConfig):
    if spec.mean_kind == "none":
        return None
    if spec.mean_kind == "constant":
        mean = ConstantMean(0.0)
    else:
        mean = ZeroShotMean(providers.zero_shot)
    _apply_param_overrides(mean, config.mean_overrides, "mean")
    return mean


@dataclass
class _Representation:
    """A batch of sequences as kernel inputs, plus the RMSD of each build when asked."""

    inputs: KernelInputs
    rmsd: np.ndarray | None


class _Representer:
    """Sequences -> KernelInputs with exactly the vector fields a method
    reads, a whole batch at a time.

    A batch is checked once, as the (m, L) residue-index array it carries;
    one-hot and BLOSUM rows are gathered from it as int8, which a Tanimoto
    kernel multiplies in exact single precision, and a method that reads
    embeddings or coordinates gets them from one `features_many` call.
    """

    def __init__(
        self,
        parental: str,
        fields: set[str],
        features: SyntheticFeatureProvider | FixtureFeatureProvider,
    ):
        self.parental = parental
        self.fields = fields
        self.features = features
        encodings = {"onehot": one_hot_matrix, "blosum": blosum62_matrix}
        # one-hot entries are 0/1 and BLOSUM-62's lie in [-4, 11]
        self._tables = {
            name: encodings[name]().table().astype(np.int8) for name in encodings if name in fields
        }

    def represent(self, seqs: list[str], *, rmsd: bool = False) -> _Representation:
        """Kernel inputs of `seqs`; with `rmsd`, also the RMSD of each build
        whenever the feature provider has parental coordinates."""
        idx = residue_indices(seqs, len(self.parental))
        m = len(seqs)
        vectors = {name: table[idx].reshape(m, -1) for name, table in self._tables.items()}
        bundle = None
        if _PROVIDER_FIELDS & self.fields or (rmsd and self.features.parental_coords is not None):
            bundle = self.features.features_many(seqs)
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
            vectors["embedding_coords"] = np.concatenate([bundle.embedding, bundle.coords], axis=1)
        return _Representation(
            KernelInputs(vectors, idx, self.parental),
            None if bundle is None or not rmsd else bundle.rmsd,
        )


def _fields_for(spec: MethodSpec) -> set[str]:
    rep = spec.representation
    if rep is None:
        return set()
    if spec.kernel_kind == "sum":
        return {"coords", rep}
    return {rep}


@dataclass
class _Assembly:
    """What a campaign builds once from its config; kernel and mean are None for Random."""

    config: CampaignConfig
    spec: MethodSpec
    constrained: bool
    oracle: SyntheticOracle | FixtureOracle
    providers: _Providers
    kernel: Kernel | None
    mean: ConstantMean | ZeroShotMean | None
    representer: _Representer
    pool: list[str]


def _assemble(config: CampaignConfig) -> _Assembly:
    """Build the oracle, providers, kernel, mean, representer and pool of a campaign."""
    spec, constrained = resolve_method(config.method)
    oracle = _build_oracle(config)
    providers = _build_providers(config, spec)
    return _Assembly(
        config=config,
        spec=spec,
        constrained=constrained,
        oracle=oracle,
        providers=providers,
        kernel=_build_kernel(spec, providers, config),
        mean=_build_mean(spec, providers, config),
        representer=_Representer(config.parental, _fields_for(spec), providers.features),
        pool=generate_pool(
            config.parental,
            config.protocol.initial_pool_size,
            _derived_rng(config.seed, _TAG_POOL),
            max_sites=2,
        ),
    )


def _initial_dataset(asm: _Assembly, repeat_seed: int) -> Dataset:
    """The repeat's seeded sample of the pool, labelled by the oracle."""
    picks = _derived_rng(repeat_seed, _TAG_INIT).choice(
        len(asm.pool), size=asm.config.protocol.initial_sample_size, replace=False
    )
    initial = [asm.pool[i] for i in picks]
    y0 = [asm.oracle.value(s) for s in initial]
    return Dataset(initial, asm.representer.represent(initial).inputs, y0)


# ---------------------------------------------------------------------------
# pools and random proposals


def _space_size(length: int, max_sites: int) -> int:
    from math import comb

    return sum(comb(length, k) * (len(ALPHABET) - 1) ** k for k in range(1, max_sites + 1))


def _random_mutant(base: str, max_sites: int, rng: np.random.Generator) -> str:
    """`base` with 1..max_sites distinct random sites each set to another residue."""
    k = int(rng.integers(1, max_sites + 1))
    positions = rng.choice(len(base), size=k, replace=False)
    chars = list(base)
    for pos in positions:
        options = [aa for aa in ALPHABET if aa != base[pos]]
        chars[pos] = options[rng.integers(len(options))]
    return "".join(chars)


def generate_pool(
    parental: str, size: int, rng: np.random.Generator, max_sites: int = 2
) -> list[str]:
    """Unique random 1..max_sites-site mutants of the parental."""
    length = len(parental)
    if size > _space_size(length, max_sites):
        raise ConfigError(
            f"pool of {size} unique <= {max_sites}-site mutants impossible for length {length}"
        )
    # with one base, choosing the base draws nothing from `rng`
    return _propose_random_mutants([parental], size, rng, {parental}, max_sites)


def _propose_random_mutants(
    bases: list[str],
    count: int,
    rng: np.random.Generator,
    exclude: set[str],
    max_sites: int = 3,
) -> list[str]:
    """Random 1..max_sites-site mutants of randomly chosen base sequences."""
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
        candidate = _random_mutant(base, max_sites, rng)
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
    log_marginal_likelihood: np.float64 | None = None
    acquired: list[AcquiredRecord] = field(default_factory=list)


@dataclass
class CampaignLog:
    method: str
    seed: int
    repeat: int
    records: list[RoundRecord]

    def best_so_far_series(self) -> np.ndarray:
        return np.array([rec.best_so_far for rec in self.records])


@dataclass
class CampaignResult:
    method: str
    seed: int
    protocol: ProtocolConfig
    logs: list[CampaignLog]


# ---------------------------------------------------------------------------
# campaign execution


def _derived_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _derived_int(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _fit(asm: _Assembly, dataset: Dataset, restarts: int, seed: int) -> GPModel:
    """The method's GP fitted to `dataset` under the config's noise settings."""
    return fit_gp(
        dataset,
        asm.kernel,
        asm.mean,
        noise=asm.config.gp.noise_init,
        fit_noise=asm.config.gp.fit_noise,
        restarts=restarts,
        seed=seed,
    )


def _batch_objectives(asm: _Assembly, model: GPModel) -> Callable[[list[str]], np.ndarray]:
    """The GA's scorer: one (m, k) row of objectives per sequence of a batch.

    The columns are the posterior mean and standard deviation, plus the
    pseudo-likelihood for a constrained method; a batch costs one
    representation, one posterior predict and one likelihood pass. A row's
    last bits depend on its batch-mates: the predict's products and solve
    are blocked over the whole batch, so scoring a batch in two parts moves
    rows by up to ~1e-13 on one-hot and Kermut runs and ~1e-9 with a Matern
    term (README, "Threads and reproducibility"). The seed fixes the batches,
    so campaigns reproduce; splitting GA scoring across processes would not.
    """

    def evaluate_many(seqs: list[str]) -> np.ndarray:
        means, stds = model.predict(asm.representer.represent(seqs).inputs)
        columns = [means, stds]
        if asm.constrained:
            columns.append(asm.providers.constraint.pseudo_likelihoods(seqs))
        return np.column_stack(columns)

    return evaluate_many


def _run_round(
    asm: _Assembly,
    dataset: Dataset,
    repeat_seed: int,
    round_index: int,
    front_writer: Callable | None,
) -> tuple[RoundRecord, Dataset]:
    """Fit, search, select, drop and label one round; return its record and the grown data."""
    config, spec, constrained = asm.config, asm.spec, asm.constrained
    constraint, representer = asm.providers.constraint, asm.representer
    q = config.protocol.batch_size
    observed_set = set(dataset.sequences)

    n_padded = 0
    hyper = None
    log_ml = None

    if spec.kernel_kind == "none":
        rnd_rng = _derived_rng(repeat_seed, _TAG_RANDOM, round_index)
        acquired_seqs = _propose_random_mutants(
            dataset.sequences, q, rnd_rng, exclude=observed_set
        )
        likelihoods = constraint.pseudo_likelihoods(acquired_seqs)
        sel_records = [
            AcquiredRecord(s, None, None, None, None, float(likelihoods[i]), None, False)
            for i, s in enumerate(acquired_seqs)
        ]
    else:
        model = _fit(
            asm, dataset, config.gp.restarts, _derived_int(repeat_seed, _TAG_FIT, round_index)
        )
        hyper = model.hyperparameters()
        log_ml = model.log_marginal_likelihood()

        evaluate_many = _batch_objectives(asm, model)
        order = np.argsort(dataset.y)[::-1]
        top_observed = [dataset.sequences[i] for i in order[:5]]
        ga_config = dataclasses.replace(
            config.ga,
            seed=_derived_int(repeat_seed, _TAG_GA, round_index),
            objective_set="mean_std_likelihood" if constrained else "mean_std",
        )
        result = evolve(
            config.parental,
            evaluate_many,
            ga_config,
            exclude=observed_set,
            seed_sequences=top_observed,
            front_writer=front_writer,
        )
        # `ranked` is the front first, then the runners-up by rank, without repeats
        kept = result.ranked[: max(q, len(result.front))]
        candidates = [seq for seq, *_ in kept]
        cand_objs = [obj for _, obj, *_ in kept]
        n_padded = len(kept) - len(result.front)
        if len(candidates) < q:
            pad_rng = _derived_rng(repeat_seed, _TAG_PAD, round_index)
            extra = _propose_random_mutants(
                dataset.sequences,
                q - len(candidates),
                pad_rng,
                exclude=observed_set | set(candidates),
            )
            candidates += extra
            cand_objs += list(evaluate_many(extra))
            n_padded += len(extra)

        objs = np.stack(cand_objs)
        means, stds = objs[:, 0], objs[:, 1]
        likelihoods = constraint.pseudo_likelihoods(candidates)
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
        likelihoods = likelihoods[sel]

    drop_rng = _derived_rng(repeat_seed, _TAG_DROP, round_index)
    drop_positions = set(
        drop_rng.choice(q, size=config.protocol.drop_count, replace=False).tolist()
    )
    for pos, record in enumerate(sel_records):
        if pos in drop_positions:
            record.dropped = True
        else:
            record.oracle_value = asm.oracle.value(record.sequence)

    # one representation of the acquired batch feeds the dataset and the RMSD log
    acquired = representer.represent(acquired_seqs, rmsd=True)
    kept_pos = [pos for pos, rec in enumerate(sel_records) if not rec.dropped]
    dataset = dataset.extended(
        [acquired_seqs[pos] for pos in kept_pos],
        acquired.inputs[kept_pos],
        [sel_records[pos].oracle_value for pos in kept_pos],
    )

    rmsd_mean = rmsd_max = None
    if acquired.rmsd is not None:
        rmsd_mean, rmsd_max = float(np.mean(acquired.rmsd)), float(np.max(acquired.rmsd))
    record = RoundRecord(
        round_index=round_index,
        n_data=len(dataset),
        best_so_far=float(np.max(dataset.y)),
        batch_mean_likelihood=float(np.mean(likelihoods)),
        rmsd_mean=rmsd_mean,
        rmsd_max=rmsd_max,
        n_padded=n_padded,
        hyperparameters=hyper,
        log_marginal_likelihood=log_ml,
        acquired=sel_records,
    )
    return record, dataset


@one_thread()
def run_campaign(
    config: CampaignConfig,
    *,
    verbose: bool = False,
    front_dump_dir: str | Path | None = None,
) -> CampaignResult:
    """Run all repeats of the configured campaign and return the full logs.

    Repeat i uses seed `config.seed + i`. The mutant pool, oracle, and feature
    providers derive from the base seed alone, so repeats (and different
    methods on the same seed) share the landscape and starting pool and differ
    only in sampling, optimization, and attrition randomness. With
    `front_dump_dir`, every GA generation's front is written under it.
    """
    asm = _assemble(config)
    front_dir = None if front_dump_dir is None else Path(front_dump_dir)

    logs: list[CampaignLog] = []
    for repeat in range(config.protocol.repeats):
        repeat_seed = config.seed + repeat
        dataset = _initial_dataset(asm, repeat_seed)
        best = float(np.max(dataset.y))
        records = [RoundRecord(round_index=0, n_data=len(dataset), best_so_far=best)]
        if verbose:
            print(
                f"[{config.method} rep {repeat}] round 0: n={len(dataset)} "
                f"best={best:.4f}"
            )

        for round_index in range(1, config.protocol.rounds + 1):
            with _front_writer(front_dir, repeat, round_index) as front_writer:
                record, dataset = _run_round(
                    asm, dataset, repeat_seed, round_index, front_writer
                )
            records.append(record)
            if verbose:
                print(
                    f"[{config.method} rep {repeat}] round {round_index}: "
                    f"n={record.n_data} best={record.best_so_far:.4f} "
                    f"padded={record.n_padded}"
                )
        logs.append(CampaignLog(config.method, repeat_seed, repeat, records))

    return CampaignResult(config.method, config.seed, config.protocol, logs)


@contextmanager
def _front_writer(out_dir: Path | None, repeat: int, round_index: int):
    """Yield a per-generation writer into `fronts_rep*_round*.csv` under
    `out_dir`, closing the file on exit; yield None when `out_dir` is None."""
    if out_dir is None:
        yield None
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fronts_rep{repeat}_round{round_index}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "sequence", "objectives"])

        def write(generation: int, sequences: list[str], objectives: np.ndarray) -> None:
            for seq, obj in zip(sequences, objectives):
                writer.writerow([generation, seq, " ".join(f"{v:.8g}" for v in obj)])
            fh.flush()

        yield write


# ---------------------------------------------------------------------------
# validation and output files


@one_thread()
def validate_campaign(config: CampaignConfig) -> list[str]:
    """Cheap consistency checks plus a dry-run GP fit; returns found problems.

    The dry run assembles the campaign as `run_campaign` does and fits one
    restart on repeat 0's initial sample.
    """
    problems: list[str] = []
    try:
        spec, _ = resolve_method(config.method)
    except ConfigError as err:
        return [str(err)]

    proto = config.protocol
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
        asm = _assemble(config)
        if isinstance(asm.oracle, FixtureOracle):
            problems.append(
                f"the fixture oracle labels only the {len(asm.oracle.table)} sequences of "
                "its table, but every round acquires newly proposed designs; the campaign "
                "will stop with a fixture error at the first one outside the table"
            )
        dataset = _initial_dataset(asm, config.seed)
        if asm.kernel is not None:
            _fit(asm, dataset, 1, config.seed)
    except (FixtureError, ConfigError) as err:
        problems.append(str(err))
    except Exception as err:  # dry-run failures should be reported, not crash
        problems.append(f"dry-run failed: {type(err).__name__}: {err}")
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


def write_round_log(path: str | Path, result: CampaignResult) -> None:
    """Every round record as one JSON line, one per (repeat, round) in log order:
    the repeat's `method`, `seed` and `repeat`, then each `RoundRecord` field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for log in result.logs:
            for rec in log.records:
                line = {"method": log.method, "seed": log.seed, "repeat": log.repeat}
                fh.write(json.dumps({**line, **dataclasses.asdict(rec)}) + "\n")
