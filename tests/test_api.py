"""The package's public names resolve, and so do the ones the benchmark's
tracer (`bench/tracing.py`) wraps by name; the option count is pinned; README
names every provider key and the methods that read it, and gives every
hyperparameter's transform and bounds."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

import abbo
from abbo.campaign import (
    METHOD_REGISTRY,
    CampaignConfig,
    ProviderConfig,
    _build_kernel,
    _build_mean,
    _build_providers,
    _provider_keys,
    registered_method_names,
    resolve_method,
)
from abbo.cli import _build_parser
from abbo.gp import _Noise

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
TRACING = ROOT / "bench" / "tracing.py"
MODULES = ["abbo"] + [
    f"abbo.{info.name}" for info in pkgutil.iter_modules(abbo.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_benchmark_tracer_installs_and_uninstalls():
    import abbo.gp
    import abbo.kernels

    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (abbo.gp.zero_shot_score, abbo.kernels.KermutKernel.prepare)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # looks up every wrapped function and method by name
        assert abbo.gp.zero_shot_score is not originals[0]
        assert abbo.kernels.KermutKernel.prepare is not originals[1]
    finally:
        tracer.uninstall()
    assert (abbo.gp.zero_shot_score, abbo.kernels.KermutKernel.prepare) == originals


def test_readme_names_every_provider_key():
    readme = (ROOT / "README.md").read_text()
    keys = {f.name for f in dataclasses.fields(ProviderConfig)}
    spans = set(re.findall(r"`([^`\n]+)`", readme))
    assert keys <= spans, f"README does not name {sorted(keys - spans)}"
    # the keys that once chose a provider's source are rejected now; no example sets one
    kinds = {"features", "structure", "antibody_structure"}
    kinds |= {"constraint", "zero_shot", "antibody_zero_shot"}
    for block in re.findall(r"```yaml\n(.*?)```", readme, flags=re.S):
        providers = yaml.safe_load(block).get("providers") or {}
        assert set(providers) <= keys, f"README sets providers keys {sorted(set(providers) - keys)}"
    dotted = set(re.findall(r"providers\.(\w+)", readme)) | set(
        re.findall(r"providers: \{(\w+):", readme)
    )
    assert not dotted & kinds, f"README names deleted providers keys {sorted(dotted & kinds)}"
    # each row of the Providers table names the base methods that read its keys
    section = readme.split("## Providers", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    assert {key for row in rows for key in re.findall(r"`(\w+)`", row[0])} == keys
    for row in rows:
        listed = set(re.findall(r"`([^`]+)`", row[2]))
        if "every method" in row[2]:
            listed |= set(METHOD_REGISTRY)
        for key in re.findall(r"`(\w+)`", row[0]):
            readers = {name for name, s in METHOD_REGISTRY.items() if key in _provider_keys(s)}
            assert listed == readers, f"README's readers of {key}: {sorted(listed)}"


def options() -> list[str]:
    """Every option a user can set: the defaulted parameters of each callable
    in a module's `__all__` (functions, constructors and public methods), the
    defaulted fields of its dataclasses, and the CLI flags."""
    found, seen = [], set()

    def defaulted(owner: str, fn) -> None:
        params = inspect.signature(fn).parameters.values()
        found.extend(f"{owner}({p.name}=)" for p in params if p.default is not p.empty)

    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if id(obj) in seen or not callable(obj):
                continue
            seen.add(id(obj))
            if not inspect.isclass(obj):
                defaulted(name, obj)
                continue
            if dataclasses.is_dataclass(obj):
                found.extend(
                    f"{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if (f.default, f.default_factory) != (dataclasses.MISSING,) * 2
                )
            else:
                defaulted(name, obj.__init__)
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    defaulted(f"{name}.{attr}", member)
    for command in _build_parser()._subparsers._group_actions[0].choices.values():
        found.extend(
            f"{command.prog} {a.option_strings[0]}"
            for a in command._actions
            if a.option_strings and "-h" not in a.option_strings
        )
    return found


def test_option_count_is_pinned():
    # a new option must be worth one; raise this only with a reason in CHANGES.md
    assert len(options()) == 113, sorted(options())


def test_readme_gives_every_hyperparameter_transform_and_bounds():
    section = README.split("| parameter | of | transform | bounds |", 1)[1].split("\n\n", 1)[0]
    table = {}
    for line in section.splitlines()[2:]:
        names, _, transform, bounds = (cell.strip() for cell in line.split("|")[1:-1])
        lo, hi = (float(b) for b in bounds.strip("[]").split(","))
        for name in re.findall(r"`([\w.]+)`", names):
            table[name] = (transform, (lo, hi))
    seen = {"noise.variance": (_Noise(0.1).transform("variance"), _Noise(0.1).bounds("variance"))}
    for method in registered_method_names():
        spec, _ = resolve_method(method)
        config = CampaignConfig(parental="MKTAYIAKQRQISFVKSHFSRQ", method=method)
        providers = _build_providers(config, spec)
        for part in (_build_kernel(spec, providers, config), _build_mean(spec, providers, config)):
            for name in part.params() if part is not None else ():
                entry = (part.transform(name), part.bounds(name))
                assert seen.setdefault(name.rpartition(".")[2], entry) == entry, (method, name)
    assert table == seen
