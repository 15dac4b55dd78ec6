"""The package's public names resolve, and so do the ones the benchmark's
tracer (`bench/tracing.py`) wraps by name; README names every provider key
and the methods that read it."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

import abbo
from abbo.campaign import METHOD_REGISTRY, ProviderConfig, _provider_keys

ROOT = Path(__file__).resolve().parents[1]
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
