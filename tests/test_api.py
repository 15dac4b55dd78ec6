"""The package's public names resolve, and so do the ones the benchmark's
tracer (`bench/tracing.py`) wraps by name."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import abbo

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
