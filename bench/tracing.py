"""Per-layer spans for the traced benchmark run.

`Tracer.install` replaces public functions and methods of the program's
modules with timing wrappers, at the name each calling module looks up: a
function is replaced in every `abbo` module that imported it, a method on the
class that defines it for its callers. Nothing in `src/` is edited.

A span's self time is its duration minus the durations of the spans it
encloses. A call made from inside a span of the same kind (a Kermut kernel
preparing its sequence kernel) adds its time but is not counted as a call.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

# Traced minus untraced `campaign_s` of the same seed; `run.py` adds it.
OVERHEAD = "trace.overhead_s"
# Derived from the summed calls and builds by `aggregate`.
HIT_RATIO = "features.cache_hit_ratio"

# (name, unit) of every per-layer metric of BENCHMARK.json but `OVERHEAD`, in
# report order.
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PER_LAYER = [
    (m["name"], m["unit"]) for m in json.loads(SPEC.read_text())["per_layer"] if m["name"] != OVERHEAD
]


class Tracer:
    """Span stack plus per-key call counts, self time and outermost time."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [key, seconds spent in enclosed spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # outermost spans only
        self.counts: Counter = Counter()
        self.providers: dict[int, object] = {}
        self._replaced: list[tuple[object, str, object]] = []  # (owner, name, original)

    def wrap(self, key: str, fn, after=None):
        """`fn` timed as span `key`; `after(args, kwargs, result)` records counts."""
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            nested = any(frame[0] == key for frame in stack)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not nested:
                    self.calls[key] += 1
                    self.total_s[key] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installation

    def install(self) -> None:
        from abbo import acquisition, campaign, features, gaopt, gp, kernels, plm, sequences

        counts = self.counts

        def count_jitter(args, kwargs, result):
            counts["gp.jitter_nonzero"] += int(result[1] > 0)

        def count_rows(args, kwargs, result):
            counts["gp.predict_rows"] += len(result[0])

        def count_candidates(args, kwargs, result):
            problem = args[0] if args else kwargs["problem"]
            counts["acquisition.candidates"] += len(problem)

        def count_evaluations(args, kwargs, result):
            counts["gaopt.evaluations"] += result.evaluations

        def keep_provider(args, kwargs, result):
            self.providers[id(args[0])] = args[0]

        for key, module, name, after in [
            ("gp.fit", gp, "fit_gp", None),
            ("gp.cholesky", gp, "cholesky_with_jitter", count_jitter),
            ("gp.zero_shot", gp, "zero_shot_score", None),
            ("sequences.encode", sequences, "encode", None),
            ("sequences.diff", sequences, "diff", None),
            ("features.kabsch", features, "kabsch_align", None),
            ("gaopt.sort", gaopt, "non_dominated_sort", None),
            ("acquisition.select", acquisition, "select_batch", count_candidates),
            ("acquisition.sharpe", acquisition, "solve_sharpe", None),
        ]:
            self._replace_function(module, name, self.wrap(key, getattr(module, name), after))

        traced_evolve = self.wrap("gaopt.evolve", gaopt.evolve, count_evaluations)

        @wraps(gaopt.evolve)
        def evolve(parental, evaluate, *args, **kwargs):
            return traced_evolve(parental, self.wrap("gaopt.evaluate", evaluate), *args, **kwargs)

        self._replace_function(gaopt, "evolve", evolve)

        kernel_classes = [
            kernels.TanimotoKernel,
            kernels.Matern52Kernel,
            kernels.SquaredExponentialKernel,
            kernels.SumKernel,
            kernels.ProductKernel,
            kernels.KermutKernel,
        ]
        for key, classes, name, after in [
            ("gp.predict", [gp.GPModel], "predict", count_rows),
            ("kernels.prepare", kernel_classes, "prepare", None),
            ("kernels.gram_grad", kernel_classes, "gram_grad_prepared", None),
            ("kernels.cross", kernel_classes, "cross_prepared", None),
            (
                "features.features",
                [features.SyntheticFeatureProvider, features.FixtureFeatureProvider],
                "features",
                keep_provider,
            ),
            (
                "plm.pseudo_likelihood",
                [plm.PssmLikelihoodProvider, plm.TableLikelihoodProvider],
                "pseudo_likelihood",
                None,
            ),
            ("campaign.oracle", [campaign.SyntheticOracle, campaign.FixtureOracle], "value", None),
        ]:
            for cls in classes:
                self._replace(cls, name, self.wrap(key, getattr(cls, name), after))

    def uninstall(self) -> None:
        """Put back everything `install` replaced."""
        while self._replaced:
            owner, name, original = self._replaced.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _replace(self, owner, name: str, replacement) -> None:
        # a method inherited from a base class is put back by deleting the override
        self._replaced.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def _replace_function(self, module, name: str, replacement) -> None:
        """Rebind `module.name` in every loaded `abbo` module that imported it."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "abbo" or mod_name.startswith("abbo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, replacement)

    # -- report

    def metrics(self) -> dict[str, float]:
        """Every `PER_LAYER` figure of this campaign but `HIT_RATIO`."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        evolve_s = self.total_s["gaopt.evolve"]
        values = {
            "gp.jitter_nonzero": counts["gp.jitter_nonzero"],
            "gp.predict_rows": counts["gp.predict_rows"],
            "gaopt.evolve_s": evolve_s,
            "gaopt.self_s": evolve_s - self.total_s["gaopt.evaluate"],
            "gaopt.evaluations": counts["gaopt.evaluations"],
            "gaopt.evaluate_calls": calls["gaopt.evaluate"],
            "features.builds": sum(getattr(p, "computations", 0) for p in self.providers.values()),
            "acquisition.candidates": counts["acquisition.candidates"],
        }
        for name, _ in PER_LAYER:
            if name not in values and name != HIT_RATIO:
                key, _, kind = name.rpartition("_")
                values[name] = calls[key] if kind == "calls" else self_s[key]
        return values


def aggregate(layers: list[dict]) -> dict[str, dict]:
    """Per-layer metrics of several campaigns, in report order: the sums, and
    the cache hit ratio of the summed calls and builds."""
    total = {name: sum(m[name] for m in layers) for name in layers[0]}
    calls, builds = total["features.features_calls"], total["features.builds"]
    total[HIT_RATIO] = 1.0 - builds / calls if calls else 0.0
    return {name: {"value": total[name], "unit": unit} for name, unit in PER_LAYER}
