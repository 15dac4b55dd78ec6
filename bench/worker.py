"""Child process of the benchmark: set up one workload, or set it up and run it.

    python3 bench/worker.py setup WORKLOAD SEED
    python3 bench/worker.py campaign WORKLOAD SEED OUT_JSON [--trace]

Set-up is everything before `run_campaign` can be called: importing `abbo`
(with numpy, scipy and yaml) from the checkout's `src/` and building the
config. Both modes record the CLOCK_MONOTONIC time at which set-up ended
(`setup` prints it, `campaign` writes it as `ready_at`), so the parent can time
set-up from just before it started this process.

`campaign` times the `run_campaign` call and writes everything the checks need
to OUT_JSON: the round records, every oracle label in the order it was asked
for, the process's peak RSS and the machine facts. With `--trace` the program's
layers are wrapped first (see `tracing.py`) and the per-layer figures are
written too.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_abbo():
    """Import `abbo` from the checkout's `src/`, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import abbo

    if Path(abbo.__file__).resolve().parent != SRC / "abbo":
        raise SystemExit(f"imported abbo from {abbo.__file__}, not from {SRC}")
    return abbo


@contextmanager
def recorded_labels(campaign_module):
    """Yield a list to which the campaign's synthetic oracle appends every
    (sequence, label) it returns.

    The campaign builds its oracle through the `SyntheticOracle` name in its
    module, so a subclass bound there sees every query; it adds one list
    append per label to the timed run.
    """
    labels: list = []
    base = campaign_module.SyntheticOracle

    class RecordingOracle(base):
        def value(self, seq: str) -> float:
            label = base.value(self, seq)
            labels.append((seq, label))
            return label

        __call__ = value

    campaign_module.SyntheticOracle = RecordingOracle
    try:
        yield labels
    finally:
        campaign_module.SyntheticOracle = base


def machine_facts() -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def serialize(result) -> list[dict]:
    """The one repeat's round records as plain JSON data."""
    (log,) = result.logs
    return [
        {
            "round": rec.round_index,
            "n_data": rec.n_data,
            "best_so_far": rec.best_so_far,
            "batch_mean_likelihood": rec.batch_mean_likelihood,
            "n_padded": rec.n_padded,
            "hyperparameters": rec.hyperparameters,
            "log_ml": rec.log_marginal_likelihood,
            "acquired": [
                {
                    "sequence": a.sequence,
                    "mean": a.mean,
                    "std": a.std,
                    "likelihood": a.likelihood,
                    "oracle_value": a.oracle_value,
                    "dropped": a.dropped,
                }
                for a in rec.acquired
            ],
        }
        for rec in log.records
    ]


def run(workload, seed: int, *, trace: bool = False) -> dict:
    """Run one campaign of a `Workload` and return the output the checks read."""
    import resource

    import_abbo()
    import abbo.campaign as campaign

    from workloads import build_config

    config = build_config(workload, seed)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with recorded_labels(campaign) as labels:
            start = time.perf_counter()
            result = campaign.run_campaign(config)
            campaign_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "seed": seed,
        "traced": trace,
        "ready_at": ready_at,
        "campaign_s": campaign_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "labels": labels,
        "rounds": serialize(result),
        "machine": machine_facts(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def main(argv: list[str]) -> int:
    mode, workload_name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        import_abbo()
        from workloads import WORKLOADS, build_config

        build_config(WORKLOADS[workload_name], seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        return 0
    if mode == "campaign":
        import json

        from workloads import WORKLOADS

        out = run(WORKLOADS[workload_name], seed, trace="--trace" in argv[4:])
        Path(argv[3]).write_text(json.dumps(out))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
