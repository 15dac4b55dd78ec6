"""Run one benchmark workload and print its metrics as the last line, in JSON.

    python3 bench/run.py --workload onehot-late --seed 1 --seconds 15 --trace 0

A run is made of whole rounds of the workload's campaigns, one per campaign
seed derived from `--seed` (see `workloads.py`), each in its own process, one
process at a time. With `--trace 0` it repeats the round until at least
`--seconds` of campaign time is measured and reports:

    campaign_s   mean wall time of one `run_campaign` call
    setup_s      median time from starting a process to the end of set-up,
                 over every campaign process plus set-up-only processes
                 up to SETUP_SAMPLES
    peak_rss_mb  largest peak RSS of a campaign process

With `--trace 1` it runs the round once untraced and once traced (see
`tracing.py`) and reports the per-layer metrics summed over the traced round,
plus `trace.overhead_s`, traced minus untraced campaign time.

Every campaign's output is checked (see `checks.py`). An operation is one
campaign: one whose process fails counts as failed; one whose output fails a
check counts as failed and makes `correct` false. The line before the result
carries what is not a metric: each campaign's behaviour fingerprint, the raw
samples, the largest differences of the dense recomputation and the machine
facts. Each campaign's output is kept in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up samples and checks included


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def time_setup(workload: str, deadline: Deadline) -> float:
    """Seconds from just before starting a set-up-only worker to the end of its set-up."""
    start = now()
    proc = subprocess.run(
        [sys.executable, str(WORKER), "setup", workload, "0"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=deadline.left(),
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def run_campaign(workload: str, seed: int, path: Path, trace: bool, deadline: Deadline):
    """One campaign in its own process: its output with `setup_s` added, or None
    if the process failed."""
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), "campaign", workload, str(seed), str(path)]
    start = now()
    proc = subprocess.run(
        cmd + (["--trace"] if trace else []),
        stdout=subprocess.DEVNULL,
        timeout=deadline.left(),
        check=False,
    )
    if proc.returncode != 0 or not path.is_file():
        print(f"campaign worker for seed {seed} exited with {proc.returncode}", file=sys.stderr)
        return None
    out = json.loads(path.read_text())
    out["setup_s"] = out["ready_at"] - start
    return out


class Run:
    """The campaigns of one benchmark run and what their checks found."""

    def __init__(self, args, wl, deadline: Deadline):
        self.args, self.wl, self.deadline = args, wl, deadline
        self.attempted = self.failed = 0
        self.correct = True
        self.fingerprints: dict[str, str] = {}
        self.problems: dict[str, dict] = {}
        self.worst: dict[str, float] = {}

    def round(self, trace: bool) -> list[dict]:
        """One campaign per campaign seed; the outputs of those that finished."""
        import checks
        from workloads import PARENTAL

        outputs = []
        for seed in self.wl.campaign_seeds(self.args.seed):
            label = f"{self.args.workload}-seed{seed}" + ("-traced" if trace else "")
            self.attempted += 1
            out = run_campaign(
                self.args.workload, seed, OUT / f"{label}.json", trace, self.deadline
            )
            if out is None:
                self.failed += 1
                continue
            outputs.append(out)
            found, errors = checks.check_all(out, self.wl, PARENTAL, seed)
            for name, value in errors.items():
                self.worst[name] = max(self.worst.get(name, 0.0), value)
            self.fingerprints[label] = checks.fingerprint(out)
            if any(found.values()):
                self.failed += 1
                self.correct = False
                self.problems[label] = {name: p for name, p in found.items() if p}
        return outputs


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "abbo" / "__init__.py").is_file():
        print(f"no abbo sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import OVERHEAD, aggregate

    OUT.mkdir(exist_ok=True)
    run = Run(args, WORKLOADS[args.workload], Deadline(DEADLINE_S))

    if args.trace:
        untraced, traced = run.round(trace=False), run.round(trace=True)
        if not traced or len(traced) != len(untraced):
            raise BenchError("a campaign of the untraced or the traced round did not finish")
        for label in list(run.fingerprints):
            if label.endswith("-traced") and (
                run.fingerprints[label] != run.fingerprints.get(label[: -len("-traced")])
            ):
                run.correct = False
                run.problems[label] = {"trace": ["behaved differently from the untraced campaign"]}
        metrics = aggregate([o["layers"] for o in traced])
        overhead = sum(o["campaign_s"] for o in traced) - sum(o["campaign_s"] for o in untraced)
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
        outputs, setup_s = untraced + traced, []
    else:
        outputs = []
        while True:
            outputs += run.round(trace=False)
            if not outputs:
                raise BenchError("no campaign finished")
            if sum(o["campaign_s"] for o in outputs) >= args.seconds:
                break
        setup_s = [o["setup_s"] for o in outputs]
        while len(setup_s) < SETUP_SAMPLES:
            setup_s.append(time_setup(args.workload, run.deadline))
        metrics = {
            "campaign_s": {
                "value": statistics.fmean(o["campaign_s"] for o in outputs),
                "unit": "s",
            },
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": max(o["peak_rss_mb"] for o in outputs), "unit": "MB"},
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprints": run.fingerprints,
        "campaign_s": [o["campaign_s"] for o in outputs],
        "setup_s": setup_s,
        "largest_check_errors": run.worst,
        "problems": run.problems,
        "machine": outputs[0]["machine"],
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        sys.exit(1)
