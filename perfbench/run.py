"""dagmarl benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats one unit of the workload
(see ``workloads.py``), each in a fresh worker process with BLAS pinned to
one thread, until ``--seconds`` have passed; units run one after another.
Every unit of one invocation uses the same seed, so all of them must write
byte-identical episode logs, checkpoints and evaluation rewards.

``--trace 0`` reports the end-to-end metrics, medians over the units, timed
on the host-corrected clock of ``hostspeed.py``.
``--trace 1`` alternates untraced and traced units and reports the per-layer
metrics of the traced ones, checking that each span fires exactly where the
workload predicts.  Human-readable lines come first; the last line of
standard output is the JSON result.  ``--smoke`` shrinks every workload to a
few tiny episodes, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
MIN_UNITS = 3  # per kind of unit, so a median and a byte comparison exist
WORKER_TIMEOUT_S = 120
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "DAGMARL_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, smoke, trace, workdir, root) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(units, corrected=True) -> dict:
    """Medians over units, timed on the host-corrected clock by default."""
    tag = "_nominal_s" if corrected else "_s"
    return {
        "train_steps_per_s": statistics.median(
            u["train_steps"] / u["train" + tag] for u in units),
        "frozen_steps_per_s": statistics.median(
            u["frozen_steps"] / u["frozen" + tag] for u in units),
        "setup_s": statistics.median(u["setup" + tag] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }


def per_layer(traced, untraced) -> dict:
    out = {}
    for span in workloads.SPANS:
        out[f"{span}.calls"] = statistics.median(
            u["trace"]["calls"].get(span, 0) for u in traced)
        out[f"{span}.self_s"] = statistics.median(
            u["trace"]["self_s"].get(span, 0.0) for u in traced)
        out[f"{span}.self_share"] = statistics.median(
            u["trace"]["self_s"].get(span, 0.0) / u["trace"]["root_s"]
            for u in traced)
    out["envs.step.useful_ratio"] = statistics.median(
        (u["train_steps"] + u["frozen_steps"])
        / max(u["trace"]["calls"].get("envs.step", 0), 1) for u in traced)
    out["ppo.update.transitions"] = statistics.median(
        u["trace"]["transitions"] for u in traced)
    for span in ("ppo.update", "nn.adam_step"):
        out[f"{span}.nonfinite"] = sum(
            u["trace"]["nonfinite"].get(span, 0) for u in traced)

    def phase_s(units):
        return statistics.median(u["train_s"] + u["frozen_s"] for u in units)
    out["trace.overhead_ratio"] = phase_s(traced) / phase_s(untraced)
    return out


def span_problems(workload, traced) -> list:
    """Spans that fired where they must not, or stayed silent."""
    problems = []
    for span in workloads.SPANS:
        calls = {u["trace"]["calls"].get(span, 0) for u in traced}
        if span in workload.expect_zero and calls != {0}:
            problems.append(f"{span} fired {sorted(calls)} times, expected 0")
        elif span not in workload.expect_zero and 0 in calls:
            problems.append(f"{span} never fired")
    return problems


def measure(args, root, workdir) -> tuple:
    workload = workloads.get(args.workload, smoke=args.smoke)
    kinds = [False, True] if args.trace else [False]
    units = {kind: [] for kind in kinds}
    start = perf_counter()
    rounds = 0
    while True:
        for kind in kinds:
            units[kind].append(run_worker(
                workload.name, args.seed, args.smoke, kind,
                workdir / f"unit-{sum(map(len, units.values()))}", root))
        rounds += 1
        elapsed = perf_counter() - start
        # stop once another round would likely end past --seconds
        if (rounds >= MIN_UNITS
                and elapsed + 0.5 * elapsed / rounds >= args.seconds):
            return workload, units, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny episodes, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dagmarl" / "__init__.py").is_file():
        print("perfbench: run from the root of a dagmarl checkout "
              "(src/dagmarl is missing)", file=sys.stderr)
        return 2
    work_root = root / ".perfbench-work"
    workdir = work_root / str(os.getpid())
    try:
        workload, units, elapsed = measure(args, root, workdir)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    everything = [u for batch in units.values() for u in batch]
    problems = []
    reference = everything[0]["sha256"]
    failed = 0
    for u in everything:
        if u["sha256"] != reference:
            problems.append(f"unit bytes differ: {u['sha256']}")
            failed += u["attempted"]
        else:
            failed += u["failed"]
        if not u["eval_ok"]:
            problems.append("non-finite evaluate() summary or reward")
        for kind, count in u["errors"].items():
            problems.append(f"{count} episode(s) failed: {kind}")
    attempted = sum(u["attempted"] for u in everything)
    e2e = end_to_end(units[False])
    if args.trace:
        problems += span_problems(workload, units[True])
        metrics, units_of = per_layer(units[True], units[False]), dict(
            workloads.per_layer_metrics())
    else:
        metrics, units_of = e2e, dict(workloads.END_TO_END)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "units": {("traced" if k else "untraced"): len(v)
                  for k, v in units.items()},
        "measured_s": elapsed, "sha256": reference,
        "machine": everything[0]["machine"],
        "end_to_end": e2e,
        "end_to_end_uncorrected": end_to_end(units[False], corrected=False),
        "per_unit": [{k: u[k] for k in (
            "setup_s", "train_s", "frozen_s", "setup_nominal_s",
            "train_nominal_s", "frozen_nominal_s", "kernel_s",
            "train_steps", "frozen_steps")} for u in everything],
        "episode_error_rate": failed / attempted,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units_of[name]}")
    print(f"{'episode_error_rate':42s} {failed / attempted:>16.6g} "
          f"ratio ({failed}/{attempted} episodes)")
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
