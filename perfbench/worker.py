"""One unit of a workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--trace] [--smoke]

Run from the root of a checkout with ``src`` on ``PYTHONPATH``; ``run.py``
starts it that way.  The set-up clock starts before ``import dagmarl``, so
nothing above the ``main`` body may import numpy, scipy or dagmarl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DAGMARL_THREADS")},
    }


def run_unit(workload, seed: int, workdir: Path, trace: bool) -> dict:
    start = perf_counter()
    import dagmarl
    from dagmarl import evaluate as evaluate_mod
    from dagmarl.logio import write_episode_csv
    from dagmarl.training import Trainer

    from hostspeed import NOMINAL_S, HostClock
    from spans import EpisodeProbe, Tracer

    src = Path("src").resolve()
    if src not in Path(dagmarl.__file__).resolve().parents:
        raise RuntimeError(f"dagmarl imported from {dagmarl.__file__}, "
                           f"not from {src}")
    probe = EpisodeProbe().install()
    tracer = Tracer(probe).install() if trace else None
    config = workloads.experiment_config(workload, seed)
    trainer = Trainer(config)
    setup_s = perf_counter() - start

    # Untraced units time their phases on the host-corrected clock, which
    # samples its kernel between episodes; traced units keep wall time so
    # no kernel runs inside a span.
    clock = None if trace else HostClock()
    if clock is not None:
        probe.on_episode = clock.tick

    def now():
        return clock.read() if clock else (perf_counter(),) * 2

    records = []
    start = now()
    for index in range(workload.train_episodes):
        try:
            records.append(trainer.run_episode(index))
        except Exception:  # counted by the probe; keep training
            traceback.print_exc(file=sys.stderr)
    end = now()
    train_nominal_s, train_s = end[0] - start[0], end[1] - start[1]

    ckpt_dir = workdir / "checkpoints"
    log_path = workdir / "episodes.csv"
    trainer.save_checkpoints(ckpt_dir)
    if records:
        write_episode_csv(log_path, records)
    else:
        log_path.write_bytes(b"")

    eval_ok = True
    eval_digest = ""
    start = now()
    try:
        result = evaluate_mod.evaluate(config, ckpt_dir,
                                       episodes=workload.eval_episodes)
    except Exception:  # the failing episode is counted by the probe
        traceback.print_exc(file=sys.stderr)
        eval_ok = False
    end = now()
    frozen_nominal_s, frozen_s = end[0] - start[0], end[1] - start[1]
    if eval_ok:
        values = list(result.summary.values()) + list(result.rewards)
        eval_ok = all(math.isfinite(float(v)) for v in values)
        eval_digest = hashlib.sha256(result.rewards.tobytes()
                                     + result.goal_periods.tobytes()
                                     ).hexdigest()

    out = {
        "setup_s": setup_s,
        "train_s": train_s,
        "frozen_s": frozen_s,
        # corrected to the nominal host speed (see hostspeed.py)
        "setup_nominal_s": setup_s / clock.kernel_s[0] * NOMINAL_S
        if clock else None,
        "train_nominal_s": train_nominal_s if clock else None,
        "frozen_nominal_s": frozen_nominal_s if clock else None,
        "kernel_s": clock.kernel_s if clock else [],
        "train_steps": probe.steps["train"],
        "frozen_steps": probe.steps["frozen"],
        "attempted": probe.attempted,
        "failed": probe.failed,
        "errors": dict(probe.errors),
        "eval_ok": eval_ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sha256": {
            "episodes_csv": _sha256_files([log_path]),
            "checkpoints": _sha256_files(ckpt_dir.glob("*.ckpt")),
            "evaluate": eval_digest,
        },
    }
    if tracer is not None:
        out["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "root_s": tracer.root_s,
            "transitions": tracer.transitions,
            "nonfinite": dict(tracer.nonfinite),
        }
        tracer.uninstall()
    probe.uninstall()
    out["machine"] = _machine()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.get(args.workload, smoke=args.smoke)
    args.workdir.mkdir(parents=True, exist_ok=True)
    result = run_unit(workload, args.seed, args.workdir, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
