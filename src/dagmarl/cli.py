"""Command-line entry point: train, evaluate, verify-theorem, plot."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import (ConfigError, ExperimentConfig, apply_overrides,
                     dump_config, load_config)
from .logio import (SchemaMismatch, atomic_write_bytes, read_episode_csv,
                    write_episode_csv, write_log)
from .metrics import min_max_normalize, moving_average
from .plotting import histogram_chart, line_chart
from .ppo import NonFiniteLoss


def _json_bytes(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def _cmd_train(args) -> int:
    from .training import train

    config = apply_overrides(
        load_config(args.config) if args.config else ExperimentConfig(),
        mode=args.mode, seed=args.seed, episodes=args.episodes, out=args.out)
    if not config.out_dir:
        raise ConfigError("train needs an output directory: "
                          "set [run] out or pass --out")
    if config.episodes < 1:
        raise ConfigError("train needs at least one episode")
    started = time.monotonic()
    result = train(config)
    wall = time.monotonic() - started
    # only a finished run makes the output directory
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_episode_csv(out / "episodes.csv", result.records)
    result.trainer.save_checkpoints(out / "checkpoints")
    atomic_write_bytes(out / "config.ini", dump_config(config).encode())
    meta = {"wall_seconds": wall, "episodes_run": len(result.records)}
    atomic_write_bytes(out / "run_meta.json", _json_bytes(meta))

    tail = [r.team_reward for r in result.records[-100:]]
    mean_tail = sum(tail) / len(tail)
    print(f"trained {len(result.records)} episodes "
          f"({config.mode.value}/{config.env_name}, seed {config.seed}); "
          f"mean team reward over last {len(tail)}: {mean_tail:.3f}")
    print(f"wrote {out / 'episodes.csv'}")
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluate import evaluate

    record = args.run_dir / "config.ini"
    try:
        config = load_config(record)
    except ConfigError as err:
        raise ConfigError(f"{record}: {err}") from None
    result = evaluate(config, args.run_dir / "checkpoints",
                      episodes=args.episodes, seed=args.seed, bins=args.bins)
    out = Path(args.out or args.run_dir)
    out.mkdir(parents=True, exist_ok=True)

    atomic_write_bytes(out / "eval_summary.json", _json_bytes(result.summary))
    write_log(out / "eval_rewards.csv",
              [{"episode": i, "team_reward": r}
               for i, r in enumerate(result.rewards)])
    chart = histogram_chart(result.counts, result.edges,
                            x_label="episode team reward",
                            title=f"{config.mode.value}/{config.env_name} "
                                  f"({args.episodes} frozen episodes)")
    atomic_write_bytes(out / "eval_histogram.svg", chart.encode())

    s = result.summary
    print(f"evaluated {args.episodes} episodes: mean {s['mean']:.3f}, "
          f"median {s['median']:.3f}, std {s['std']:.3f}")
    print(f"wrote {out / 'eval_summary.json'}")
    return 0


def _cmd_verify(args) -> int:
    from .oracle import run_bound_campaign

    report = run_bound_campaign(trials=args.trials, seed=args.seed or 0,
                                gamma=args.gamma)
    payload = _json_bytes(report.to_dict())
    print(payload.decode(), end="")
    if args.out:
        atomic_write_bytes(args.out, payload)
    return 0 if report.violations == 0 else 1


def _cmd_plot(args) -> int:
    series = {}
    for path in args.csv:
        columns = read_episode_csv(path)
        if args.column not in columns:
            raise SchemaMismatch(
                f"{path}: no column {args.column!r}; "
                f"available: {sorted(columns)}")
        values = columns[args.column].astype(float)
        if args.window is not None:
            values = moving_average(values, window=args.window)
        if args.normalize:
            values = min_max_normalize(values)
        stem = name = Path(path).stem
        suffix = len(series)
        while name in series:
            name = f"{stem}-{suffix}"
            suffix += 1
        series[name] = values
    y_label = args.column + (" (normalized)" if args.normalize else "")
    chart = line_chart(series, y_label=y_label, title=args.title or "")
    atomic_write_bytes(args.out, chart.encode())
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagmarl",
        description="train and probe cooperating learners on DAG tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--config", help="experiment config file")
    p_train.add_argument("--mode", help="override the run mode")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--episodes", type=int)
    p_train.add_argument("--out", help="output directory")
    p_train.set_defaults(handler=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="run frozen policies")
    p_eval.add_argument("run_dir", type=Path, help="a run that train wrote")
    p_eval.add_argument("--seed", type=int, help="default: the run's seed")
    p_eval.add_argument("--episodes", type=int, default=1000)
    p_eval.add_argument("--out", help="output directory (default: run_dir)")
    p_eval.add_argument("--bins", type=int, default=30)
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_verify = sub.add_parser(
        "verify-theorem",
        help="randomized audit of the synthetic-value upper bound")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--gamma", type=float, default=0.9)
    p_verify.add_argument("--out", help="also write the JSON report here")
    p_verify.set_defaults(handler=_cmd_verify)

    p_plot = sub.add_parser("plot", help="chart columns from episode logs")
    p_plot.add_argument("csv", nargs="+", help="episode log files")
    p_plot.add_argument("--column", default="team_reward")
    p_plot.add_argument("--window", type=int,
                        help="moving-average window")
    p_plot.add_argument("--normalize", action="store_true",
                        help="min-max normalize after averaging")
    p_plot.add_argument("--title", help="chart title")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(handler=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (OSError, ValueError, NonFiniteLoss, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
