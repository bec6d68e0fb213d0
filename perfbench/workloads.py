"""The benchmark's named workloads and the span names the traced run reports.

A workload is one fixed unit of work, run in a fresh process: build a
``Trainer``, run ``train_episodes`` training episodes, write the episode log
and checkpoints, then run ``eval_episodes`` frozen episodes through
``dagmarl.evaluate.evaluate`` on those checkpoints.  The workload seed is the
benchmark's ``--seed`` argument and becomes the experiment seed; everything
else the program sees is the config built here.

This module imports nothing from dagmarl or numpy, so the worker can start
its set-up clock before the first heavy import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Spans recorded by the traced run, in layer order.  ``nn.forward.act`` and
# ``nn.forward.batch`` both come from ``DenseNet.forward_cached``, split by
# whether the input is a single row or a minibatch.
SPANS = (
    "envs.step",
    "envs.snapshot",
    "envs.restore",
    "nn.forward.act",
    "nn.forward.batch",
    "nn.backward",
    "nn.adam_step",
    "nn.sample_and_logprob",
    "nn.frozen_action",
    "nn.categorical_stats",
    "nn.beta_stats",
    "ppo.act",
    "ppo.frozen_act",
    "ppo.update",
    "ppo.compute_gae",
    "ppo.save",
    "ppo.load",
    "reward_flow.distribute",
    "training.init",
    "training.run_episode",
    "training.counterfactual_rewards",
    "evaluate.evaluate",
)

# Per-layer metrics that are not per-span: (name, unit).
LAYER_EXTRAS = (
    ("envs.step.useful_ratio", "ratio"),
    ("ppo.update.transitions", "count"),
    ("ppo.update.nonfinite", "count"),
    ("nn.adam_step.nonfinite", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# End-to-end metrics of the untraced run: (name, unit).
END_TO_END = (
    ("train_steps_per_s", "steps/s"),
    ("frozen_steps_per_s", "steps/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """Every (name, unit) the traced run reports."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"),
                (f"{span}.self_share", "ratio")]
    return out + list(LAYER_EXTRAS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    env: str
    hidden: tuple
    train_episodes: int
    eval_episodes: int
    # spans that must record zero calls; every other span must fire
    expect_zero: frozenset
    env_options: dict = field(default_factory=dict)


_NO_REPLAY = frozenset({"envs.snapshot", "envs.restore",
                        "training.counterfactual_rewards"})

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "factory-proposed-256",
            "paper configuration: leader, generator/distributor and distribute "
            "all active at hidden 256,256; dense forward, backward and Adam "
            "dominate",
            "proposed", "factory", (256, 256), 4, 16, _NO_REPLAY),
        Workload(
            "prey-srm-64",
            "short variable episodes at hidden 64,64: env.step and fixed "
            "per-call and per-update costs dominate; no replay, leader or "
            "reward flow",
            "srm", "prey", (64, 64), 120, 250,
            _NO_REPLAY | {"reward_flow.distribute", "nn.beta_stats"}),
        Workload(
            "logistics-diffm-64",
            "difference rewards replay every step counterfactually: env.step, "
            "snapshot and restore dominate, in training and in frozen "
            "evaluation",
            "diff-m", "logistics", (64, 64), 12, 12,
            frozenset({"reward_flow.distribute", "nn.beta_stats"})),
    )
}

# Tiny versions of the same workloads for the self-test: same modes and
# environments, so the same spans fire, at a fraction of the cost.
_SMOKE = {
    "factory-proposed-256": {"goal_period": 6, "goal_periods": 2},
    "prey-srm-64": {"max_steps": 12},
    "logistics-diffm-64": {"goal_period": 3, "goal_periods": 2},
}


def get(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not smoke:
        return w
    return Workload(w.name, w.why, w.mode, w.env, (8, 8), 2, 2,
                    w.expect_zero, _SMOKE[name])


def experiment_config(workload: Workload, seed: int):
    """The program's input: a config built from the workload and its seed."""
    from dagmarl.config import ExperimentConfig, RunMode
    from dagmarl.ppo import PpoConfig

    return ExperimentConfig(mode=RunMode.parse(workload.mode),
                            env_name=workload.env,
                            env_options=dict(workload.env_options),
                            seed=seed, episodes=workload.train_episodes,
                            ppo=PpoConfig(hidden=workload.hidden))
