"""Frozen-policy evaluation over fresh episode seeds.

Policies act by their deterministic heads (argmax or distribution mean), and
the generator/distributor pair stays out of the loop since synthetic rewards
are a training signal.  Episodes run one at a time on one trainer; episode
i's result depends only on the checkpoints, the eval seed and i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import histogram
from .seeding import substream
from .training import Trainer


@dataclass(frozen=True)
class EvalResult:
    rewards: np.ndarray
    goal_periods: np.ndarray
    counts: np.ndarray
    edges: np.ndarray
    summary: dict


def evaluate(config, checkpoint_dir, episodes: int = 1000, seed=None,
             bins: int = 30) -> EvalResult:
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if seed is None:
        seed = config.seed
    stream = substream(seed, "eval-env")
    env_seeds = [int(s) for s in stream.integers(2 ** 63, size=episodes)]
    rewards = np.empty(episodes)
    periods = np.empty(episodes, dtype=int)

    trainer = Trainer(config)
    trainer.load_checkpoints(checkpoint_dir)
    for i, env_seed in enumerate(env_seeds):
        record = trainer.run_episode(i, env_seed=env_seed, frozen=True)
        rewards[i] = record.team_reward
        periods[i] = record.goal_periods

    counts, edges = histogram(rewards, bins=bins)
    summary = {
        "episodes": episodes,
        "mean": float(rewards.mean()),
        "median": float(np.median(rewards)),
        "std": float(rewards.std()),
        "min": float(rewards.min()),
        "max": float(rewards.max()),
    }
    return EvalResult(rewards, periods, counts, edges, summary)
