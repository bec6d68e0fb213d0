"""Episode orchestration for every run mode.

An episode is split into goal periods of ``env.goal_period`` steps.  At each
period start the leader (when enabled) issues one goal vector per node, which
is appended to that node's observation for the whole period.  After each
*completed* period the generator/distributor pair (when enabled) turns a
sparse sequence of sampled global states into a scalar budget request and a
value assignment over nodes and arcs; the resulting per-node synthetic
rewards are credited at the final step of the period that produced them.
The leader is paid each period's team reward and the pair the next
period's; the episode runs as one loop over steps, and every stream is
assembled from its record once the episode ends.  Baseline modes replace or
augment the shared team signal instead: difference rewards via
counterfactual replay, or potential-based shaping on top of the equal share.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, RunMode
from .envs import make_env
from .nn import BetaHead, CategoricalHead, CheckpointMismatch, keep_freed_heap
from .ppo import HeadRows, NonFiniteLoss, PpoLearner
from .reward_flow import (RewardBaseline, RgdOutput, distribute,
                          synthetic_budget)
from .seeding import substream


# An episode's shape groups update concurrently when the widest hidden layer
# is at least this wide.  At paper width an update is mostly 256-wide BLAS
# products and large ufuncs, which release the GIL: on a 2-vCPU host
# factory-proposed-256 trained at a median 1323 steps/s on the pool against
# 957 in one thread (BENCH_24.json).  At width 64 the update holds the GIL:
# on the pool logistics-diffm-64 ran at CPU/wall 0.99, lost about 6% of its
# steps/s and grew peak RSS by 7%.
_POOL_MIN_WIDTH = 256

_pool = None  # (pid, executor); a forked child starts its own


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _update_pool() -> ThreadPoolExecutor:
    """The process's update pool, one worker per CPU it may run on."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(_cpu_count()))
    return _pool[1]


def _settled(err_state, update, *args):
    """``update(*args)`` under the floating-point error state ``err_state``;
    returns (its result, None) or (None, the exception it raised)."""
    with np.errstate(**err_state):
        try:
            return update(*args), None
        except Exception as err:
            return None, err


def state_flow_indices(goal_period: int, stride: int) -> list:
    """1-based in-period steps whose pre-action global state is recorded.

    The first step always qualifies, then every ``stride``-th step after it.
    The period-end state is appended separately by the caller, so the full
    sample count is ``len(...) + 1``.
    """
    if goal_period < 1 or stride < 1:
        raise ValueError("goal_period and stride must be >= 1")
    return [d for d in range(1, goal_period + 1) if (d - 1) % stride == 0]


def compose_follower_rewards(team_rewards, n_nodes: int, goal_period: int,
                             sr_by_period: dict) -> np.ndarray:
    """Per-node reward streams: equal team share plus period-end credits.

    ``sr_by_period`` maps a completed period index to its per-node synthetic
    rewards, credited in full at that period's final step.
    """
    team = np.asarray(team_rewards, dtype=float)
    mat = np.tile((team / n_nodes)[:, None], (1, n_nodes))
    for period, sr in sr_by_period.items():
        t_end = (period + 1) * goal_period - 1
        if t_end >= team.size:
            raise ValueError(f"period {period} was never completed")
        mat[t_end] += np.asarray(sr, dtype=float)
    return mat


def compose_shaped_rewards(team_rewards, potentials, gamma: float,
                           n_nodes: int) -> np.ndarray:
    """Equal team share plus gamma * phi(s') - phi(s); terminal phi is 0."""
    team = np.asarray(team_rewards, dtype=float)
    phi = np.asarray(potentials, dtype=float)
    if phi.shape != (team.size, n_nodes):
        raise ValueError("potentials must be one row per step")
    nxt = np.vstack([phi[1:], np.zeros((1, n_nodes))])
    return (team / n_nodes)[:, None] + gamma * nxt - phi


def counterfactual_rewards(env, joint_action):
    """Difference rewards for every agent in one sweep.

    Each agent's counterfactual replaces its action with 0, which the
    environment contract fixes as idle.  Each counterfactual branch takes
    only its reward (``step_reward``, no observation) and then restores the
    snapshot taken before the sweep; the true step runs last so the
    environment ends at the real successor state.  An agent already idle
    has a branch identical to the true step, so it is not replayed and its
    difference is 0.0.  Returns ``(obs, team_reward, done, diffs)``.
    """
    snap = env.snapshot()
    n = env.topology.node_count
    active = [i for i in range(n) if joint_action[i] != 0]
    counter = np.empty(len(active))
    for k, i in enumerate(active):
        alt = list(joint_action)
        alt[i] = 0
        counter[k], _ = env.step_reward(alt)
        env.restore(snap)
    obs, r_true, done = env.step(list(joint_action))
    diffs = np.zeros(n)
    diffs[active] = r_true - counter
    return obs, r_true, done, diffs


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    team_reward: float
    goal_periods: int
    agent_rewards: dict
    sr_sums: np.ndarray | None


class Trainer:
    """Builds the agent set for a mode and runs training episodes."""

    def __init__(self, config: ExperimentConfig, env=None):
        keep_freed_heap()  # for training and evaluate() alike
        self.config = config
        self.env = env if env is not None else make_env(
            config.env_name, config.env_options)
        self.mode = config.mode
        self.n_nodes = self.env.topology.node_count
        self.leader_on = (self.mode in (RunMode.LFM, RunMode.PROPOSED)
                          and not config.disable_leader)
        self.rgd_on = (self.mode in (RunMode.RFM, RunMode.PROPOSED)
                       and not config.disable_rgd)
        self.global_dim = int(sum(self.env.obs_dims))
        self.baseline = RewardBaseline()
        self.last_diagnostics = {}
        # a frozen episode without a seed draws it from a stream of its own,
        # so evaluation never shifts a training episode's environment
        self._env_stream = substream(config.seed, "env")
        self._frozen_env_stream = substream(config.seed, "frozen-env")
        # paper-width groups update on the pool, in one thread otherwise
        self._concurrent = (max(config.ppo.hidden) >= _POOL_MIN_WIDTH
                            and _cpu_count() >= 2)
        # the period's sampled in-period steps; the period-end state follows
        self._flow_idx = frozenset(state_flow_indices(self.env.goal_period,
                                                      config.flow_stride))
        self.groups = []  # (learner, roles), one learner per shape group
        self.agents = {}  # role -> (learner, k)
        widths = self.env.obs_dims
        m = config.goal_dim if self.leader_on else 0
        if self.mode is RunMode.GS:
            [row] = self._learner(["gs"], self.global_dim,
                                  CategoricalHead(self.env.action_sizes),
                                  self.env.max_steps).inputs
            # a node's observation is its slice of gs's one input row
            self._obs_rows = [row[end - w:end] for end, w
                              in zip(itertools.accumulate(widths), widths)]
        else:
            # each run of consecutive followers of one input width and
            # action count is one shape group
            shapes = [(w + m, size)
                      for w, size in zip(widths, self.env.action_sizes)]
            for (dim, size), nodes in itertools.groupby(
                    range(self.n_nodes), shapes.__getitem__):
                self._learner([f"follower-{i}" for i in nodes], dim,
                              CategoricalHead((size,)), self.env.max_steps)
            # a follower's input row is its observation, then its goal
            rows = [row for group, _ in self.groups for row in group.inputs]
            self._obs_rows = [row[:w] for row, w in zip(rows, widths)]
            self._goal_rows = [row[w:] for row, w in zip(rows, widths)]
        # gs or the followers: one head call per step, rows in node order
        self._step_heads = HeadRows([learner for learner, _ in self.groups])
        # the leader, generator and distributor each act once a period at
        # most, as a learner of one
        periods = -(-self.env.max_steps // self.env.goal_period)
        if self.leader_on:
            self._learner(["leader"], self.global_dim,
                          BetaHead(self.n_nodes * m), periods)
        if self.rgd_on:
            dim = ((len(self._flow_idx) + 1) * self.global_dim
                   + self.n_nodes * m)
            self._learner(["generator"], dim, BetaHead(1), periods)
            self._learner(["distributor"], dim, BetaHead(
                self.n_nodes + len(self.env.topology.arcs)), periods)
        # each with a head call of its own
        self._heads = {roles[0]: HeadRows([learner])
                       for learner, roles in self.groups
                       if learner not in self._step_heads.learners}

    def _learner(self, roles, obs_dim, head, steps) -> PpoLearner:
        """A new shape group of ``roles``, each drawing from its own stream."""
        learner = PpoLearner(obs_dim, head, self.config.ppo,
                             [substream(self.config.seed, r) for r in roles],
                             steps)
        self.groups.append((learner, roles))
        self.agents.update((role, (learner, k))
                           for k, role in enumerate(roles))
        return learner

    def run_episode(self, episode_index: int, env_seed=None,
                    frozen: bool = False) -> EpisodeRecord:
        env = self.env
        goal_period = env.goal_period
        if env_seed is None:
            stream = self._frozen_env_stream if frozen else self._env_stream
            env_seed = int(stream.integers(2 ** 63))
        obs = env.reset(env_seed)

        track_diffs = (not frozen
                       and self.mode in (RunMode.DIFF_M, RunMode.CAP_M))
        rgd_active = self.rgd_on and not frozen

        # the episode's record; every role's rewards are derived from it
        team_rewards = []
        period_sums = []
        diff_rows = []
        sr_by_period = {}  # completed period -> per-node synthetic rewards
        flow_parts = []  # the period's sampled observations, in order
        done = False

        while not done:
            t = len(team_rewards)
            period, d = divmod(t, goal_period)
            if d == 0:
                period_sums.append(0.0)
                if self.leader_on:
                    [goals_flat] = self._act("leader", period, frozen, obs)
                    # each follower's goal stays in its row for the period
                    for i, row in enumerate(self._goal_rows):
                        row[...] = goals_flat[i * row.size:(i + 1) * row.size]
            if rgd_active and d + 1 in self._flow_idx:
                flow_parts += obs
            actions = self._select_actions(obs, t, frozen)
            if track_diffs:
                obs, reward, done, diffs = counterfactual_rewards(env, actions)
                diff_rows.append(diffs)
            else:
                obs, reward, done = env.step(actions)
            team_rewards.append(reward)
            # added one step at a time: a pairwise or compensated sum rounds
            # differently
            period_sums[-1] += reward
            if rgd_active and d + 1 == goal_period:  # the period is complete
                flow_parts += obs
                if self.leader_on:
                    flow_parts.append(goals_flat)
                sr_by_period[period] = self._rgd_act(flow_parts, period)
                flow_parts = []

        total = float(np.asarray(team_rewards, dtype=float).sum())
        n_periods = len(period_sums)
        if frozen:
            return EpisodeRecord(episode_index, total, n_periods, {}, None)

        streams, sr_sums = self._reward_streams(team_rewards, period_sums,
                                                diff_rows, sr_by_period)
        agent_rewards = {role: float(np.sum(rewards))
                         for role, rewards in streams.items()}
        # every group with rows updates, and only then does a failure raise:
        # the first in role order, so neither the outcome nor the error
        # depends on whether the groups ran concurrently.  Rollout rows were
        # written at the same indices the reward streams count, so each
        # member's first n rows are this episode's.
        jobs = [(learner, roles, [streams[role] for role in roles])
                for learner, roles in self.groups if len(streams[roles[0]])]
        err_state = np.geterr()  # pool threads do not inherit it
        mapper = (_update_pool().map if len(jobs) >= 2 and self._concurrent
                  else map)
        # _settled never raises, so map returns only once every job has
        outcomes = list(mapper(
            lambda job: _settled(err_state, job[0].update, job[2]), jobs))
        diagnostics = {}
        for (_, roles, rewards), (out, err) in zip(jobs, outcomes):
            if isinstance(err, NonFiniteLoss):
                raise NonFiniteLoss(f"{roles[err.member]} update in episode "
                                    f"{episode_index}: {err}") from None
            if err is not None:
                raise err
            n = len(rewards[0])
            for k, role in enumerate(roles):
                diagnostics[role] = {
                    key: n if key == "transitions" else value[k]
                    for key, value in out.items()}
        if rgd_active:
            self.baseline = RewardBaseline(total, n_periods)
        self.last_diagnostics = diagnostics
        return EpisodeRecord(episode_index, total, n_periods, agent_rewards,
                             sr_sums)

    def _act(self, role, t, frozen, parts):
        """``role``'s action as step ``t``, acted on ``parts``
        concatenated."""
        heads = self._heads[role]
        np.concatenate(parts, out=heads.learners[0].inputs[0])
        return heads.frozen_act() if frozen else heads.act(t)

    def _select_actions(self, obs, t, frozen):
        """The joint action, from one head call on the nodes' rows."""
        for row, node_obs in zip(self._obs_rows, obs):
            row[...] = node_obs
        heads = self._step_heads
        return (heads.frozen_act() if frozen else heads.act(t)).tolist()

    def _rgd_act(self, parts, t):
        """The period's synthetic rewards, acted on ``parts`` concatenated."""
        [fraction] = self._act("generator", t, False, parts)
        [values] = self._act("distributor", t, False, parts)
        budget = synthetic_budget(float(fraction[0]), self.baseline)
        output = RgdOutput(values[:self.n_nodes], values[self.n_nodes:])
        _, sr = distribute(self.env.topology, output, budget)
        return sr

    def _reward_streams(self, team_rewards, period_sums, diff_rows,
                        sr_by_period):
        """Every role's reward stream and the episode's synthetic totals.

        The leader is paid each period's team reward.  The generator/
        distributor action after period p is paid period p + 1's, or 0.0
        when no period follows.  Returns ``(streams, sr_sums)``.
        """
        n = self.n_nodes
        if self.mode is RunMode.GS:
            return {"gs": np.asarray(team_rewards, dtype=float)}, None
        if self.mode is RunMode.DIFF_M:
            mat = np.vstack(diff_rows)
        elif self.mode is RunMode.CAP_M:
            mat = compose_shaped_rewards(team_rewards, np.vstack(diff_rows),
                                         self.config.ppo.gamma, n)
        else:
            mat = compose_follower_rewards(team_rewards, n,
                                           self.env.goal_period, sr_by_period)
        streams = {f"follower-{i}": mat[:, i] for i in range(n)}
        if self.leader_on:
            streams["leader"] = np.asarray(period_sums, dtype=float)
        if not self.rgd_on:
            return streams, None
        paid = [period_sums[p + 1] if p + 1 < len(period_sums) else 0.0
                for p in sr_by_period]
        streams["generator"] = np.asarray(paid, dtype=float)
        streams["distributor"] = streams["generator"].copy()
        sr_sums = np.zeros(n)
        for sr in sr_by_period.values():
            sr_sums += sr
        return streams, sr_sums

    def save_checkpoints(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for role, (learner, k) in self.agents.items():
            learner.save(k, directory / f"{role}.ckpt")

    def load_checkpoints(self, directory):
        directory = Path(directory)
        extra = sorted(path.name for path in directory.glob("*.ckpt")
                       if path.stem not in self.agents)
        if extra:
            raise CheckpointMismatch(f"{directory} holds checkpoints of roles "
                                     f"this run does not have: {extra}")
        # every file is read and checked before any role loads, so a
        # checkpoint that does not fit leaves every role as it was
        for role, (learner, k) in self.agents.items():
            path = directory / f"{role}.ckpt"
            if not path.exists():
                raise CheckpointMismatch(f"missing checkpoint {path}")
            learner.check_bytes(k, path.read_bytes())
        for role, (learner, k) in self.agents.items():
            learner.load(k, directory / f"{role}.ckpt")


@dataclass
class TrainResult:
    records: list
    trainer: Trainer


def train(config: ExperimentConfig) -> TrainResult:
    trainer = Trainer(config)
    records = [trainer.run_episode(index) for index in range(config.episodes)]
    return TrainResult(records, trainer)
