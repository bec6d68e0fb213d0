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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, RunMode
from .envs import make_env
from .nn import BetaHead, CategoricalHead, CheckpointMismatch, keep_freed_heap
from .ppo import NonFiniteLoss, PpoLearner
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
        self._env_stream = substream(config.seed, "env")
        # paper-width groups update on the pool, in one thread otherwise
        self._concurrent = (max(config.ppo.hidden) >= _POOL_MIN_WIDTH
                            and _cpu_count() >= 2)
        # roles of one (obs_dim, head), in role order, are one shape group
        groups = {}
        for role, shape in self._role_shapes().items():
            groups.setdefault(shape, []).append(role)
        self.groups = []  # (learner, roles), one learner per shape group
        self.agents = {}  # role -> (learner, k)
        # every group acts in one call on (G, obs) rows: its rollout rows of
        # the step in training, one reusable array in frozen episodes
        self._rollouts, self._frozen_rows = {}, {}
        for (obs_dim, head), roles in groups.items():
            learner = PpoLearner(obs_dim, head, config.ppo,
                                 [substream(config.seed, r) for r in roles])
            self.groups.append((learner, roles))
            self.agents.update((role, (learner, k))
                               for k, role in enumerate(roles))
            # the leader, generator and distributor act once a period at most
            per_period = roles[0] in ("leader", "generator", "distributor")
            self._rollouts[learner] = learner.empty_rollout(
                -(-self.env.max_steps // self.env.goal_period) if per_period
                else self.env.max_steps)
            self._frozen_rows[learner] = np.zeros((len(roles), obs_dim))
        # (learner, its members' nodes) of each follower group
        node_of = {f"follower-{i}": i for i in range(self.n_nodes)}
        self._followers = [(learner, [node_of[role] for role in roles])
                           for learner, roles in self.groups
                           if roles[0] in node_of]

    def _role_shapes(self) -> dict:
        """Each role's (obs_dim, head), in role order."""
        m = self.config.goal_dim
        sizes = self.env.action_sizes
        if self.mode is RunMode.GS:
            return {"gs": (self.global_dim, CategoricalHead(sizes))}
        shapes = {}
        for i in range(self.n_nodes):
            dim = self.env.obs_dims[i] + (m if self.leader_on else 0)
            shapes[f"follower-{i}"] = (dim, CategoricalHead((sizes[i],)))
        if self.leader_on:
            shapes["leader"] = (self.global_dim, BetaHead(self.n_nodes * m))
        if self.rgd_on:
            n_flow = len(state_flow_indices(self.env.goal_period,
                                            self.config.flow_stride)) + 1
            dim = n_flow * self.global_dim
            if self.leader_on:
                dim += self.n_nodes * m
            shapes["generator"] = (dim, BetaHead(1))
            shapes["distributor"] = (dim, BetaHead(
                self.n_nodes + len(self.env.topology.arcs)))
        return shapes

    def run_episode(self, episode_index: int, env_seed=None,
                    frozen: bool = False) -> EpisodeRecord:
        cfg = self.config
        env = self.env
        goal_period = env.goal_period
        if env_seed is None:
            env_seed = int(self._env_stream.integers(2 ** 63))
        obs = env.reset(env_seed)

        track_diffs = (not frozen
                       and self.mode in (RunMode.DIFF_M, RunMode.CAP_M))
        rgd_active = self.rgd_on and not frozen

        # the episode's record; every role's rewards are derived from it
        team_rewards = []
        period_sums = []
        diff_rows = []
        sr_by_period = {}  # completed period -> per-node synthetic rewards
        flow_idx = frozenset(state_flow_indices(goal_period,
                                                cfg.flow_stride))
        flow_parts = []  # the period's sampled observations, in order
        goals = None
        done = False

        while not done:
            t = len(team_rewards)
            period, d = divmod(t, goal_period)
            if d == 0:
                period_sums.append(0.0)
                if self.leader_on:
                    leader, _ = self.agents["leader"]
                    rows = self._rows(leader, period, frozen, obs)
                    [goals_flat] = self._act(leader, rows, period, frozen)
                    goals = np.asarray(goals_flat, dtype=float).reshape(
                        self.n_nodes, cfg.goal_dim)
            if rgd_active and d + 1 in flow_idx:
                flow_parts += obs
            actions = self._select_actions(obs, goals, t, frozen)
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
            lambda job: _settled(err_state, job[0].update,
                                 self._rollouts[job[0]], job[2]), jobs))
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

    def _rows(self, learner, t, frozen, parts=None):
        """The group's (G, obs) input rows of step ``t``: its rollout rows in
        training, its one reusable C-contiguous array in frozen episodes.
        With ``parts``, each row is written as their concatenation."""
        rows = (self._frozen_rows[learner] if frozen
                else self._rollouts[learner].states[:, t])
        if parts is not None:
            for row in rows:
                np.concatenate(parts, out=row)
        return rows

    def _act(self, learner, rows, t, frozen):
        """One action per member of the group, acting on its input ``rows``
        of step ``t``; in training it records the actions and log-probs in
        its rollout's rows ``t``."""
        if frozen:
            return learner.frozen_act(rows)
        acted = learner.act(rows)
        rollout = self._rollouts[learner]
        # one write per member: a slice write of G nested tuples costs
        # more than G small ones
        for k, (action, log_prob) in enumerate(acted):
            rollout.actions[k, t] = action
            rollout.log_probs[k, t] = log_prob
        return [action for action, _ in acted]

    def _select_actions(self, obs, goals, t, frozen):
        """The joint action, one acting call per group."""
        if self.mode is RunMode.GS:
            gs, _ = self.agents["gs"]
            [action] = self._act(gs, self._rows(gs, t, frozen, obs), t, frozen)
            return list(action)
        actions = [0] * self.n_nodes
        for learner, nodes in self._followers:
            rows = self._rows(learner, t, frozen)
            for j, i in enumerate(nodes):
                if goals is None:
                    rows[j] = obs[i]
                else:
                    np.concatenate((obs[i], goals[i]), out=rows[j])
            acted = self._act(learner, rows, t, frozen)
            for i, (action,) in zip(nodes, acted):
                actions[i] = action
        return actions

    def _rgd_act(self, parts, t):
        """The period's synthetic rewards, acted on ``parts`` concatenated."""
        acted = {}
        for learner, roles in self.groups:
            if roles[0] in ("generator", "distributor"):
                rows = self._rows(learner, t, False, parts)
                acted.update(zip(roles, self._act(learner, rows, t, False)))
        budget = synthetic_budget(float(acted["generator"][0]), self.baseline)
        values = acted["distributor"]
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
        for role, (learner, k) in self.agents.items():
            path = directory / f"{role}.ckpt"
            if not path.exists():
                raise CheckpointMismatch(f"missing checkpoint {path}")
            learner.load(k, path)


@dataclass
class TrainResult:
    records: list
    trainer: Trainer


def train(config: ExperimentConfig) -> TrainResult:
    trainer = Trainer(config)
    records = [trainer.run_episode(index) for index in range(config.episodes)]
    return TrainResult(records, trainer)
