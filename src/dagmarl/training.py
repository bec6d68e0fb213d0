"""Episode orchestration for every run mode.

An episode is split into goal periods of ``env.goal_period`` steps.  At each
period start the leader (when enabled) issues one goal vector per node, which
is appended to that node's observation for the whole period.  After each
*completed* period the generator/distributor pair (when enabled) turns a
sparse sequence of sampled global states into a scalar budget request and a
value assignment over nodes and arcs; the resulting per-node synthetic
rewards are credited at the final step of the period that produced them.
Baseline modes replace or augment the shared team signal instead:
difference rewards via counterfactual replay, or potential-based shaping on
top of the equal share.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, RunMode
from .envs import make_env
from .nn import BetaHead, CategoricalHead, CheckpointMismatch
from .ppo import PpoLearner, TrajectoryBatch
from .reward_flow import (RewardBaseline, RgdOutput, distribute,
                          synthetic_budget, update_baseline)
from .seeding import substream


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


def counterfactual_rewards(env, joint_action, default_action: int = 0):
    """Difference rewards for every agent in one sweep.

    Counterfactual branches run first from a snapshot; the true step runs
    last so the environment ends at the real successor state.  Returns
    ``(obs, team_reward, done, diffs)``.
    """
    snap = env.snapshot()
    n = env.topology.node_count
    counter = np.empty(n)
    for i in range(n):
        env.restore(snap)
        alt = list(joint_action)
        alt[i] = default_action
        _, r_cf, _ = env.step(alt)
        counter[i] = r_cf
    env.restore(snap)
    obs, r_true, done = env.step(list(joint_action))
    return obs, r_true, done, r_true - counter


def _record(rows: TrajectoryBatch, t: int, state, action, log_prob, value):
    rows.states[t] = state
    rows.actions[t] = action
    rows.log_probs[t] = log_prob
    rows.values[t] = value


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
        self.agents = self._build_agents()

    def _build_agents(self) -> dict:
        cfg = self.config
        seed = cfg.seed
        ppo = cfg.ppo
        sizes = self.env.action_sizes
        m = cfg.goal_dim
        agents = {}
        if self.mode is RunMode.GS:
            agents["gs"] = PpoLearner(self.global_dim,
                                      CategoricalHead(sizes), ppo,
                                      substream(seed, "gs"))
            return agents
        for i in range(self.n_nodes):
            dim = self.env.obs_dims[i] + (m if self.leader_on else 0)
            agents[f"follower-{i}"] = PpoLearner(
                dim, CategoricalHead((sizes[i],)), ppo,
                substream(seed, f"follower-{i}"))
        if self.leader_on:
            dim = self.global_dim
            if cfg.leader_full_state:
                dim += self.n_nodes * m + self.n_nodes
            agents["leader"] = PpoLearner(dim, BetaHead(
                self.n_nodes * m), ppo, substream(seed, "leader"))
        if self.rgd_on:
            n_flow = len(state_flow_indices(self.env.goal_period,
                                            cfg.flow_stride)) + 1
            dim = n_flow * self.global_dim
            if self.leader_on:
                dim += self.n_nodes * m
            agents["generator"] = PpoLearner(dim, BetaHead(1), ppo,
                                             substream(seed, "generator"))
            agents["distributor"] = PpoLearner(
                dim, BetaHead(self.n_nodes + len(self.env.topology.arcs)),
                ppo, substream(seed, "distributor"))
        return agents

    def run_episode(self, episode_index: int, env_seed=None,
                    frozen: bool = False) -> EpisodeRecord:
        cfg = self.config
        env = self.env
        n = self.n_nodes
        period_steps = env.goal_period
        m = cfg.goal_dim
        if env_seed is None:
            env_seed = int(self._env_stream.integers(2 ** 63))
        obs = env.reset(env_seed)

        # frozen episodes return before the counterfactual rows are read
        track_diffs = (not frozen
                       and self.mode in (RunMode.DIFF_M, RunMode.CAP_M))
        rgd_active = self.rgd_on and not frozen
        # no role acts more than once per step
        rollouts = {} if frozen else {
            role: agent.empty_batch(env.max_steps)
            for role, agent in self.agents.items()}

        team_rewards = []
        diff_rows = []
        leader_rewards = []
        rgd_rewards = []
        sr_by_period = {}
        sr_sums = np.zeros(n)
        flow_idx = frozenset(state_flow_indices(period_steps,
                                                cfg.flow_stride))
        goals = None
        goals_flat = None
        prev_goals = np.zeros(n * m)
        prev_sr = np.zeros(n)
        periods = 0
        pending_rgd = False
        done = False

        while not done:
            if self.leader_on:
                lstate = np.concatenate(obs)
                if cfg.leader_full_state:
                    lstate = np.concatenate([lstate, prev_goals, prev_sr])
                if frozen:
                    goals_flat = self.agents["leader"].frozen_act(lstate)
                else:
                    goals_flat, logp, value = self.agents["leader"].act(lstate)
                    _record(rollouts["leader"], periods, lstate, goals_flat,
                            logp, value)
                goals = np.asarray(goals_flat, dtype=float).reshape(n, m)

            flow_states = []
            period_sum = 0.0
            period_len = 0
            for d in range(1, period_steps + 1):
                if rgd_active and d in flow_idx:
                    flow_states.append(np.concatenate(obs))
                actions = self._select_actions(obs, goals, rollouts,
                                               len(team_rewards), frozen)
                if track_diffs:
                    obs, reward, done, diffs = counterfactual_rewards(
                        env, actions)
                    diff_rows.append(diffs)
                else:
                    obs, reward, done = env.step(actions)
                team_rewards.append(reward)
                period_sum += reward
                period_len += 1
                if done:
                    break
            periods += 1
            leader_rewards.append(period_sum)

            if rgd_active:
                if pending_rgd:
                    rgd_rewards.append(period_sum)
                    pending_rgd = False
                if period_len == period_steps:
                    flow_vec = np.concatenate(flow_states
                                              + [np.concatenate(obs)])
                    if self.leader_on:
                        flow_vec = np.concatenate([flow_vec, goals_flat])
                    sr = self._rgd_act(flow_vec, rollouts, len(sr_by_period))
                    sr_by_period[periods - 1] = sr
                    sr_sums += sr
                    pending_rgd = True
            if self.leader_on:
                prev_goals = np.asarray(goals_flat, dtype=float)
                prev_sr = sr_by_period.get(periods - 1, np.zeros(n))
        if pending_rgd:
            rgd_rewards.append(0.0)  # no period follows the last action

        team_arr = np.asarray(team_rewards, dtype=float)
        total = float(team_arr.sum())
        if frozen:
            return EpisodeRecord(episode_index, total, periods, {}, None)

        streams = self._reward_streams(team_arr, diff_rows, sr_by_period,
                                       leader_rewards, rgd_rewards,
                                       rgd_active)
        agent_rewards = {}
        diagnostics = {}
        for role, rewards in streams.items():
            agent_rewards[role] = float(np.sum(rewards))
            count = len(rewards)
            if count == 0:
                continue
            # rollout rows were written at the same indices the reward
            # streams count, so the first `count` rows are this episode's
            rows = rollouts[role]
            terminals = np.zeros(count, dtype=bool)
            terminals[-1] = True
            batch = TrajectoryBatch(rows.states[:count], rows.actions[:count],
                                    rows.log_probs[:count],
                                    np.asarray(rewards, dtype=float),
                                    rows.values[:count], terminals)
            diagnostics[role] = self.agents[role].update(batch)
        if rgd_active:
            self.baseline = update_baseline(self.baseline, total, periods)
        self.last_diagnostics = diagnostics
        return EpisodeRecord(episode_index, total, periods, agent_rewards,
                             sr_sums if rgd_active else None)

    def _select_actions(self, obs, goals, rollouts, t, frozen):
        if self.mode is RunMode.GS:
            pairs = [("gs", np.concatenate(obs))]
        else:
            pairs = []
            for i in range(self.n_nodes):
                state = np.asarray(obs[i], dtype=float)
                if goals is not None:
                    state = np.concatenate([state, goals[i]])
                pairs.append((f"follower-{i}", state))
        actions = []
        for role, state in pairs:
            agent = self.agents[role]
            if frozen:
                action = agent.frozen_act(state)
            else:
                action, logp, value = agent.act(state)
                _record(rollouts[role], t, state, action, logp, value)
            actions.extend(action)
        return actions

    def _rgd_act(self, rgd_state, rollouts, t):
        q_vec, logp_g, value_g = self.agents["generator"].act(rgd_state)
        values, logp_d, value_d = self.agents["distributor"].act(rgd_state)
        _record(rollouts["generator"], t, rgd_state, q_vec, logp_g, value_g)
        _record(rollouts["distributor"], t, rgd_state, values, logp_d, value_d)
        q = float(q_vec[0])
        budget = synthetic_budget(q, self.baseline)
        output = RgdOutput(q, values[:self.n_nodes],
                           values[self.n_nodes:])
        _, sr = distribute(self.env.topology, output, budget)
        return sr

    def _reward_streams(self, team_arr, diff_rows, sr_by_period,
                        leader_rewards, rgd_rewards, rgd_active) -> dict:
        n = self.n_nodes
        if self.mode is RunMode.GS:
            return {"gs": team_arr}
        if self.mode is RunMode.DIFF_M:
            mat = np.vstack(diff_rows)
        elif self.mode is RunMode.CAP_M:
            mat = compose_shaped_rewards(team_arr, np.vstack(diff_rows),
                                         self.config.ppo.gamma, n)
        else:
            mat = compose_follower_rewards(team_arr, n, self.env.goal_period,
                                           sr_by_period)
        streams = {f"follower-{i}": mat[:, i] for i in range(n)}
        if self.leader_on:
            streams["leader"] = np.asarray(leader_rewards, dtype=float)
        if rgd_active:
            rgd_arr = np.asarray(rgd_rewards, dtype=float)
            streams["generator"] = rgd_arr
            streams["distributor"] = rgd_arr.copy()
        return streams

    def save_checkpoints(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for role, agent in self.agents.items():
            agent.save(directory / f"{role}.ckpt")

    def load_checkpoints(self, directory):
        directory = Path(directory)
        for role, agent in self.agents.items():
            path = directory / f"{role}.ckpt"
            if not path.exists():
                raise CheckpointMismatch(f"missing checkpoint {path}")
            agent.load(path)


@dataclass
class TrainResult:
    records: list
    trainer: Trainer


def train(config: ExperimentConfig, env=None, on_episode=None) -> TrainResult:
    trainer = Trainer(config, env)
    records = []
    for index in range(config.episodes):
        record = trainer.run_episode(index)
        records.append(record)
        if on_episode is not None:
            on_episode(record)
    return TrainResult(records, trainer)
