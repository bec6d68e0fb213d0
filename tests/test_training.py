"""Tests for episode orchestration: reward composition, counterfactual
replay hygiene, per-mode agent wiring, and credit timing."""

import copy
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmarl.config import ExperimentConfig, RunMode
from dagmarl.envs import FactoryEnv
from dagmarl.dag import DagTopology
from dagmarl.envs.micro import MicroDagEnv, sample_micro_env
from dagmarl import nn, training
from dagmarl.ppo import HeadRows, NonFiniteLoss, PpoConfig, PpoLearner
from dagmarl.reward_flow import RewardBaseline
from dagmarl.training import (
    Trainer,
    compose_follower_rewards,
    compose_shaped_rewards,
    counterfactual_rewards,
    state_flow_indices,
    train,
)
from helpers import (padded_rows, parameters, reference_sample_and_logprob,
                     snapshots_equal)


def tiny_ppo(**kw):
    base = dict(hidden=(8, 8), batch_size=32, epochs_per_update=1,
                learning_rate=1e-3)
    base.update(kw)
    return PpoConfig(**base)


def micro_config(mode, horizon=12, goal_period=4, **kw):
    options = dict(nodes=3, arcs=((0, 1), (0, 2)), states=2, actions=2,
                   horizon=horizon, goal_period=goal_period)
    options.update(kw.pop("env_options", {}))
    return ExperimentConfig(mode=mode, env_name="micro", env_options=options,
                            seed=kw.pop("seed", 0), episodes=1,
                            ppo=tiny_ppo(), **kw)


def member_nets(trainer, role):
    """(policy, value) nets of ``role``'s member of its shape group."""
    learner, k = trainer.agents[role]
    return learner.policy_nets[k], learner.value_nets[k]


def flat_reward_env(horizon=12, goal_period=4, sinks_value=1.0):
    """Micro env whose team reward is constant: every sink pays the same
    amount at every (state, action), so period sums are known exactly."""
    env = MicroDagEnv.from_options(nodes=3, arcs=((0, 1), (0, 2)),
                                   states=2, actions=2, horizon=horizon,
                                   goal_period=goal_period)
    for k in env.sink_rewards:
        env.sink_rewards[k] = np.full_like(env.sink_rewards[k], sinks_value)
    return env


# -- flow-state schedule --------------------------------------------------------


def test_state_flow_indices_frozen():
    assert state_flow_indices(10, 3) == [1, 4, 7, 10]
    assert state_flow_indices(1, 3) == [1]
    assert state_flow_indices(10, 1) == list(range(1, 11))
    assert state_flow_indices(3, 10) == [1]


def test_state_flow_indices_rejects_bad_args():
    with pytest.raises(ValueError):
        state_flow_indices(0, 3)
    with pytest.raises(ValueError):
        state_flow_indices(5, 0)


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=200, deadline=None)
def test_state_flow_sample_count(goal_period, stride):
    # with the period-end state appended, the sample count has a closed form
    idx = state_flow_indices(goal_period, stride)
    assert len(idx) + 1 == (goal_period - 1) // stride + 2
    assert idx[0] == 1
    assert all(1 <= d <= goal_period for d in idx)


# -- reward composition --------------------------------------------------------


def test_compose_follower_rewards_frozen():
    team = [1.0, 2.0, 3.0, 4.0]
    sr = {0: np.array([10.0, 20.0])}
    mat = compose_follower_rewards(team, n_nodes=2, goal_period=2,
                                   sr_by_period=sr)
    want = np.array([[0.5, 0.5],
                     [11.0, 21.0],
                     [1.5, 1.5],
                     [2.0, 2.0]])
    np.testing.assert_allclose(mat, want, atol=1e-12)


def test_compose_follower_rewards_rejects_incomplete_period():
    with pytest.raises(ValueError):
        compose_follower_rewards([1.0, 1.0, 1.0], n_nodes=2, goal_period=2,
                                 sr_by_period={1: np.zeros(2)})


def test_compose_shaped_rewards_frozen():
    team = [2.0, 4.0]
    phi = np.array([[1.0, 0.0], [0.5, 2.0]])
    mat = compose_shaped_rewards(team, phi, gamma=0.5, n_nodes=2)
    want = np.array([[1.0 + 0.25 - 1.0, 1.0 + 1.0 - 0.0],
                     [2.0 + 0.0 - 0.5, 2.0 + 0.0 - 2.0]])
    np.testing.assert_allclose(mat, want, atol=1e-12)


def test_compose_shaped_rewards_shape_check():
    with pytest.raises(ValueError):
        compose_shaped_rewards([1.0, 2.0], np.zeros((3, 2)), 0.9, 2)


# -- counterfactual replay --------------------------------------------------------


class SnapshotRequired(ValueError):
    pass


def difference_reward(env, snapshot, joint_action, agent: int,
                      default_action: int = 0) -> float:
    """Two-branch oracle for one agent's difference reward.

    Team reward minus the reward with one agent's action defaulted; both
    branches replay from ``snapshot`` and the environment is restored to it
    afterwards.
    """
    if snapshot is None:
        raise SnapshotRequired("difference rewards need a pre-step snapshot")
    env.restore(snapshot)
    _, r_true, _ = env.step(list(joint_action))
    env.restore(snapshot)
    alt = list(joint_action)
    alt[agent] = default_action
    _, r_cf, _ = env.step(alt)
    env.restore(snapshot)
    return float(r_true - r_cf)


def test_difference_reward_matches_two_branch_replay():
    env = FactoryEnv(goal_period=10, goal_periods=2)
    rng = np.random.default_rng(4)
    env.reset(6)
    for _ in range(3):
        env.step([int(rng.integers(s)) for s in env.action_sizes])
    snap = env.snapshot()
    joint = [1, 0, 1, 0]

    env.restore(snap)
    _, r_true, _ = env.step(joint)
    env.restore(snap)
    _, r_cf, _ = env.step([0, 0, 1, 0])
    env.restore(snap)

    got = difference_reward(env, snap, joint, agent=0)
    assert got == r_true - r_cf
    assert snapshots_equal(env.snapshot(), snap)


def test_difference_reward_requires_snapshot():
    env = FactoryEnv(goal_period=5, goal_periods=1)
    env.reset(0)
    with pytest.raises(SnapshotRequired):
        difference_reward(env, None, [0, 0, 0, 0], agent=1)


def test_counterfactual_rewards_end_at_true_successor():
    env = FactoryEnv(goal_period=8, goal_periods=3)
    twin = FactoryEnv(goal_period=8, goal_periods=3)
    rng = np.random.default_rng(19)
    env.reset(2)
    twin.reset(2)
    for _ in range(12):
        joint = [int(rng.integers(s)) for s in env.action_sizes]
        before = env.snapshot()
        obs, r_true, done, diffs = counterfactual_rewards(env, joint)
        t_obs, t_r, t_done = twin.step(joint)

        assert r_true == t_r and done == t_done
        for a, b in zip(obs, t_obs):
            np.testing.assert_array_equal(a, b)
        # the env must sit exactly where a plain step would have left it
        assert snapshots_equal(env.snapshot(), twin.snapshot())

        assert diffs.shape == (4,)
        for i in range(4):
            assert diffs[i] == difference_reward(env, before, joint, agent=i)
        env.step(joint)


def test_counterfactual_sweep_restores_once_per_branch():
    env = FactoryEnv(goal_period=8, goal_periods=3)
    env.reset(5)
    calls = []
    for name in ("snapshot", "restore", "step", "step_reward", "observe"):
        method = getattr(env, name)
        setattr(env, name, lambda *a, name=name, method=method:
                calls.append(name) or method(*a))
    n = env.topology.node_count
    # each agent not already idle gets a branch that takes only its reward
    # and is restored; an idle agent's difference is 0.0 without one.  The
    # real step, last, is the only full step and the only observe()
    for joint, branches in (([1, 0, 1, 0], 2), ([1, 1, 1, 1], n)):
        calls.clear()
        _, _, _, diffs = counterfactual_rewards(env, joint)
        assert calls == (["snapshot"] + ["step_reward", "restore"] * branches
                         + ["step", "step_reward", "observe"])
        assert [d for a, d in zip(joint, diffs) if a == 0] == [0.0] * (
            n - branches)


def test_frozen_diff_episode_skips_counterfactual_replay():
    srm = Trainer(micro_config(RunMode.SRM, seed=9))
    diff = Trainer(micro_config(RunMode.DIFF_M, seed=9))
    snapshots = []
    take = diff.env.snapshot
    diff.env.snapshot = lambda: snapshots.append(1) or take()
    for env_seed in (1, 2, 3):
        want = srm.run_episode(0, env_seed=env_seed, frozen=True)
        got = diff.run_episode(0, env_seed=env_seed, frozen=True)
        assert got.team_reward == want.team_reward
        assert got.goal_periods == want.goal_periods
    assert snapshots == []
    # training still replays every step
    diff.run_episode(0)
    assert len(snapshots) == diff.env.max_steps


# -- trainer wiring --------------------------------------------------------------


def test_gs_mode_has_single_central_agent():
    trainer = Trainer(micro_config(RunMode.GS))
    assert set(trainer.agents) == {"gs"}
    assert trainer.agents["gs"][0].obs_dim == sum(trainer.env.obs_dims)


def test_srm_mode_has_followers_only():
    trainer = Trainer(micro_config(RunMode.SRM))
    assert set(trainer.agents) == {"follower-0", "follower-1", "follower-2"}
    for i in range(3):
        assert (trainer.agents[f"follower-{i}"][0].obs_dim
                == trainer.env.obs_dims[i])


def test_lfm_mode_appends_goals_to_followers():
    cfg = micro_config(RunMode.LFM)
    trainer = Trainer(cfg)
    assert set(trainer.agents) == {"follower-0", "follower-1", "follower-2",
                                   "leader"}
    m = cfg.goal_dim
    for i in range(3):
        assert trainer.agents[f"follower-{i}"][0].obs_dim == \
            trainer.env.obs_dims[i] + m
    assert trainer.agents["leader"][0].obs_dim == sum(trainer.env.obs_dims)


def test_rfm_mode_wires_generator_and_distributor():
    cfg = micro_config(RunMode.RFM, goal_period=4, horizon=12)
    trainer = Trainer(cfg)
    assert set(trainer.agents) == {"follower-0", "follower-1", "follower-2",
                                   "generator", "distributor"}
    n_flow = (4 - 1) // cfg.flow_stride + 2
    global_dim = sum(trainer.env.obs_dims)
    assert trainer.agents["generator"][0].obs_dim == n_flow * global_dim
    n_arcs = len(trainer.env.topology.arcs)
    assert trainer.agents["distributor"][0].obs_dim == n_flow * global_dim
    # one beta head (two shape params) per node value and per arc value
    assert (trainer.agents["distributor"][0].head.param_dim
            == 2 * (3 + n_arcs))


def test_proposed_mode_wires_everything():
    cfg = micro_config(RunMode.PROPOSED)
    trainer = Trainer(cfg)
    assert set(trainer.agents) == {"follower-0", "follower-1", "follower-2",
                                   "leader", "generator", "distributor"}
    # RGD observations carry the current goals as well
    n_flow = (4 - 1) // cfg.flow_stride + 2
    want = n_flow * sum(trainer.env.obs_dims) + 3 * cfg.goal_dim
    assert trainer.agents["generator"][0].obs_dim == want


def test_disable_flags_reduce_agent_sets():
    no_rgd = Trainer(micro_config(RunMode.PROPOSED, disable_rgd=True))
    assert set(no_rgd.agents) == {"follower-0", "follower-1", "follower-2",
                                  "leader"}
    no_leader = Trainer(micro_config(RunMode.PROPOSED, disable_leader=True))
    assert set(no_leader.agents) == {"follower-0", "follower-1", "follower-2",
                                     "generator", "distributor"}
    neither = Trainer(micro_config(RunMode.PROPOSED, disable_leader=True,
                                   disable_rgd=True))
    assert set(neither.agents) == {"follower-0", "follower-1", "follower-2"}
    assert not neither.leader_on and not neither.rgd_on


# -- credit timing ----------------------------------------------------------------


def test_srm_splits_team_reward_equally():
    env = flat_reward_env(horizon=12, goal_period=4)
    trainer = Trainer(micro_config(RunMode.SRM), env=env)
    record = trainer.run_episode(0)
    # two sinks pay 1 each step, so the team earns 2 per step
    assert record.team_reward == pytest.approx(24.0)
    assert record.goal_periods == 3
    for i in range(3):
        assert record.agent_rewards[f"follower-{i}"] == pytest.approx(8.0)
    assert record.sr_sums is None


def test_leader_reward_is_sum_of_period_sums():
    env = flat_reward_env(horizon=12, goal_period=4)
    trainer = Trainer(micro_config(RunMode.LFM), env=env)
    record = trainer.run_episode(0)
    assert record.agent_rewards["leader"] == pytest.approx(record.team_reward)
    assert trainer.last_diagnostics["leader"]["transitions"] == 3


def test_rgd_reward_lags_one_period():
    env = flat_reward_env(horizon=12, goal_period=4)
    trainer = Trainer(micro_config(RunMode.RFM), env=env)
    record = trainer.run_episode(0)
    # acts after each of the 3 completed periods; each action is paid the
    # next period's sum, and the last one gets nothing
    assert trainer.last_diagnostics["generator"]["transitions"] == 3
    assert record.agent_rewards["generator"] == pytest.approx(8.0 + 8.0)
    assert record.agent_rewards["distributor"] == pytest.approx(16.0)


def test_rgd_skips_incomplete_final_period():
    env = flat_reward_env(horizon=10, goal_period=4)
    trainer = Trainer(micro_config(RunMode.RFM, horizon=10), env=env)
    record = trainer.run_episode(0)
    # periods run 4/4/2; only the two full ones trigger an action, and the
    # second action is paid the partial period's sum
    assert record.goal_periods == 3
    assert trainer.last_diagnostics["generator"]["transitions"] == 2
    assert record.agent_rewards["generator"] == pytest.approx(8.0 + 4.0)


@pytest.mark.parametrize("mode", [RunMode.RFM, RunMode.PROPOSED])
def test_episode_shorter_than_one_goal_period(mode):
    env = flat_reward_env(horizon=3, goal_period=4)
    trainer = Trainer(micro_config(mode, horizon=3), env=env)
    before = {role: tuple(net.flat.copy()
                          for net in member_nets(trainer, role))
              for role in trainer.agents}
    record = trainer.run_episode(0)
    # no period completes, so the generator and distributor never act: no
    # rows, no pay, no synthetic rewards and no update
    assert record.goal_periods == 1
    np.testing.assert_array_equal(record.sr_sums, np.zeros(3))
    for role in ("generator", "distributor"):
        assert record.agent_rewards[role] == 0.0
        assert role not in trainer.last_diagnostics
        for net, then in zip(member_nets(trainer, role), before[role]):
            np.testing.assert_array_equal(net.flat, then)
    # the followers learn from every step and the leader from its one goal
    learners = {f"follower-{i}": 3 for i in range(3)}
    if mode is RunMode.PROPOSED:
        learners["leader"] = 1
    for role, rows in learners.items():
        assert trainer.last_diagnostics[role]["transitions"] == rows
        assert not np.array_equal(member_nets(trainer, role)[0].flat,
                                  before[role][0])


def test_first_episode_budget_is_zero():
    env = flat_reward_env()
    trainer = Trainer(micro_config(RunMode.RFM), env=env)
    first = trainer.run_episode(0)
    np.testing.assert_array_equal(first.sr_sums, np.zeros(3))
    second = trainer.run_episode(1)
    assert second.sr_sums.sum() > 0.0  # baseline now set, budget positive


def test_baseline_is_the_last_training_episodes_totals():
    trainer = Trainer(micro_config(RunMode.RFM, horizon=10, seed=5))
    assert trainer.baseline == RewardBaseline()
    first = trainer.run_episode(0)
    assert trainer.baseline == RewardBaseline(first.team_reward,
                                              first.goal_periods)
    trainer.run_episode(1, frozen=True)
    assert trainer.baseline == RewardBaseline(first.team_reward,
                                              first.goal_periods)
    second = trainer.run_episode(2)
    assert second.team_reward != first.team_reward
    # only the previous episode counts, no running average
    assert trainer.baseline == RewardBaseline(second.team_reward,
                                              second.goal_periods)


def sequential_period_sums(team, goal_period):
    sums = []
    for start in range(0, len(team), goal_period):
        total = 0.0
        for reward in team[start:start + goal_period]:
            total += reward
        sums.append(total)
    return sums


@pytest.mark.parametrize("horizon", [10, 12])
def test_role_streams_are_period_sums_of_team_rewards(horizon,
                                                       monkeypatch):
    # the micro env's own random reward tables, so step rewards differ
    trainer = Trainer(micro_config(RunMode.PROPOSED, horizon=horizon,
                                   seed=4))
    team = []
    env_step = trainer.env.step

    def step(actions):
        obs, reward, done = env_step(actions)
        team.append(reward)
        return obs, reward, done

    trainer.env.step = step
    paid = {}
    roles = {id(learner): group for learner, group in trainer.groups}

    def update(learner, rewards, original=PpoLearner.update):
        for role, paid_rewards in zip(roles[id(learner)], rewards):
            paid[role] = np.array(paid_rewards, dtype=float)
        return original(learner, rewards)

    monkeypatch.setattr(PpoLearner, "update", update)

    for episode in range(2):
        team.clear()
        paid.clear()
        trainer.run_episode(episode)
        assert len(team) == horizon and len(set(team)) > 1
        sums = sequential_period_sums(team, 4)
        np.testing.assert_array_equal(paid["leader"], sums)
        # each complete period's action is paid the next period's sum; an
        # action after the final period is paid nothing
        want = sums[1:] + ([0.0] if horizon % 4 == 0 else [])
        np.testing.assert_array_equal(paid["generator"], want)
        np.testing.assert_array_equal(paid["distributor"], want)


def test_leader_input_is_concatenated_observation_in_every_run():
    trainer = Trainer(micro_config(RunMode.PROPOSED, horizon=10, seed=6))
    env = trainer.env
    leader, k = trainer.agents["leader"]
    assert leader.obs_dim == sum(env.obs_dims)
    observed, inputs = [], []
    env_reset, env_step = env.reset, env.step

    def reset(seed):
        observed.append(env_reset(seed))
        return observed[-1]

    def step(actions):
        obs, reward, done = env_step(actions)
        observed.append(obs)
        return obs, reward, done

    env.reset, env.step = reset, step
    for name in ("act", "frozen_act"):
        def spy(*t, original=getattr(leader, name)):
            assert leader.inputs.shape == (1, leader.obs_dim)
            inputs.append(np.array(leader.inputs[k]))
            return original(*t)
        setattr(leader, name, spy)

    for frozen in (False, True):
        observed.clear()
        inputs.clear()
        trainer.run_episode(0, env_seed=3, frozen=frozen)
        period_starts = range(0, len(observed) - 1, env.goal_period)
        assert len(inputs) == len(period_starts) == 3
        for state, t in zip(inputs, period_starts):
            assert state.shape == (leader.obs_dim,)
            np.testing.assert_array_equal(state, np.concatenate(observed[t]))


@pytest.mark.parametrize("env_name, mode, env_options", [
    ("micro", RunMode.LFM, None),
    ("micro", RunMode.PROPOSED, None),
    # four lone followers of four shapes, each reading its goal
    ("factory", RunMode.LFM, dict(goal_period=3, goal_periods=3)),
])
def test_follower_rows_hold_the_periods_goal(env_name, mode, env_options):
    trainer = Trainer(shape_group_config(env_name, mode, env_options))
    env = trainer.env
    m = trainer.config.goal_dim
    observed, goals, rows = [], [], []
    env_reset, env_step = env.reset, env.step

    def reset(seed):
        observed.append([np.array(o) for o in env_reset(seed)])
        return observed[-1]

    def step(actions):
        obs, reward, done = env_step(actions)
        observed.append([np.array(o) for o in obs])
        return obs, reward, done

    env.reset, env.step = reset, step
    leader_heads = trainer._heads["leader"]
    for name in ("act", "frozen_act"):
        def spy(*t, original=getattr(leader_heads, name)):
            [action] = original(*t)
            goals.append(np.array(action))
            return action[None]
        setattr(leader_heads, name, spy)
    followers = {learner for role, (learner, _) in trainer.agents.items()
                 if role.startswith("follower-")}
    for learner in followers:
        for name in ("act", "frozen_act"):
            def spy(*args, learner=learner, original=getattr(learner, name)):
                rows.append((learner, np.array(learner.inputs)))
                return original(*args)
            setattr(learner, name, spy)

    # a frozen episode follows a training one and a training one a frozen
    for episode, frozen in enumerate((False, False, True, True, False)):
        observed.clear()
        goals.clear()
        rows.clear()
        trainer.run_episode(episode, env_seed=episode, frozen=frozen)
        steps = len(observed) - 1
        assert len(goals) == -(-steps // env.goal_period) >= 2
        # every follower group acts once a step, in group order
        acted = iter(rows)
        assert len(rows) == steps * len(followers)
        for t in range(steps):
            seen = dict(next(acted) for _ in followers)
            for i in range(trainer.n_nodes):
                learner, k = trainer.agents[f"follower-{i}"]
                goal = goals[t // env.goal_period][i * m:(i + 1) * m]
                want = np.concatenate((observed[t][i], goal))
                np.testing.assert_array_equal(seen[learner][k], want)


def test_rgd_input_is_sampled_states_end_state_and_goals():
    trainer = Trainer(micro_config(RunMode.PROPOSED, horizon=10, seed=2,
                                   flow_stride=2))
    env = trainer.env
    assert state_flow_indices(env.goal_period, 2) == [1, 3]
    observed, goals, inputs = [], [], {"generator": [], "distributor": []}
    env_reset, env_step = env.reset, env.step

    def reset(seed):
        observed.append(env_reset(seed))
        return observed[-1]

    def step(actions):
        obs, reward, done = env_step(actions)
        observed.append(obs)
        return obs, reward, done

    env.reset, env.step = reset, step

    leader, _ = trainer.agents["leader"]

    def leader_record(t, actions, log_probs, original=leader.record):
        [action] = actions
        goals.append(np.array(action, dtype=float))
        return original(t, actions, log_probs)
    leader.record = leader_record
    for role in inputs:
        learner, member = trainer.agents[role]

        def spy(t, out, role=role, learner=learner, member=member,
                original=learner.act):
            rows = learner.inputs
            assert rows.shape == (len(learner.rngs), learner.obs_dim)
            inputs[role].append(np.array(rows[member]))
            return original(t, out)
        learner.act = spy

    trainer.run_episode(0)
    # periods run 4/4/2: the two complete ones each give one input
    assert len(observed) == 11 and len(goals) == 3
    for role, seen in inputs.items():
        assert len(seen) == 2, role
        for p, state in enumerate(seen):
            start = p * env.goal_period
            want = np.concatenate([np.concatenate(observed[start]),
                                   np.concatenate(observed[start + 2]),
                                   np.concatenate(observed[start + 4]),
                                   goals[p]])
            np.testing.assert_array_equal(state, want)


def test_follower_transition_counts():
    env = flat_reward_env(horizon=10, goal_period=4)
    trainer = Trainer(micro_config(RunMode.SRM, horizon=10), env=env)
    trainer.run_episode(0)
    for i in range(3):
        assert trainer.last_diagnostics[f"follower-{i}"]["transitions"] == 10


# each environment's shape groups under the mode it is tested with below,
# as role lists in role order
SHAPE_GROUPS = {
    ("prey", RunMode.SRM): [[f"follower-{i}" for i in range(4)]],
    ("logistics", RunMode.DIFF_M): [["follower-0", "follower-1"],
                                    ["follower-2", "follower-3"],
                                    ["follower-4"]],
    ("factory", RunMode.PROPOSED): [[f"follower-{i}"] for i in range(4)] + [
        ["leader"], ["generator"], ["distributor"]],
    ("micro", RunMode.SRM): [["follower-0", "follower-1", "follower-2"]],
    # a one-node DAG: the generator and distributor share an input and a
    # BetaHead(1), and are still a learner each
    ("micro", RunMode.PROPOSED): [["follower-0"], ["leader"], ["generator"],
                                  ["distributor"]],
}

ONE_NODE_MICRO = dict(nodes=1, arcs=(), states=2, actions=2, horizon=8,
                      goal_period=4)

# (env_name, mode, env_options, updates per training episode)
SHAPE_GROUP_CASES = [
    ("prey", RunMode.SRM, dict(max_steps=6), 1),
    ("logistics", RunMode.DIFF_M, dict(goal_period=2, goal_periods=2), 3),
    # 4 followers of 4 shapes, the leader, the generator and the distributor
    ("factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2), 7),
    ("micro", RunMode.SRM, None, 1),
    ("micro", RunMode.PROPOSED, ONE_NODE_MICRO, 4),
]


def shape_group_config(env_name, mode, env_options, **ppo):
    cfg = micro_config(mode)
    if env_options is None:
        return ExperimentConfig(**{**cfg.__dict__, "ppo": tiny_ppo(**ppo)})
    return ExperimentConfig(mode=mode, env_name=env_name,
                            env_options=env_options, ppo=tiny_ppo(**ppo))


@pytest.mark.parametrize("env_name, mode, env_options, updates",
                         SHAPE_GROUP_CASES)
def test_one_update_per_shape_group_per_episode(monkeypatch, env_name, mode,
                                                env_options, updates):
    calls = []
    update = PpoLearner.update
    monkeypatch.setattr(PpoLearner, "update",
                        lambda self, *a: calls.append(self)
                        or update(self, *a))
    trainer = Trainer(shape_group_config(env_name, mode, env_options))
    assert ([roles for _, roles in trainer.groups]
            == SHAPE_GROUPS[env_name, mode])
    for learner, roles in trainer.groups:
        assert len(learner.rngs) == len(roles)
        assert all(trainer.agents[role] == (learner, k)
                   for k, role in enumerate(roles))
    # the followers draw in one head call, and each other role in its own
    followers = [learner for learner, roles in trainer.groups
                 if roles[0].startswith("follower-")]
    assert trainer._step_heads.learners == tuple(followers)
    lone = {roles[0]: learner for learner, roles in trainer.groups
            if learner not in followers}
    assert sorted(trainer._heads) == sorted(lone)
    for role, learner in lone.items():
        assert trainer._heads[role].learners == (learner,)
    for episode in range(2):
        calls.clear()
        trainer.run_episode(episode)
        assert len(calls) == updates
        assert calls == [learner for learner, _ in trainer.groups]


def assert_members_are_group_rows(trainer):
    """Each role's member nets are row k of its group's (G, P) arrays."""
    for learner, roles in trainer.groups:
        for k, role in enumerate(roles):
            assert trainer.agents[role] == (learner, k)
            for net, group in zip(member_nets(trainer, role),
                                  (learner.policy, learner.value)):
                assert group.flat.shape == (len(roles), net.flat.size)
                assert np.shares_memory(net.flat, group.flat[k])
                np.testing.assert_array_equal(net.flat, group.flat[k])


@pytest.mark.parametrize("env_name, mode, env_options, updates",
                         SHAPE_GROUP_CASES)
def test_members_act_on_rows_of_their_group(monkeypatch, tmp_path, env_name,
                                            mode, env_options, updates):
    # one-row minibatches, so Adam steps before the poisoned row's minibatch
    cfg = shape_group_config(env_name, mode, env_options, batch_size=1,
                             epochs_per_update=2)
    trainer = Trainer(cfg)
    for episode in range(2):
        trainer.run_episode(episode)
    assert_members_are_group_rows(trainer)

    trainer.save_checkpoints(tmp_path)
    twin = Trainer(cfg)
    twin.load_checkpoints(tmp_path)
    trainer.load_checkpoints(tmp_path)
    for loaded in (twin, trainer):
        assert_members_are_group_rows(loaded)
        for (learner, _), (own, _) in zip(loaded.groups, trainer.groups):
            np.testing.assert_array_equal(learner.policy.flat,
                                          own.policy.flat)
            np.testing.assert_array_equal(learner.value.flat, own.value.flat)

    # a huge first reward overflows follower-1's value loss in its own
    # minibatch, so its whole group fails after other minibatches stepped;
    # a one-node DAG poisons its one follower
    role = f"follower-{min(1, trainer.n_nodes - 1)}"
    reward_streams = Trainer._reward_streams

    def poisoned(self, *args):
        streams, sr_sums = reward_streams(self, *args)
        streams[role][0] = 1e200
        return streams, sr_sums

    monkeypatch.setattr(Trainer, "_reward_streams", poisoned)
    learner, _ = trainer.agents[role]
    before = (learner.policy.flat.copy(), learner.value.flat.copy())
    steps = []
    adam_step = nn.adam_step
    monkeypatch.setattr(nn, "adam_step",
                        lambda state, params, grad:
                        steps.append(params is learner.policy.flat)
                        or adam_step(state, params, grad))
    with pytest.raises(NonFiniteLoss, match=f"{role} update in episode 2"), \
            np.errstate(over="ignore"):
        trainer.run_episode(2)
    assert any(steps), "the failure must come after the group stepped"
    assert_members_are_group_rows(trainer)
    np.testing.assert_array_equal(learner.policy.flat, before[0])
    np.testing.assert_array_equal(learner.value.flat, before[1])


def own_frozen_action(head, own):
    """The frozen action of one member's outputs ``own``, drawn alone."""
    if isinstance(head, nn.CategoricalHead):
        return nn.frozen_action(head, padded_rows(head, own))
    return nn.frozen_action(head, own[None])[0]


def assert_groups_act_as_their_members(trainer, seed):
    """Each group's one-pass frozen action is every member's own: the
    stacked outputs equal each member's single-row forward bit for bit,
    and so do the actions, an all-tie output included."""
    rng = np.random.default_rng(seed)
    for learner, roles in trainer.groups:
        rows = rng.standard_normal((len(roles), learner.obs_dim))
        for tie in (False, True):
            if tie:  # zero outputs: a categorical head picks index 0
                w, b = learner.policy.layer_views(learner.policy.flat)[-1]
                w[...] = b[...] = 0.0
            stacked = learner.policy.forward(rows[:, None])[:, 0]
            learner.inputs[...] = rows
            # one row per member and segment, in member order
            acted = HeadRows([learner]).frozen_act().reshape(len(roles), -1)
            for k, row in enumerate(rows):
                own = learner.policy_nets[k].forward(row)
                assert np.array_equal(stacked[k], own)
                want = own_frozen_action(learner.head, own)
                np.testing.assert_array_equal(acted[k], want)
                if tie and isinstance(learner.head, nn.CategoricalHead):
                    assert list(want) == [0] * len(learner.head.sizes)


@pytest.mark.parametrize("env_name, mode, env_options", [
    ("prey", RunMode.SRM, dict(max_steps=6)),
    ("logistics", RunMode.DIFF_M, dict(goal_period=2, goal_periods=2)),
    # lone followers, the leader's Beta head, and gs's segments 3, 3, 3, 5
    ("factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2)),
    ("factory", RunMode.GS, dict(goal_period=4, goal_periods=2)),
])
def test_one_pass_frozen_act_is_each_members_own(tmp_path, env_name, mode,
                                                 env_options):
    cfg = shape_group_config(env_name, mode, env_options)
    trainer = Trainer(cfg)
    for episode in range(2):
        trainer.run_episode(episode)
    trainer.save_checkpoints(tmp_path)
    twin = Trainer(cfg)
    twin.load_checkpoints(tmp_path)
    assert_groups_act_as_their_members(trainer, 0)
    assert_groups_act_as_their_members(twin, 1)


def interleaved_micro_env():
    """A micro env whose followers 0 and 2 share a shape, with node 1's
    other shape between them."""
    return sample_micro_env(np.random.default_rng(8),
                            DagTopology(3, ((0, 1), (0, 2))),
                            n_states=(2, 3, 2), n_actions=(2, 3, 2),
                            horizon=12, goal_period=4)


@pytest.mark.parametrize("mode, groups", [
    # a shape group is a run of consecutive nodes
    (RunMode.SRM, [["follower-0"], ["follower-1"], ["follower-2"]]),
    (RunMode.PROPOSED, [["follower-0"], ["follower-1"], ["follower-2"],
                        ["leader"], ["generator"], ["distributor"]]),
    (RunMode.GS, [["gs"]]),
])
def test_interleaved_shapes_act_in_node_order(mode, groups):
    env = interleaved_micro_env()
    trainer = Trainer(micro_config(mode), env=env)
    assert [roles for _, roles in trainer.groups] == groups
    joint = []
    env_step = env.step

    def step(actions):
        joint.append(list(actions))
        return env_step(actions)

    env.step = step
    for episode, frozen in enumerate((False, True, False, True)):
        trainer.run_episode(episode, env_seed=episode, frozen=frozen)
    # node 1 draws from three actions, nodes 0 and 2 from two
    assert len(joint) == 4 * env.max_steps
    for actions in joint:
        assert len(actions) == 3
        assert all(0 <= a < size for a, size in zip(actions, (2, 3, 2)))
    assert any(actions[1] == 2 for actions in joint)
    assert_groups_act_as_their_members(trainer, 0)


def acting_count(roles, steps, goal_period, frozen):
    """How often a group of ``roles`` acts in an episode of ``steps``."""
    if roles[0] == "leader":
        return -(-steps // goal_period)
    if roles[0] in ("generator", "distributor"):
        return 0 if frozen else steps // goal_period
    return steps


@pytest.mark.parametrize("env_name, mode, env_options, sizes", [
    ("prey", RunMode.SRM, dict(max_steps=6), [4]),  # one group of followers
    # 4 lone followers, the leader, the generator and the distributor
    ("factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2),
     [1] * 7),
    ("micro", RunMode.GS, None, [1]),
])
def test_every_group_acts_in_one_call_per_step(monkeypatch, env_name, mode,
                                               env_options, sizes):
    trainer = Trainer(shape_group_config(env_name, mode, env_options))
    assert [len(roles) for _, roles in trainer.groups] == sizes
    # each group's acting buffers, allocated with it
    buffers = {learner: (learner.inputs, learner.rollout)
               for learner, _ in trainer.groups}
    calls = []
    # each act call's step: t in training, none when frozen; ``out`` is last
    for name in ("act", "frozen_act"):
        monkeypatch.setattr(
            PpoLearner, name,
            lambda self, *t, name=name, original=getattr(PpoLearner, name):
            calls.append((name, self, *t[:-1])) or original(self, *t))
    # the heads each draw or argmax is called for, in order
    head_calls = []
    for name in ("sample_and_logprob", "frozen_action"):
        monkeypatch.setattr(
            nn, name,
            lambda head, *args, original=getattr(nn, name):
            head_calls.append(head) or original(head, *args))
    # no update runs, so every forward below is an acting one
    updated = set()
    monkeypatch.setattr(PpoLearner, "update",
                        lambda self, rewards: updated.add(self) or {})
    forward_cached = nn.DenseNet.forward_cached
    monkeypatch.setattr(nn.DenseNet, "forward_cached",
                        lambda self, x: calls.append(np.ndim(x))
                        or forward_cached(self, x))
    heads = [trainer._heads.get(roles[0]) for _, roles in trainer.groups]
    follower_heads = trainer._step_heads
    for frozen in (False, True, False, True):
        calls.clear()
        head_calls.clear()
        updated.clear()
        trainer.run_episode(0, env_seed=4, frozen=frozen)
        steps = trainer.env.step_count
        assert steps >= 2
        # training: one single-row forward per member; frozen: one stacked
        # forward of a group's (G, 1, obs) rows, or a lone member's
        # single-row forward
        name = "frozen_act" if frozen else "act"
        acts = [call for call in calls if isinstance(call, tuple)]
        want = []
        for _, learner, *_ in acts:
            members = len(learner.rngs)
            want += [(name, learner)] + (
                [3] if frozen and members > 1 else
                [1] * (1 if frozen else members))
        assert [call[:2] if isinstance(call, tuple) else call
                for call in calls] == want
        # every follower draws in exactly one head call per step, and each
        # other group in one per act
        if follower_heads is not None:
            assert sum(head is follower_heads.head
                       for head in head_calls) == steps
        want_heads = sum(acting_count(roles, steps, trainer.env.goal_period,
                                      frozen)
                         for _, roles in trainer.groups if roles[0] in
                         trainer._heads) + (steps if follower_heads else 0)
        assert len(head_calls) == want_heads
        for (learner, roles), own in zip(trainer.groups, heads):
            seen = [call[2:] for call in acts if call[1] is learner]
            assert len(seen) == acting_count(roles, steps,
                                             trainer.env.goal_period, frozen)
            if own is not None:
                assert sum(head is own.head for head in head_calls) == len(seen)
            # the group's act number t records its rollout's step t
            assert seen == ([()] * len(seen) if frozen
                            else [(t,) for t in range(len(seen))])
            assert (frozen or not seen) == (learner not in updated)
            # one C-contiguous (G, obs) array of the group's, and one
            # rollout, for as long as the trainer lives
            inputs, rollout = buffers[learner]
            assert learner.inputs is inputs and learner.rollout is rollout
            assert inputs.shape == (len(roles), learner.obs_dim)
            assert inputs.flags.c_contiguous
    assert len({id(inputs) for inputs, _ in buffers.values()}) == len(buffers)
    assert not any(np.shares_memory(inputs, array)
                   for inputs, _ in buffers.values()
                   for _, rollout in buffers.values()
                   for array in vars(rollout).values())


@pytest.mark.parametrize("env_name, mode, env_options", [
    ("prey", RunMode.SRM, dict(max_steps=6)),
    ("logistics", RunMode.DIFF_M, dict(goal_period=2, goal_periods=2)),
    ("factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2)),
    ("micro", RunMode.GS, None),
])
def test_act_records_its_inputs_and_each_members_own_draw(
        monkeypatch, env_name, mode, env_options):
    trainer = Trainer(shape_group_config(env_name, mode, env_options))
    checked = {"act": 0, "record": 0, "frozen_act": 0}
    act, record = PpoLearner.act, PpoLearner.record
    frozen_act = PpoLearner.frozen_act
    # each acting group's generators as they were before its step's draw
    twins = {}

    def act_spy(self, t, out):
        assert self not in twins, "a group acts once per step"
        twins[self] = [copy.deepcopy(rng) for rng in self.rngs]
        states = self.rollout.states.copy()
        act(self, t, out)
        # step t holds the inputs, and no other step changed
        states[:, t] = self.inputs
        np.testing.assert_array_equal(self.rollout.states, states)
        checked["act"] += 1

    def record_spy(self, t, actions, log_probs):
        record(self, t, actions, log_probs)
        rollout = self.rollout
        acted = actions.reshape(len(self.rngs), -1)
        for k, (net, twin) in enumerate(zip(self.policy_nets,
                                            twins.pop(self))):
            own = net.forward(self.inputs[k])
            if isinstance(self.head, nn.CategoricalHead):
                action, log_prob = reference_sample_and_logprob(
                    self.head, own, twin)
            else:
                [action], [log_prob] = nn.sample_and_logprob(
                    self.head, own[None], [twin])
            np.testing.assert_array_equal(acted[k], action)
            np.testing.assert_array_equal(rollout.actions[k, t], action)
            assert rollout.log_probs[k, t] == log_prob
        checked["record"] += 1

    def frozen_spy(self, out):
        before = [array.copy() for array in vars(self.rollout).values()]
        frozen_act(self, out)
        for now, then in zip(vars(self.rollout).values(), before):
            np.testing.assert_array_equal(now, then)
        checked["frozen_act"] += 1

    monkeypatch.setattr(PpoLearner, "act", act_spy)
    monkeypatch.setattr(PpoLearner, "record", record_spy)
    monkeypatch.setattr(PpoLearner, "frozen_act", frozen_spy)
    for episode in range(2):
        trainer.run_episode(episode)
        assert not twins, "every group that acted recorded its draws"
        trainer.run_episode(episode, frozen=True)
    assert checked["act"] == checked["record"] > 0
    assert checked["frozen_act"] > 0


def test_non_finite_follower_reward_fails_its_whole_stack(monkeypatch):
    trainer = Trainer(micro_config(RunMode.SRM))
    trainer.run_episode(0)
    compose = training.compose_follower_rewards

    def poisoned(*args):
        mat = compose(*args)
        mat[3, 1] = np.nan
        return mat

    monkeypatch.setattr(training, "compose_follower_rewards", poisoned)
    before = {role: tuple(net.flat.copy()
                          for net in member_nets(trainer, role))
              for role in trainer.agents}
    with pytest.raises(NonFiniteLoss) as err:
        trainer.run_episode(1)
    assert str(err.value) == ("follower-1 update in episode 1: non-finite "
                              "advantages or returns")
    for role in trainer.agents:
        for net, then in zip(member_nets(trainer, role), before[role]):
            np.testing.assert_array_equal(net.flat, then)


# -- concurrent group updates ---------------------------------------------------------


@pytest.fixture
def update_threads(monkeypatch):
    """Records the thread of every ``PpoLearner.update`` call."""
    threads = []
    update = PpoLearner.update
    monkeypatch.setattr(PpoLearner, "update",
                        lambda self, *args: threads.append(
                            threading.current_thread())
                        or update(self, *args))
    return threads


@pytest.fixture
def pool_on(monkeypatch):
    """Shape groups update on the pool at any width and CPU count."""
    monkeypatch.setattr(training, "_POOL_MIN_WIDTH", 0)
    monkeypatch.setattr(training, "_cpu_count", lambda: 2)


@pytest.mark.parametrize("hidden, cpus, mode, pooled", [
    ((256, 256), 2, "proposed", True),
    ((8, 256), 2, "proposed", True),  # the widest layer counts
    ((64, 64), 2, "proposed", False),
    ((256, 256), 1, "proposed", False),
    ((256, 256), 2, "srm", False),  # micro srm is one shape group
])
def test_groups_update_on_the_pool_only_at_paper_width(
        monkeypatch, update_threads, hidden, cpus, mode, pooled):
    monkeypatch.setattr(training, "_cpu_count", lambda: cpus)
    cfg = micro_config(RunMode(mode))
    trainer = Trainer(ExperimentConfig(**{**cfg.__dict__,
                                          "ppo": tiny_ppo(hidden=hidden)}))
    trainer.run_episode(0)
    assert len(update_threads) == len(trainer.groups)
    on_pool = [t is not threading.main_thread() for t in update_threads]
    assert on_pool == [pooled] * len(trainer.groups)


def test_a_forked_child_starts_its_own_update_pool(monkeypatch):
    # a forked child inherits the pool but not its worker threads
    monkeypatch.setattr(training, "_pool", None)
    pool = training._update_pool()
    assert training._update_pool() is pool
    monkeypatch.setattr(training.os, "getpid", lambda: -1)
    child = training._update_pool()
    assert child is not pool
    assert training._update_pool() is child
    assert child.submit(sum, (1, 2)).result(timeout=10) == 3


def poison_rewards(monkeypatch, *roles):
    """A huge first reward overflows each role's value loss in its own
    minibatch, after other minibatches of its group have stepped."""
    reward_streams = Trainer._reward_streams

    def poisoned(self, *args):
        streams, sr_sums = reward_streams(self, *args)
        for role in roles:
            streams[role][0] = 1e200
        return streams, sr_sums

    monkeypatch.setattr(Trainer, "_reward_streams", poisoned)


def test_a_failed_group_raises_after_every_update_returned(monkeypatch,
                                                            pool_on):
    trainer = Trainer(shape_group_config(
        "factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2),
        batch_size=1, epochs_per_update=2))
    trainer.run_episode(0)
    poison_rewards(monkeypatch, "follower-1", "follower-3")
    slow = trainer.agents["follower-1"][0]
    events = []  # (learner, "failed" or "returned"), as they happen
    update = PpoLearner.update

    def spy(self, *args):
        if self is slow:
            time.sleep(0.2)
        try:
            out = update(self, *args)
        except NonFiniteLoss:
            events.append((self, "failed"))
            raise
        events.append((self, "returned"))
        return out

    monkeypatch.setattr(PpoLearner, "update", spy)
    before = {role: (learner.policy.flat.copy(), learner.value.flat.copy())
              for role, (learner, _) in trainer.agents.items()}
    with pytest.raises(NonFiniteLoss) as err, np.errstate(over="ignore"):
        trainer.run_episode(1)
    finished = list(events)  # a job still running would add to events
    assert str(err.value).startswith("follower-1 update in episode 1: ")
    # follower-3 failed first, while follower-1 was still asleep
    failed = [learner for learner, what in finished if what == "failed"]
    assert failed == [trainer.agents[f"follower-{i}"][0] for i in (3, 1)]
    assert sorted(map(id, (learner for learner, _ in finished))) == sorted(
        id(learner) for learner, _ in trainer.groups)
    time.sleep(0.1)
    assert events == finished
    for role, (learner, _) in trainer.agents.items():
        kept = (np.array_equal(learner.policy.flat, before[role][0])
                and np.array_equal(learner.value.flat, before[role][1]))
        assert kept == (role in ("follower-1", "follower-3")), role


def test_pool_jobs_run_under_the_callers_error_state(monkeypatch, pool_on,
                                                     update_threads):
    trainer = Trainer(shape_group_config(
        "factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2)))
    poison_rewards(monkeypatch, "follower-1")
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteLoss, match="follower-1 update"):
            trainer.run_episode(0)
    assert threading.main_thread() not in update_threads


@pytest.mark.parametrize("env_name, mode, env_options", [
    ("factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2)),
    ("logistics", RunMode.DIFF_M, dict(goal_period=2, goal_periods=2)),
])
def test_bytes_do_not_depend_on_the_pool(monkeypatch, tmp_path,
                                         update_threads, env_name, mode,
                                         env_options):
    cfg = shape_group_config(env_name, mode, env_options, batch_size=4)
    runs = []
    for pooled in (False, True):
        if pooled:
            monkeypatch.setattr(training, "_POOL_MIN_WIDTH", 0)
            monkeypatch.setattr(training, "_cpu_count", lambda: 2)
        update_threads.clear()
        trainer = Trainer(cfg)
        records = [trainer.run_episode(episode) for episode in range(2)]
        assert (threading.main_thread() not in update_threads) == pooled
        runs.append(trained_bytes(trainer, records, tmp_path / str(pooled)))
    assert runs[0] == runs[1]


def trained_bytes(trainer, records, directory):
    """A training run's checkpoints, episode records and last diagnostics,
    each as plain values that compare bit for bit."""
    trainer.save_checkpoints(directory)
    checkpoints = {path.name: path.read_bytes()
                   for path in sorted(directory.iterdir())}
    episodes = [(r.episode, r.team_reward, r.goal_periods, r.agent_rewards,
                 None if r.sr_sums is None else r.sr_sums.tobytes())
                for r in records]
    return checkpoints, episodes, trainer.last_diagnostics


# -- rows that outlive their episode ------------------------------------------------


@pytest.mark.parametrize("env_name, mode, env_options", [
    # lone followers, the leader, the generator and the distributor
    ("factory", RunMode.PROPOSED, dict(goal_period=4, goal_periods=2)),
    ("logistics", RunMode.DIFF_M, dict(goal_period=2, goal_periods=2)),
    ("prey", RunMode.SRM, dict(max_steps=15)),
    ("micro", RunMode.GS, None),
])
def test_frozen_episodes_change_no_training_byte(tmp_path, env_name, mode,
                                                 env_options):
    cfg = shape_group_config(env_name, mode, env_options, batch_size=4)
    runs = []
    for frozen_between in (0, 2):
        trainer = Trainer(cfg)
        records = []
        for episode in range(3):
            records.append(trainer.run_episode(episode))
            for i in range(frozen_between):
                trainer.run_episode(episode, env_seed=100 + i, frozen=True)
                trainer.run_episode(episode, frozen=True)  # a seed of its own
        runs.append(trained_bytes(trainer, records,
                                  tmp_path / str(frozen_between)))
    assert runs[0] == runs[1]


def test_stale_rows_never_reach_an_update(tmp_path):
    # prey episodes end early, so a shorter episode follows a longer one
    # and leaves rows of the longer one past its own end
    cfg = shape_group_config("prey", RunMode.SRM, dict(max_steps=15),
                             batch_size=4)
    runs, lengths = [], []
    for poisoned in (False, True):
        trainer = Trainer(cfg)
        records = []
        for episode in range(4):
            if poisoned:
                # rows an act or update read would raise NonFiniteInput,
                # an index error or NonFiniteLoss
                for learner, _ in trainer.groups:
                    rollout = learner.rollout
                    rollout.states[...] = np.nan
                    rollout.actions[...] = np.iinfo(rollout.actions.dtype).max
                    rollout.log_probs[...] = np.nan
                    learner.inputs[...] = np.nan
            records.append(trainer.run_episode(episode))
            lengths.append(trainer.env.step_count)
        runs.append(trained_bytes(trainer, records, tmp_path / str(poisoned)))
    assert runs[0] == runs[1]
    assert any(b < a for a, b in zip(lengths, lengths[1:4]))


# -- whole-run behaviour ------------------------------------------------------------


def test_train_returns_one_record_per_episode():
    cfg = micro_config(RunMode.SRM)
    cfg = ExperimentConfig(**{**cfg.__dict__, "episodes": 4})
    result = train(cfg)
    assert [r.episode for r in result.records] == [0, 1, 2, 3]


def test_identical_configs_replay_identically():
    records_a = train(micro_config(RunMode.PROPOSED, seed=11)).records
    records_b = train(micro_config(RunMode.PROPOSED, seed=11)).records
    for a, b in zip(records_a, records_b):
        assert a.team_reward == b.team_reward
        assert a.agent_rewards == b.agent_rewards
        np.testing.assert_array_equal(a.sr_sums, b.sr_sums)


def test_env_seed_controls_environment_draws():
    trainer = Trainer(micro_config(RunMode.SRM, seed=3))
    a = trainer.run_episode(0, env_seed=99)
    trainer_b = Trainer(micro_config(RunMode.SRM, seed=3))
    b = trainer_b.run_episode(0, env_seed=99)
    assert a.team_reward == b.team_reward


def test_frozen_episode_leaves_parameters_untouched():
    trainer = Trainer(micro_config(RunMode.PROPOSED, seed=5))
    before = {role: [p.copy() for p in parameters(member_nets(trainer,
                                                               role)[0])]
              for role in trainer.agents}
    record = trainer.run_episode(0, env_seed=1, frozen=True)
    assert record.agent_rewards == {}
    assert record.sr_sums is None
    for role in trainer.agents:
        for old, new in zip(before[role],
                            parameters(member_nets(trainer, role)[0])):
            np.testing.assert_array_equal(old, new)


def test_checkpoint_round_trip_via_trainer(tmp_path):
    cfg = micro_config(RunMode.PROPOSED, seed=7)
    trainer = Trainer(cfg)
    trainer.run_episode(0)
    trainer.save_checkpoints(tmp_path)

    twin = Trainer(cfg)
    twin.load_checkpoints(tmp_path)
    learner, k = trainer.agents["follower-0"]
    twin_learner, twin_k = twin.agents["follower-0"]
    state = np.linspace(0.0, 1.0, learner.obs_dim)
    learner.inputs[...] = twin_learner.inputs[...] = state
    assert (HeadRows([learner]).frozen_act()[k]
            == HeadRows([twin_learner]).frozen_act()[twin_k])


def test_load_checkpoints_requires_every_role(tmp_path):
    from dagmarl.nn import CheckpointMismatch

    cfg = micro_config(RunMode.SRM, seed=2)
    trainer = Trainer(cfg)
    trainer.save_checkpoints(tmp_path)
    (tmp_path / "follower-1.ckpt").unlink()
    with pytest.raises(CheckpointMismatch):
        Trainer(cfg).load_checkpoints(tmp_path)
    # checkpoints of roles the trainer does not have are refused by name
    Trainer(micro_config(RunMode.PROPOSED, seed=2)).save_checkpoints(tmp_path)
    with pytest.raises(CheckpointMismatch, match="distributor.ckpt") as err:
        Trainer(micro_config(RunMode.LFM, seed=2)).load_checkpoints(tmp_path)
    assert "generator.ckpt" in str(err.value)


def test_load_checkpoints_loads_every_role_or_none(tmp_path):
    from dagmarl.nn import CheckpointMismatch

    cfg = micro_config(RunMode.PROPOSED, seed=4)
    trained = Trainer(cfg)
    trained.run_episode(0)
    trained.save_checkpoints(tmp_path)
    ckpt = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    trainer = Trainer(cfg)
    before = {role: [np.array(net.flat) for net in member_nets(trainer, role)]
              for role in trainer.agents}
    assert trainer.agents["follower-0"][0].policy.flat.shape[0] == 3
    assert not np.array_equal(before["follower-2"][0],
                              member_nets(trained, "follower-2")[0].flat)
    # a missing checkpoint, and a checkpoint of the leader's dims in place
    # of the last member of the follower group, found after its first two
    # members and before the leader, generator and distributor
    for name, data, error in (
            ("distributor.ckpt", None, "missing checkpoint"),
            ("follower-2.ckpt", ckpt["leader.ckpt"], "policy dims")):
        if data is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_bytes(data)
        with pytest.raises(CheckpointMismatch, match=error):
            trainer.load_checkpoints(tmp_path)
        assert_members_are_group_rows(trainer)
        for role, nets in before.items():
            for net, old in zip(member_nets(trainer, role), nets):
                np.testing.assert_array_equal(net.flat, old)
        (tmp_path / name).write_bytes(ckpt[name])
    # with every file in place, every role loads
    trainer.load_checkpoints(tmp_path)
    for role in trainer.agents:
        for net, want in zip(member_nets(trainer, role),
                             member_nets(trained, role)):
            np.testing.assert_array_equal(net.flat, want.flat)
