"""Tests for the exhaustive value oracle.

The distribution DP is checked three independent ways: against raw
trajectory enumeration, against a hand-computed chain, and against Monte
Carlo rollouts of the actual environment stepping code.
"""

import numpy as np
import pytest

from dagmarl.dag import DagTopology
from dagmarl.envs.micro import MicroDagEnv, sample_micro_env
from dagmarl.oracle import (
    HypothesisViolated,
    InadmissibleContribution,
    StateSpaceTooLarge,
    TabularJointPolicy,
    run_bound_campaign,
    sample_admissible_contribution,
    sample_tabular_policy,
    validate_contribution,
    verify_bound,
)
from helpers import (deterministic_policy, enumerate_values, exact_values,
                     synthetic_values, uniform_policy)


def tiny_env(seed=0, horizon=3):
    rng = np.random.default_rng(seed)
    topology = DagTopology(2, [(0, 1)])
    return sample_micro_env(rng, topology=topology, n_states=[2, 2],
                            n_actions=[2, 2], horizon=horizon)


# -- policies ----------------------------------------------------------------


def test_policy_rows_must_sum_to_one():
    with pytest.raises(ValueError):
        TabularJointPolicy((np.array([[0.5, 0.4]]),))
    with pytest.raises(ValueError):
        TabularJointPolicy((np.array([[1.2, -0.2]]),))


def test_uniform_and_deterministic_policies():
    env = tiny_env()
    uni = uniform_policy(env)
    for t in uni.tables:
        np.testing.assert_allclose(t, 0.5)  # two actions per node
    det = deterministic_policy(env, choice=[[1, 0], [0, 1]])
    assert det.tables[0][0, 1] == 1.0 and det.tables[0][1, 0] == 1.0
    assert det.tables[1][0, 0] == 1.0 and det.tables[1][1, 1] == 1.0


# -- DP against independent references ----------------------------------------


def test_dp_matches_hand_computed_chain():
    # one node, two states, one action: s0 -> s1 -> s1, r(s0)=1, r(s1)=0.5
    topology = DagTopology(1, [])
    env = MicroDagEnv(
        topology, n_states=[2], n_actions=[1], p0=[np.array([1.0, 0.0])],
        transitions=[np.array([[[0.0, 1.0]], [[0.0, 1.0]]])],
        sink_rewards={0: np.array([[1.0], [0.5]])}, horizon=3)
    policy = uniform_policy(env)
    sink_v = exact_values(env, policy, gamma=0.5)
    assert sink_v[0] == pytest.approx(1.0 + 0.5 * 0.5 + 0.25 * 0.5, abs=1e-12)


def test_dp_matches_enumeration():
    rng = np.random.default_rng(42)
    for seed in range(6):
        env = tiny_env(seed=seed, horizon=3)
        policy = sample_tabular_policy(rng, env)
        contribution = sample_admissible_contribution(rng, env)
        gamma = 0.9

        sink_v = exact_values(env, policy, gamma)
        synth_v = synthetic_values(env, policy, contribution, gamma)
        e_sink, e_synth = enumerate_values(env, policy, gamma,
                                           contribution=contribution)
        for k in sink_v:
            assert sink_v[k] == pytest.approx(e_sink[k], abs=1e-9)
        np.testing.assert_allclose(synth_v, e_synth, atol=1e-9)


def test_dp_matches_monte_carlo_rollouts():
    # independent path: the DP kernel vs the env's own stepping code
    env = tiny_env(seed=3, horizon=6)
    policy = uniform_policy(env)
    sink_v = exact_values(env, policy, gamma=1.0)
    expected = sum(sink_v.values())

    rng = np.random.default_rng(77)
    totals = []
    for episode in range(4000):
        env.reset(int(rng.integers(2 ** 31)))
        total = 0.0
        for _ in range(env.max_steps):
            actions = [int(rng.integers(a)) for a in env.n_actions]
            _, r, _ = env.step(actions)
            total += r
        totals.append(total)
    totals = np.array(totals)
    sem = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean() - expected) <= 4.0 * sem


# -- contribution weights -------------------------------------------------------


def test_sampled_contribution_is_admissible():
    rng = np.random.default_rng(9)
    for _ in range(20):
        env = sample_micro_env(rng)
        c = sample_admissible_contribution(rng, env)
        validate_contribution(env, c)
        for k, f in c.items():
            assert np.all(f >= 0.0)
            assert np.all(f.sum(axis=0) <= 1.0 + 1e-9)


def test_fixed_row_sum_contribution():
    rng = np.random.default_rng(10)
    env = tiny_env()
    c = sample_admissible_contribution(rng, env, row_sum=0.7)
    for f in c.values():
        np.testing.assert_allclose(f.sum(axis=0), 0.7, atol=1e-12)


def test_validate_contribution_rejections():
    rng = np.random.default_rng(11)
    env = tiny_env()
    good = sample_admissible_contribution(rng, env)
    (sink,) = env.topology.sinks

    with pytest.raises(InadmissibleContribution):
        validate_contribution(env, {})

    negative = {sink: good[sink].copy()}
    negative[sink][0, 0, 0] = -0.01
    with pytest.raises(InadmissibleContribution):
        validate_contribution(env, negative)

    heavy = {sink: good[sink] * 0.0 + 0.9}  # columns sum to 1.8
    with pytest.raises(InadmissibleContribution):
        validate_contribution(env, heavy)


def test_synthetic_values_scale_linearly():
    rng = np.random.default_rng(12)
    env = tiny_env(seed=1)
    policy = sample_tabular_policy(rng, env)
    c = sample_admissible_contribution(rng, env)
    half = {k: 0.5 * f for k, f in c.items()}
    v_full = synthetic_values(env, policy, c, gamma=0.9)
    v_half = synthetic_values(env, policy, half, gamma=0.9)
    np.testing.assert_allclose(v_half, 0.5 * v_full, atol=1e-12)


# -- the bound ----------------------------------------------------------------


def test_verify_bound_on_random_triples():
    rng = np.random.default_rng(13)
    for _ in range(10):
        env = sample_micro_env(rng, horizon=8)
        policy = sample_tabular_policy(rng, env)
        c = sample_admissible_contribution(rng, env)
        report = verify_bound(env, policy, c, gamma=0.9)
        assert report.ok
        assert report.margin >= -1e-9


def test_saturated_single_sink_is_equality():
    rng = np.random.default_rng(14)
    env = tiny_env(seed=2, horizon=8)
    assert len(env.topology.sinks) == 1
    policy = sample_tabular_policy(rng, env)
    c = sample_admissible_contribution(rng, env, row_sum=1.0)
    report = verify_bound(env, policy, c, gamma=0.9)
    assert report.ok
    assert abs(report.margin) <= 1e-9


def test_verify_bound_rejects_negative_rewards():
    rng = np.random.default_rng(15)
    env = tiny_env(seed=4)
    policy = sample_tabular_policy(rng, env)
    c = sample_admissible_contribution(rng, env)
    (sink,) = env.topology.sinks
    env.sink_rewards[sink][0, 0] = -0.5  # corrupt after validation
    with pytest.raises(HypothesisViolated):
        verify_bound(env, policy, c, gamma=0.9)


def test_state_space_guard():
    env = MicroDagEnv.from_options(nodes=4, arcs=((0, 1), (1, 2), (2, 3)),
                                   states=6, actions=6)
    policy = uniform_policy(env)
    with pytest.raises(StateSpaceTooLarge):
        exact_values(env, policy, gamma=0.9)


def test_enumeration_guard():
    env = tiny_env(horizon=10)
    policy = uniform_policy(env)
    with pytest.raises(StateSpaceTooLarge):
        enumerate_values(env, policy, gamma=0.9, guard=1000)


@pytest.mark.parametrize("gamma", [0.9, 0.0])
def test_small_campaign_has_no_violations(gamma):
    report = run_bound_campaign(trials=25, seed=123, gamma=gamma)
    assert report.trials == 25
    assert report.violations == 0
    assert report.max_violation == 0.0
    assert report.min_margin >= -1e-9
    assert report.equality_trials >= 1
    assert report.max_equality_gap <= 1e-9
    d = report.to_dict()
    assert d["trials"] == 25 and d["violations"] == 0
