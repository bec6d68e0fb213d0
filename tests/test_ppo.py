"""PPO learner tests: advantage oracle, bandit sanity, failure recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmarl import nn, ppo
from dagmarl.nn import BetaHead, CategoricalHead, CheckpointMismatch, DenseNet
from dagmarl.ppo import (EmptyBatch, NonFiniteLoss, PpoConfig, PpoLearner,
                         Rollout, compute_gae)
from helpers import parameters, reference_update


def episode_of(rows):
    """``(Rollout, rewards)`` of one member's episode from (state, action,
    log_prob, reward) rows, the arguments of a one-member group's
    ``update``."""
    states, actions, log_probs, rewards = zip(*rows)
    return (Rollout(np.array([states]), np.array([actions]),
                    np.array([log_probs])),
            np.array([rewards], dtype=float))


def member_rows(rollout, k):
    """Member k's rows of a group's rollout."""
    return Rollout(rollout.states[k], rollout.actions[k], rollout.log_probs[k])


def acted_episode(agent, rows, seed):
    """``(Rollout, rewards)`` of ``rows`` steps that each of ``agent``'s
    members acted on, with standard normal states and rewards drawn from
    ``seed``."""
    data = np.random.default_rng(seed)
    rollout = agent.empty_rollout(rows)
    for k in range(len(agent.rngs)):
        for t in range(rows):
            rollout.states[k, t] = data.standard_normal(agent.obs_dim)
    for t in range(rows):
        for k, acted in enumerate(agent.act(rollout.states[:, t])):
            rollout.actions[k, t], rollout.log_probs[k, t] = acted
    return rollout, data.standard_normal((len(agent.rngs), rows))


def gae_of(rewards, values, gamma, lam):
    """compute_gae on one episode of the given rewards."""
    return compute_gae(np.asarray(rewards, dtype=float),
                       np.asarray(values, dtype=float), gamma, lam)


def reward_to_go(rewards, gamma):
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


class TestGae:
    def test_frozen_two_step_example(self):
        adv, ret = gae_of([1.0, 1.0], [0.5, 0.5], 0.99, 0.95)
        assert abs(adv[1] - 0.5) < 1e-12
        assert abs(adv[0] - 1.46525) < 1e-12

    def test_lambda_one_zero_values_is_reward_to_go(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            gamma = float(rng.uniform(0.5, 1.0))
            rewards = rng.standard_normal(n)
            adv, ret = gae_of(rewards, np.zeros(n), gamma, 1.0)
            expected = reward_to_go(rewards, gamma)
            np.testing.assert_allclose(adv, expected, rtol=0, atol=1e-10)
            np.testing.assert_allclose(ret, expected, rtol=0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 25), st.integers(0, 10 ** 6))
    def test_gae_matches_direct_recursion(self, n, seed):
        rng = np.random.default_rng(seed)
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        gamma, lam = 0.97, 0.9
        adv, ret = gae_of(rewards, values, gamma, lam)
        # direct recursion oracle
        expected = np.zeros(n)
        acc = 0.0
        for t in range(n - 1, -1, -1):
            nxt = values[t + 1] if t + 1 < n else 0.0
            delta = rewards[t] + gamma * nxt - values[t]
            acc = delta + gamma * lam * acc
            expected[t] = acc
        np.testing.assert_allclose(adv, expected, atol=1e-10)
        np.testing.assert_allclose(ret, expected + values, atol=1e-10)


def small_config(**kw):
    base = dict(hidden=(16, 16), batch_size=64, epochs_per_update=2,
                learning_rate=0.01)
    base.update(kw)
    return PpoConfig(**base)


class TestLearner:
    def test_act_shapes_discrete(self):
        agent = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(0)])
        [((action,), logp)] = agent.act(np.zeros((1, 3)))
        assert 0 <= action < 4
        assert np.isfinite(logp)
        [(frozen,)] = agent.frozen_act(np.zeros((1, 3)))
        assert 0 <= frozen < 4

    def test_act_shapes_continuous(self):
        agent = PpoLearner(3, BetaHead(5), small_config(),
                           [np.random.default_rng(0)])
        [(action, logp)] = agent.act(np.zeros((1, 3)))
        assert action.shape == (5,)
        assert np.all((action > 0.0) & (action < 1.0))
        [frozen] = agent.frozen_act(np.zeros((1, 3)))
        assert np.all((frozen > 0.0) & (frozen < 1.0))

    def test_act_shapes_joint(self):
        agent = PpoLearner(3, CategoricalHead((2, 3, 4)), small_config(),
                           [np.random.default_rng(0)])
        [(action, logp)] = agent.act(np.zeros((1, 3)))
        assert len(action) == 3
        for a, size in zip(action, (2, 3, 4)):
            assert 0 <= a < size

    @pytest.mark.parametrize("head", [CategoricalHead((4,)), BetaHead(2)],
                             ids=["categorical", "beta"])
    def test_act_does_not_run_the_value_net(self, head, monkeypatch):
        agent = PpoLearner(3, head, small_config(), [np.random.default_rng(0)])
        calls = []
        for net in (agent.value, agent.value_nets[0]):
            monkeypatch.setattr(net, "forward_cached",
                                lambda x, forward_cached=net.forward_cached:
                                calls.append(1) or forward_cached(x))
        rng = np.random.default_rng(1)
        for _ in range(10):
            agent.act(rng.standard_normal((1, 3)))
        assert calls == []
        agent.value_nets[0].forward(np.zeros(3))
        assert calls == [1], "the counter must see value-net calls"

    @pytest.mark.parametrize("head", [CategoricalHead((4,)), BetaHead(2)],
                             ids=["categorical", "beta"])
    def test_nan_policy_refuses_to_act(self, head):
        agent = PpoLearner(3, head, small_config(), [np.random.default_rng(0)])
        agent.policy_nets[0].flat[-1] = np.nan  # an output bias, a bad load
        state = np.ones(3)
        with pytest.raises(nn.NonFiniteParams):
            agent.act(state[None])
        with pytest.raises(nn.NonFiniteParams):
            agent.frozen_act(state[None])

        # in a group, one member's bad output bias stops the whole call
        group = PpoLearner(3, head, small_config(),
                           [np.random.default_rng(s) for s in range(3)])
        rows = np.ones((3, 3))
        clean = group.frozen_act(rows)
        group.policy_nets[1].flat[-1] = np.nan
        assert np.isnan(group.policy.flat[1, -1])
        for act in (group.act, group.frozen_act):
            with pytest.raises(nn.NonFiniteParams):
                act(rows)
        own = group.policy_nets[0].forward(rows[0])
        np.testing.assert_array_equal(nn.frozen_action(head, own), clean[0])

        # so is one member's non-finite input row
        group.policy_nets[1].flat[-1] = 0.0
        rows[2, 1] = np.inf
        for act in (group.act, group.frozen_act):
            with pytest.raises(nn.NonFiniteInput):
                act(rows)

    def test_update_takes_values_in_one_batched_pass(self, monkeypatch):
        agent = PpoLearner(5, CategoricalHead((3,)),
                           small_config(hidden=(64, 64)),
                           [np.random.default_rng(6)])
        rng = np.random.default_rng(7)
        rows = []
        for t in range(57):
            s = rng.standard_normal(5)
            [(a, logp)] = agent.act(s[None])
            rows.append((s, a, logp, rng.standard_normal()))
        rollout, rewards = episode_of(rows)
        batched = agent.value_nets[0].forward(rollout.states[0])[:, 0]
        row_by_row = np.array([agent.value_nets[0].forward(s)[0]
                               for s in rollout.states[0]])
        seen = []
        real_gae = ppo.compute_gae
        monkeypatch.setattr(
            ppo, "compute_gae",
            lambda r, values, *a: (seen.append(values.copy())
                                   or real_gae(r, values, *a)))
        agent.update(rollout, rewards)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], batched)
        np.testing.assert_allclose(seen[0], row_by_row, rtol=0, atol=1e-12)

    def test_bandit_learns_best_arm(self):
        # contextual-free 2-armed bandit: arm 0 pays 1, arm 1 pays 0; each
        # update packs 32 one-step pulls into one episode, and gamma = 0
        # gives every row exactly its own one-step advantage
        agent = PpoLearner(1, CategoricalHead((2,)), small_config(gamma=0.0),
                           [np.random.default_rng(3)])
        state = np.zeros(1)
        for _ in range(150):
            rows = []
            for _ in range(32):
                [(action, logp)] = agent.act(state[None])
                reward = 1.0 if action == (0,) else 0.0
                rows.append((state, action, logp, reward))
            agent.update(*episode_of(rows))
        pulls = [agent.act(state[None])[0][0] for _ in range(200)]
        assert np.mean(np.array(pulls) == 0) > 0.9

    def test_update_diagnostics(self):
        agent = PpoLearner(2, CategoricalHead((3,)), small_config(),
                           [np.random.default_rng(1)])
        rows = []
        rng = np.random.default_rng(5)
        for t in range(20):
            s = rng.standard_normal(2)
            [(a, logp)] = agent.act(s[None])
            rows.append((s, a, logp, rng.standard_normal()))
        diags = agent.update(*episode_of(rows))
        for key in ("policy_loss", "value_loss", "entropy", "clip_fraction",
                    "transitions"):
            assert key in diags
        assert diags["transitions"] == 20

    @pytest.mark.parametrize("head", (CategoricalHead((3,)),
                                      CategoricalHead((2, 9)), BetaHead(2)),
                             ids=("categorical", "segments", "beta"))
    @pytest.mark.parametrize("rows,batch_size", ((1, 1), (12, 12),
                                                 (300, 300), (300, 8)))
    def test_update_is_bit_identical_to_reference(self, head, rows,
                                                  batch_size):
        # (300, 8) makes 76 minibatch steps, so each diagnostic is averaged
        # over 8 or more values, which NumPy sums pairwise
        cfg = small_config(batch_size=batch_size)
        agent, twin = (PpoLearner(3, head, cfg, [np.random.default_rng(4)])
                       for _ in range(2))
        data = np.random.default_rng(rows)
        rollout = agent.empty_rollout(rows)
        for t in range(rows):
            rollout.states[0, t] = data.standard_normal(3)
            [(rollout.actions[0, t], rollout.log_probs[0, t])] = agent.act(
                rollout.states[:, t])
        twin.rngs[0].bit_generator.state = agent.rngs[0].bit_generator.state
        rewards = data.standard_normal(rows)
        got = agent.update(rollout, [rewards])
        want = reference_update(twin, member_rows(rollout, 0), rewards)
        # a one-member group's dict holds one-entry lists
        assert got == {key: value if key == "transitions" else [value]
                       for key, value in want.items()}
        assert list(got) == list(want)
        assert (agent.policy.flat == twin.policy.flat).all()
        assert (agent.value.flat == twin.value.flat).all()

    @pytest.mark.parametrize("head", (CategoricalHead((3,)),
                                      CategoricalHead((2, 9)), BetaHead(2)),
                             ids=("categorical", "segments", "beta"))
    @pytest.mark.parametrize("rows,batch_size", ((1, 1), (12, 12), (300, 8)))
    @pytest.mark.parametrize("members", (1, 2, 3))
    def test_stacked_update_is_bit_identical_to_reference(
            self, head, rows, batch_size, members):
        cfg = small_config(batch_size=batch_size)
        agent = PpoLearner(3, head, cfg, [np.random.default_rng(k)
                                          for k in range(members)])
        twins = [PpoLearner(3, head, cfg, [np.random.default_rng(k)])
                 for k in range(members)]
        rollout, rewards = acted_episode(agent, rows, seed=rows)
        for rng, twin in zip(agent.rngs, twins):
            twin.rngs[0].bit_generator.state = rng.bit_generator.state
        got = agent.update(rollout, rewards)
        assert got["transitions"] == members * rows
        for k, twin in enumerate(twins):
            want = reference_update(twin, member_rows(rollout, k), rewards[k])
            assert want["transitions"] == rows and list(got) == list(want)
            # the group's one dict has one list per key
            assert all(got[key][k] == want[key] for key in want
                       if key != "transitions")
            assert (agent.policy_nets[k].flat == twin.policy.flat[0]).all()
            assert (agent.value_nets[k].flat == twin.value.flat[0]).all()
            for opt, own in ((agent.opt_policy, twin.opt_policy),
                             (agent.opt_value, twin.opt_value)):
                assert opt.step == own.step
                assert (opt.m[k] == own.m[0]).all()
                assert (opt.v[k] == own.v[0]).all()
            assert (agent.rngs[k].bit_generator.state
                    == twin.rngs[0].bit_generator.state)

    def test_non_finite_member_leaves_its_whole_stack_unchanged(
            self, monkeypatch):
        cfg = small_config(batch_size=1, epochs_per_update=2)
        agent = PpoLearner(2, CategoricalHead((2,)), cfg,
                           [np.random.default_rng(k) for k in range(3)])
        # warm up so the optimizer moments are not all zero
        agent.update(*acted_episode(agent, 4, seed=0))
        adam_calls = []
        adam_step = nn.adam_step
        monkeypatch.setattr(nn, "adam_step",
                            lambda *a: adam_calls.append(1) or adam_step(*a))
        # an infinite reward fails before any step; a huge finite first
        # reward overflows the value loss in its own minibatch, after every
        # member has stepped in the group
        for bad, message in ((np.inf, "non-finite advantages or returns"),
                             (1e200, "value_loss=inf")):
            policy, value, *snaps = (
                agent.policy.flat.copy(), agent.value.flat.copy(),
                *((opt.step, opt.m.copy(), opt.v.copy())
                  for opt in (agent.opt_policy, agent.opt_value)))
            rollout, rewards = acted_episode(agent, 4, seed=10)
            rewards[1][0] = bad
            with pytest.raises(NonFiniteLoss, match=message) as err, \
                    np.errstate(over="ignore"):
                agent.update(rollout, rewards)
            assert err.value.member == 1
            assert bool(adam_calls) == (bad != np.inf)
            # every member's rows, which its nets are still bound to
            np.testing.assert_array_equal(agent.policy.flat, policy)
            np.testing.assert_array_equal(agent.value.flat, value)
            for k in range(3):
                assert np.shares_memory(agent.policy_nets[k].flat,
                                        agent.policy.flat[k])
                assert np.shares_memory(agent.value_nets[k].flat,
                                        agent.value.flat[k])
            for opt, (step, m, v) in zip((agent.opt_policy, agent.opt_value),
                                         snaps):
                assert opt.step == step > 0
                np.testing.assert_array_equal(opt.m, m)
                np.testing.assert_array_equal(opt.v, v)

    def test_first_epoch_ratio_is_one(self):
        # fresh batch, single minibatch, epochs=1: before any step the ratio
        # is exactly 1, so nothing clips
        agent = PpoLearner(2, CategoricalHead((3,)),
                           small_config(epochs_per_update=1, batch_size=256),
                           [np.random.default_rng(1)])
        rows = []
        rng = np.random.default_rng(5)
        for t in range(30):
            s = rng.standard_normal(2)
            [(a, logp)] = agent.act(s[None])
            rows.append((s, a, logp, rng.standard_normal()))
        diags = agent.update(*episode_of(rows))
        assert diags["clip_fraction"] == [0.0]

    def test_empty_batch_raises(self):
        agent = PpoLearner(2, CategoricalHead((2,)), small_config(),
                           [np.random.default_rng(0)])
        with pytest.raises(EmptyBatch):
            agent.update(agent.empty_rollout(0), np.zeros((1, 0)))

    def test_non_finite_loss_restores_state(self, monkeypatch):
        agent = PpoLearner(2, CategoricalHead((2,)),
                           small_config(batch_size=1, epochs_per_update=2),
                           [np.random.default_rng(0)])
        s = np.ones(2)

        def episode_with_rewards(rewards):
            rows = []
            for r in rewards:
                [(a, logp)] = agent.act(s[None])
                rows.append((s, a, logp, r))
            return episode_of(rows)

        # warm up so the optimizer moments are not all zero
        agent.update(*episode_with_rewards([1.0, -1.0, 0.5, 2.0]))
        adam_calls = []
        adam_step = nn.adam_step
        monkeypatch.setattr(nn, "adam_step",
                            lambda *a: adam_calls.append(1) or adam_step(*a))
        # an infinite reward fails before any step; a huge finite first
        # reward overflows the value loss only in its own minibatch (later
        # rows' returns do not include it), after others have stepped
        for rewards in ([np.inf, 0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0]):
            params_before = [p.copy() for net in (agent.policy, agent.value)
                             for p in parameters(net)]
            flat_before = (agent.policy.flat.copy(), agent.value.flat.copy())
            opt_before = [(opt.step, opt.m.copy(), opt.v.copy())
                          for opt in (agent.opt_policy, agent.opt_value)]
            episode = episode_with_rewards(rewards)
            with pytest.raises(NonFiniteLoss), np.errstate(over="ignore"):
                agent.update(*episode)
            params_after = [p for net in (agent.policy, agent.value)
                            for p in parameters(net)]
            for p0, p1 in zip(params_before, params_after):
                np.testing.assert_array_equal(p0, p1)
            assert agent.opt_policy.step == opt_before[0][0]
            np.testing.assert_array_equal(agent.policy.flat, flat_before[0])
            np.testing.assert_array_equal(agent.value.flat, flat_before[1])
            for opt, (step, m, v) in zip((agent.opt_policy, agent.opt_value),
                                         opt_before):
                assert opt.step == step > 0
                np.testing.assert_array_equal(opt.m, m)
                np.testing.assert_array_equal(opt.v, v)
        assert adam_calls, "the rollback must undo steps already taken"

    def test_constant_advantage_not_normalized_to_nan(self):
        # all-equal advantages have zero std; normalization must be skipped
        agent = PpoLearner(1, CategoricalHead((2,)), small_config(gamma=0.0),
                           [np.random.default_rng(2)])
        rows = []
        for t in range(8):
            s = np.zeros(1)
            [(a, logp)] = agent.act(s[None])
            # every state is equal, so update's value estimates are equal
            # too; with a constant reward and gamma = 0 (eight one-step
            # episodes in one) the advantages are equal
            rows.append((s, a, logp, 1.0))
        diags = agent.update(*episode_of(rows))
        assert np.isfinite(diags["policy_loss"]).all()


class TestLearnerCheckpoint:
    def test_round_trip_preserves_frozen_actions(self):
        agent = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(11)])
        blob = agent.to_bytes(0)
        clone = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(99)])
        clone.load_bytes(0, blob)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.standard_normal(3)
            assert agent.frozen_act(s[None]) == clone.frozen_act(s[None])

    def test_file_round_trip(self, tmp_path):
        agent = PpoLearner(2, BetaHead(2), small_config(),
                           [np.random.default_rng(4)])
        path = tmp_path / "agent.ckpt"
        agent.save(0, path)
        clone = PpoLearner(2, BetaHead(2), small_config(),
                           [np.random.default_rng(5)])
        clone.load(0, path)
        s = np.array([0.3, -0.7])
        np.testing.assert_array_equal(agent.frozen_act(s[None]),
                                      clone.frozen_act(s[None]))

    def test_dimension_mismatch_rejected(self):
        agent = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(11)])
        other = PpoLearner(5, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(11)])
        with pytest.raises(CheckpointMismatch):
            other.load_bytes(0, agent.to_bytes(0))

    def test_value_mismatch_loads_neither_net(self):
        agent = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(11)])
        other = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(12)])
        before = other.to_bytes(0)
        wrong_value = DenseNet((3, 5, 1), np.random.default_rng(13))
        with pytest.raises(CheckpointMismatch, match="value dims"):
            other.load_bytes(0, agent.policy_nets[0].to_bytes()
                             + wrong_value.to_bytes())
        assert other.to_bytes(0) == before

    def test_load_writes_only_its_members_rows(self, tmp_path):
        agent = PpoLearner(3, CategoricalHead((4,)), small_config(),
                           [np.random.default_rng(k) for k in range(3)])
        lone = PpoLearner(3, CategoricalHead((4,)), small_config(),
                          [np.random.default_rng(7)])
        lone.save(0, tmp_path / "lone.ckpt")
        before = agent.policy.flat.copy(), agent.value.flat.copy()
        agent.load(1, tmp_path / "lone.ckpt")
        assert agent.to_bytes(1) == lone.to_bytes(0)
        for now, then, own in zip((agent.policy.flat, agent.value.flat),
                                  before, (lone.policy.flat, lone.value.flat)):
            assert (now[[0, 2]] == then[[0, 2]]).all()
            assert (now[1] == own[0]).all()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PpoConfig(clip_epsilon=0.0)
        with pytest.raises(ValueError):
            PpoConfig(gamma=1.5)
        with pytest.raises(ValueError):
            PpoConfig(batch_size=0)
        with pytest.raises(ValueError):
            PpoConfig(hidden=())
        for bad in (dict(learning_rate=0.0), dict(learning_rate=-1.0),
                    dict(learning_rate=float("nan")),
                    dict(learning_rate=float("inf")),
                    dict(entropy_coef=float("inf")),
                    dict(entropy_coef=-0.01), dict(value_coef=-0.5),
                    dict(value_coef=float("nan"))):
            with pytest.raises(ValueError):
                PpoConfig(**bad)

    def test_defaults(self):
        cfg = PpoConfig()
        assert cfg.clip_epsilon == 0.2
        assert cfg.gamma == 0.99
        assert cfg.gae_lambda == 0.95
        assert cfg.hidden == (256, 256)
