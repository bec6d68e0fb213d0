"""Clipped-surrogate PPO on top of the hand-rolled dense nets.

One learner owns a policy net and a value net (separate trunks, separate
Adam states).  Its action space is an ``nn`` policy head, so the same update
code serves categorical agents, one segment per node they act for, and
bounded-continuous Beta agents (goal vectors, budget fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .logio import atomic_write_bytes
from .nn import BetaHead, DenseNet


# what PpoLearner.update averages over its minibatch steps, in this order
_DIAGNOSTICS = ("policy_loss", "value_loss", "entropy", "clip_fraction")


class EmptyBatch(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    pass


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = 0.2
    learning_rate: float = 1e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    batch_size: int = 256
    epochs_per_update: int = 4
    hidden: tuple = (256, 256)

    def __post_init__(self):
        if not (0.0 < self.clip_epsilon < 1.0):
            raise ValueError(f"clip_epsilon {self.clip_epsilon} outside (0,1)")
        if not (0.0 <= self.gamma <= 1.0) or not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("gamma and gae_lambda must lie in [0,1]")
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError(
                f"learning_rate {self.learning_rate} outside (0,inf)")
        if not (0.0 <= self.entropy_coef < math.inf
                and 0.0 <= self.value_coef < math.inf):
            raise ValueError("entropy_coef and value_coef must lie in [0,inf)")
        if self.batch_size < 1 or self.epochs_per_update < 1:
            raise ValueError("batch_size and epochs_per_update must be >= 1")
        if len(self.hidden) < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("hidden needs at least one positive layer width")


@dataclass
class Rollout:
    """What a learner's acting produced, one row per step in order.

    ``actions`` has the layout of the learner head's ``empty_actions``.
    Rewards and value estimates are not part of a rollout: ``update`` takes
    the episode's rewards and evaluates the values for all rows in one pass.
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray


def compute_gae(rewards, values: np.ndarray, gamma: float, lam: float):
    """Generalized advantage estimates and value targets of one episode.

    ``values`` holds V_old(s_t), one per reward.  Backward recursion over a
    finished episode: the value and advantage after its last step are 0.
    Returns (advantages, returns) with returns = advantages + values.
    """
    if len(rewards) == 0:
        raise EmptyBatch("no transitions")
    if len(values) != len(rewards):
        raise ValueError(f"{len(values)} values for {len(rewards)} rewards")
    # Python floats: the same IEEE arithmetic as numpy scalars, faster
    reward_list = rewards.tolist()
    value_list = values.tolist()
    n = len(reward_list)
    adv = np.zeros(n)
    next_value = 0.0
    next_adv = 0.0
    for t in range(n - 1, -1, -1):
        delta = reward_list[t] + gamma * next_value - value_list[t]
        next_adv = delta + gamma * lam * next_adv
        adv[t] = next_adv
        next_value = value_list[t]
    return adv, adv + values


# ---------------------------------------------------------------------------
# learner
# ---------------------------------------------------------------------------


class PpoLearner:
    """Policy + value pair with its own RNG stream and Adam states."""

    def __init__(self, obs_dim: int, head, config: PpoConfig,
                 rng: np.random.Generator):
        self.obs_dim = int(obs_dim)
        self.head = head
        self.config = config
        self.rng = rng
        dims = (self.obs_dim, *config.hidden)
        self.policy = DenseNet(dims + (head.param_dim,), rng)
        self.value = DenseNet(dims + (1,), rng)
        self.opt_policy = nn.AdamState(self.policy, config.learning_rate)
        self.opt_value = nn.AdamState(self.value, config.learning_rate)

    # -- acting ------------------------------------------------------------

    def act(self, state):
        """Samples an action; returns (action, log_prob).

        The value net does not run here; ``update`` evaluates it for the
        whole rollout at once.
        """
        return nn.sample_and_logprob(self.head, self.policy.forward(state),
                                     self.rng)

    def frozen_act(self, state):
        return nn.frozen_action(self.head, self.policy.forward(state))

    def empty_rollout(self, rows: int) -> Rollout:
        """Zeroed rollout arrays for up to ``rows`` steps of this learner."""
        return Rollout(np.zeros((rows, self.obs_dim)),
                       self.head.empty_actions(rows), np.zeros(rows))

    # -- learning ------------------------------------------------------------

    def update(self, rollout: Rollout, rewards: np.ndarray) -> dict:
        """One PPO update on one finished episode, the first ``len(rewards)``
        rows of the rollout; returns loss/entropy diagnostics.

        V_old is the value net on all the episode's states in one pass, taken
        before any step.  On any non-finite loss or gradient the pre-update
        parameters and optimizer state are restored before NonFiniteLoss is
        raised.
        """
        cfg = self.config
        n = len(rewards)
        states, actions, old_logp = (rollout.states[:n], rollout.actions[:n],
                                     rollout.log_probs[:n])
        adv, returns = compute_gae(rewards, self.value.forward(states)[:, 0],
                                   cfg.gamma, cfg.gae_lambda)
        if not (np.isfinite(adv).all() and np.isfinite(returns).all()):
            raise NonFiniteLoss("non-finite advantages or returns")
        std = adv.std()
        if std >= 1e-8:
            adv = (adv - adv.mean()) / std

        pairs = ((self.policy, self.opt_policy), (self.value, self.opt_value))
        saved = [(net.flat.copy(), opt.snapshot()) for net, opt in pairs]
        starts = range(0, n, cfg.batch_size)
        # one column per minibatch step, one row per entry of _DIAGNOSTICS
        diags = np.empty((len(_DIAGNOSTICS),
                          cfg.epochs_per_update * len(starts)))
        step = 0
        try:
            # an overflow or nan ends as NonFiniteLoss, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(cfg.epochs_per_update):
                    perm = self.rng.permutation(n)
                    for lo in starts:
                        idx = perm[lo:lo + cfg.batch_size]
                        diags[:, step] = self._minibatch_step(
                            states[idx], actions[idx], old_logp[idx],
                            adv[idx], returns[idx])
                        step += 1
        except (NonFiniteLoss, nn.NonFiniteGradient) as err:
            for (net, opt), (flat, snap) in zip(pairs, saved):
                net.flat[...] = flat
                opt.restore(snap)
            raise NonFiniteLoss(str(err)) from None
        # each row's sum over its contiguous axis, divided by the count, is
        # bit for bit np.mean of that row
        out = dict(zip(_DIAGNOSTICS,
                       (np.add.reduce(diags, axis=1) / step).tolist()))
        out["transitions"] = n
        return out

    def _minibatch_step(self, states, actions, old_logp, adv, returns):
        """One gradient step on a minibatch; returns its _DIAGNOSTICS.

        Means are np.add.reduce(x) / m, which is bit for bit np.mean(x).
        """
        cfg = self.config
        m = len(states)

        params, cache = self.policy.forward_cached(states)
        stats = (nn.beta_stats if isinstance(self.head, BetaHead)
                 else nn.categorical_stats)
        logp, entropy, dlogp, dentropy = stats(self.head, params, actions)
        ratio = np.exp(logp - old_logp)
        unclipped = ratio * adv
        clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_epsilon),
                             1.0 + cfg.clip_epsilon) * adv
        surrogate = np.minimum(unclipped, clipped)
        mean_entropy = np.add.reduce(entropy) / m
        policy_loss = (-(np.add.reduce(surrogate) / m)
                       - cfg.entropy_coef * mean_entropy)

        # gradient flows through the ratio only where the unclipped branch
        # is the active minimum
        dsurr_dlogp = np.where(unclipped <= clipped, unclipped, 0.0)
        gout = -(dsurr_dlogp[:, None] * dlogp
                 + cfg.entropy_coef * dentropy) / m

        values, vcache = self.value.forward_cached(states)
        verr = values[:, 0] - returns
        value_loss = cfg.value_coef * (np.add.reduce(verr ** 2) / m)
        gval = (2.0 * cfg.value_coef * verr / m)[:, None]

        if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
            raise NonFiniteLoss(
                f"policy_loss={policy_loss}, value_loss={value_loss}")

        nn.adam_step(self.opt_policy, self.policy.flat,
                     self.policy.backward(cache, gout))
        nn.adam_step(self.opt_value, self.value.flat,
                     self.value.backward(vcache, gval))

        clip_fraction = np.count_nonzero(
            np.abs(ratio - 1.0) > cfg.clip_epsilon) / m
        return policy_loss, value_loss, mean_entropy, clip_fraction

    # -- checkpointing -------------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.policy.to_bytes() + self.value.to_bytes()

    def load_bytes(self, data: bytes):
        policy, offset = DenseNet.from_bytes(data)
        value, end = DenseNet.from_bytes(data, offset)
        if end != len(data):
            raise nn.CheckpointMismatch(f"{len(data) - end} trailing bytes")
        pairs = (("policy", self.policy, policy), ("value", self.value, value))
        for name, net, loaded in pairs:
            if loaded.layer_dims != net.layer_dims:
                raise nn.CheckpointMismatch(
                    f"{name} dims {loaded.layer_dims} != {net.layer_dims}")
        for _, net, loaded in pairs:
            net.flat[...] = loaded.flat

    def save(self, path):
        atomic_write_bytes(path, self.to_bytes())

    def load(self, path):
        with open(path, "rb") as fh:
            self.load_bytes(fh.read())
