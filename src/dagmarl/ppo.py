"""Clipped-surrogate PPO on top of the hand-rolled dense nets.

A learner is a shape group: one policy net and one value net (separate
trunks, separate Adam states) hold its G members' parameters as (G, P)
arrays.  Its action space is an ``nn`` policy head, so the same update
code serves categorical agents, one segment per node they act for, and
bounded-continuous Beta agents (goal vectors, budget fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .logio import atomic_write_bytes
from .nn import BetaHead, CategoricalHead, DenseNet


# what PpoLearner.update averages over its minibatch steps, in this order
_DIAGNOSTICS = ("policy_loss", "value_loss", "entropy", "clip_fraction")


class EmptyBatch(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    """``member`` indexes the member at fault in its group."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


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
    """What a group's acting produced, one row per member and step in order.

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
    """A shape group, one member per generator in ``rngs``, which draws its
    member's policy, then value, then actions and permutations.  ``policy``
    and ``value`` hold the members' parameters as (G, P) arrays, each with
    one Adam state; ``policy_nets[k]`` and ``value_nets[k]`` are member
    k's nets, bound to row k.  The group owns its acting buffers, made
    once: ``inputs``, the (G, obs) rows the caller writes before each act,
    row k member k's, and ``rollout``, ``steps`` rows per member.  Acting
    writes the policy outputs to ``out``, the group's (G, segments, width)
    view of the padded rows of a ``HeadRows``, which draws for it."""

    def __init__(self, obs_dim: int, head, config: PpoConfig, rngs,
                 steps: int):
        self.obs_dim = int(obs_dim)
        self.head = head
        self.config = config
        self.rngs = tuple(rngs)
        dims = (self.obs_dim, *config.hidden)
        self.policy_nets = tuple(DenseNet(dims + (head.param_dim,), rng)
                                 for rng in self.rngs)
        self.policy = DenseNet.stack(self.policy_nets)
        self.value_nets = tuple(DenseNet(dims + (1,), rng)
                                for rng in self.rngs)
        self.value = DenseNet.stack(self.value_nets)
        self.opt_policy = nn.AdamState(self.policy, config.learning_rate)
        self.opt_value = nn.AdamState(self.value, config.learning_rate)
        members = len(self.rngs)
        self.inputs = np.zeros((members, self.obs_dim))
        self.rollout = Rollout(np.zeros((members, steps, self.obs_dim)),
                               head.empty_actions(members, steps),
                               np.zeros((members, steps)))

    # -- acting ------------------------------------------------------------

    def act(self, t: int, out):
        """Each member in turn runs its own single-row forward on its row of
        ``inputs`` and writes it to ``out``; records the rows as the
        rollout's step ``t``.  ``record`` writes the step's draws.  The
        value net does not run here; ``update`` evaluates it for the whole
        rollout at once.
        """
        for k, (net, row) in enumerate(zip(self.policy_nets, self.inputs)):
            self._write(out, k, net.forward(row))
        self.rollout.states[:, t] = self.inputs

    def frozen_act(self, out):
        """Writes each member's outputs on its row of ``inputs`` to ``out``;
        records nothing.

        A group of two or more runs one stacked forward, bit for bit each
        member's own; a lone member keeps the cheaper single-row call.
        """
        if len(self.policy_nets) == 1:
            self._write(out, 0, self.policy_nets[0].forward(self.inputs[0]))
        else:
            self._write(out, slice(None),
                        self.policy.forward(self.inputs[:, None])[:, 0])

    def _write(self, out, members, params):
        """``params``, the outputs of ``members``, to their rows of ``out``,
        each row's slice from the left."""
        for s, (lo, hi) in enumerate(self.head.bounds):
            out[members, s, :hi - lo] = params[..., lo:hi]

    def record(self, t: int, actions, log_probs):
        """Writes the draws of the group's rows, in ``out`` order, as the
        rollout's step ``t``.  A member of several segments is paid
        their log-probs summed left to right."""
        members = len(self.rngs)
        self.rollout.actions[:, t] = actions.reshape(members, -1)
        if len(self.head.bounds) > 1:
            # a cumsum adds in order, as 0.0 + lp_0 + lp_1 + ... does
            log_probs = log_probs.reshape(members, -1).cumsum(axis=1)[:, -1]
        self.rollout.log_probs[:, t] = log_probs

    # -- learning ------------------------------------------------------------

    def update(self, rewards) -> dict:
        """One PPO update of every member, each on its own finished episode;
        returns loss/entropy diagnostics.

        ``rewards`` holds one reward array of length n per member, and the
        first n rows of each member's ``rollout`` are its episode.  V_old is
        the value net on all those states in one pass, taken before any
        step.  GAE runs per member and each member's rng draws its own
        permutation in turn.  Each diagnostic is a list over members and
        ``transitions`` counts all G * n rows.  A non-finite advantage, loss
        or gradient raises NonFiniteLoss naming the member at fault, and the
        group keeps no part of the update: its parameters, Adam moments and
        steps are put back as they were.
        """
        cfg = self.config
        rollout = self.rollout
        n = len(rewards[0])
        values = self.value.forward(rollout.states[:, :n])[..., 0]
        adv, returns = np.empty((2, len(rewards), n))
        for k, member_rewards in enumerate(rewards):
            adv[k], returns[k] = compute_gae(member_rewards, values[k],
                                             cfg.gamma, cfg.gae_lambda)
            if not np.isfinite([adv[k], returns[k]]).all():
                raise NonFiniteLoss("non-finite advantages or returns", k)
            std = adv[k].std()
            if std >= 1e-8:
                adv[k] = (adv[k] - adv[k].mean()) / std

        # a minibatch's rows: its indices into each member's own rows
        members = np.arange(len(rewards))[:, None]
        starts = range(0, n, cfg.batch_size)
        # one column per minibatch step, one row per entry of _DIAGNOSTICS
        diags = np.empty((len(_DIAGNOSTICS), len(rewards),
                          cfg.epochs_per_update * len(starts)))
        step = 0
        arrays = (self.policy.flat, self.value.flat, self.opt_policy.m,
                  self.opt_policy.v, self.opt_value.m, self.opt_value.v)
        saved = [a.copy() for a in arrays]
        steps = self.opt_policy.step, self.opt_value.step
        try:
            # an overflow or nan ends as NonFiniteLoss, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(cfg.epochs_per_update):
                    perm = np.stack([rng.permutation(n) for rng in self.rngs])
                    for lo in starts:
                        idx = (members, perm[:, lo:lo + cfg.batch_size])
                        diags[..., step] = self._minibatch_step(
                            rollout.states[idx], rollout.actions[idx],
                            rollout.log_probs[idx], adv[idx], returns[idx])
                        step += 1
        except NonFiniteLoss:
            # in place, so every member's nets stay bound to their rows
            for array, copy in zip(arrays, saved):
                array[...] = copy
            self.opt_policy.step, self.opt_value.step = steps
            raise
        # each row's sum over its contiguous axis, divided by the count, is
        # bit for bit np.mean of that row
        out = dict(zip(_DIAGNOSTICS,
                       (np.add.reduce(diags, axis=-1) / step).tolist()))
        out["transitions"] = len(rewards) * n
        return out

    def _minibatch_step(self, states, actions, old_logp, adv, returns):
        """One gradient step on a minibatch; returns its _DIAGNOSTICS.

        Means are np.add.reduce(x) / m, which is bit for bit np.mean(x).
        """
        cfg = self.config
        m = states.shape[-2]

        params, cache = self.policy.forward_cached(states)
        stats = (nn.beta_stats if isinstance(self.head, BetaHead)
                 else nn.categorical_stats)
        # the statistics are per row, so a group's rows run as one batch
        rows = stats(self.head, params.reshape(-1, params.shape[-1]),
                     actions.reshape(-1, actions.shape[-1]))
        logp, entropy, dlogp, dentropy = (x.reshape(adv.shape + x.shape[1:])
                                          for x in rows)
        ratio = np.exp(logp - old_logp)
        unclipped = ratio * adv
        clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_epsilon),
                             1.0 + cfg.clip_epsilon) * adv
        surrogate = np.minimum(unclipped, clipped)
        mean_entropy = np.add.reduce(entropy, axis=-1) / m
        policy_loss = (-(np.add.reduce(surrogate, axis=-1) / m)
                       - cfg.entropy_coef * mean_entropy)

        # gradient flows through the ratio only where the unclipped branch
        # is the active minimum
        dsurr_dlogp = np.where(unclipped <= clipped, unclipped, 0.0)
        gout = -(dsurr_dlogp[..., None] * dlogp
                 + cfg.entropy_coef * dentropy) / m

        values, vcache = self.value.forward_cached(states)
        verr = values[..., 0] - returns
        value_loss = cfg.value_coef * (np.add.reduce(verr ** 2, axis=-1) / m)
        gval = (2.0 * cfg.value_coef * verr / m)[..., None]

        finite = np.isfinite(policy_loss) & np.isfinite(value_loss)
        if not finite.all():
            k = int(np.argmin(finite))
            raise NonFiniteLoss(f"policy_loss={policy_loss[k]}, "
                                f"value_loss={value_loss[k]}", k)

        pgrad = self.policy.backward(cache, gout)
        vgrad = self.value.backward(vcache, gval)
        try:
            nn.adam_step(self.opt_policy, self.policy.flat, pgrad)
            nn.adam_step(self.opt_value, self.value.flat, vgrad)
        except nn.NonFiniteGradient as err:
            finite = np.isfinite(pgrad).all(-1) & np.isfinite(vgrad).all(-1)
            raise NonFiniteLoss(str(err), int(np.argmin(finite))) from None

        clip_fraction = np.count_nonzero(
            np.abs(ratio - 1.0) > cfg.clip_epsilon, axis=-1) / m
        return policy_loss, value_loss, mean_entropy, clip_fraction

    # -- checkpointing -------------------------------------------------------

    def to_bytes(self, k: int) -> bytes:
        return self.policy_nets[k].to_bytes() + self.value_nets[k].to_bytes()

    def check_bytes(self, k: int, data: bytes):
        """Member k's (net, loaded net) pairs read from ``data``; raises
        CheckpointMismatch unless both nets fit member k's."""
        policy, offset = DenseNet.from_bytes(data)
        value, end = DenseNet.from_bytes(data, offset)
        if end != len(data):
            raise nn.CheckpointMismatch(f"{len(data) - end} trailing bytes")
        pairs = (("policy", self.policy_nets[k], policy),
                 ("value", self.value_nets[k], value))
        for name, net, loaded in pairs:
            if loaded.layer_dims != net.layer_dims:
                raise nn.CheckpointMismatch(
                    f"{name} dims {loaded.layer_dims} != {net.layer_dims}")
        return [(net, loaded) for _, net, loaded in pairs]

    def load_bytes(self, k: int, data: bytes):
        """Loads member k's nets into its rows, both or neither."""
        for net, loaded in self.check_bytes(k, data):
            net.flat[...] = loaded.flat

    def save(self, k: int, path):
        atomic_write_bytes(path, self.to_bytes(k))

    def load(self, k: int, path):
        with open(path, "rb") as fh:
            self.load_bytes(k, fh.read())


class HeadRows:
    """One head call over the padded rows of ``learners``, all categorical
    or all of one Beta head.

    Learner after learner and member after member, each slice of its
    head's ``bounds`` takes one row of ``params``; a categorical row's
    logits are padded on the right with ``-inf``.  Each row draws from its
    member's generator, so a member of several segments draws for them in
    order.  Each learner writes to its own (G, segments, width) view of the
    rows, made once.
    """

    def __init__(self, learners):
        self.learners = tuple(learners)
        head = self.learners[0].head
        if isinstance(head, CategoricalHead):
            head = CategoricalHead([size for learner in self.learners
                                    for _ in learner.rngs
                                    for size in learner.head.sizes])
            self.params = np.full(head.real.shape, -np.inf)
        else:
            self.params = np.zeros((sum(len(learner.rngs)
                                        for learner in self.learners),
                                    head.param_dim))
        self.head = head
        self.rngs = tuple(rng for learner in self.learners
                          for rng in learner.rngs
                          for _ in learner.head.bounds)
        self._rows = []  # (learner, its view of the rows, their slice)
        lo = 0
        for learner in self.learners:
            members = len(learner.rngs)
            rows = slice(lo, lo + members * len(learner.head.bounds))
            out = self.params[rows].reshape(members, -1, self.params.shape[1])
            self._rows.append((learner, out, rows))
            lo = rows.stop

    def act(self, t: int):
        """Each learner acts as step ``t``, then one draw over every row,
        which each learner records; returns the rows' actions."""
        for learner, out, _ in self._rows:
            learner.act(t, out)
        actions, log_probs = nn.sample_and_logprob(self.head, self.params,
                                                   self.rngs)
        for learner, _, rows in self._rows:
            learner.record(t, actions[rows], log_probs[rows])
        return actions

    def frozen_act(self):
        """Each learner acts frozen, then one deterministic action per row;
        records nothing."""
        for learner, out, _ in self._rows:
            learner.frozen_act(out)
        return nn.frozen_action(self.head, self.params)
