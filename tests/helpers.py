"""Small test-side views of library objects that the library itself does not
need, and the exhaustive oracles that only tests run."""

import numpy as np

from dagmarl.envs.micro import MicroDagEnv
from dagmarl.oracle import (StateSpaceTooLarge, TabularJointPolicy, _dp,
                            _JointModel, validate_contribution)


def weights(net):
    """Live (fan_out, fan_in) weight views into ``net.flat``, one per layer."""
    return [w for w, _ in net.layer_views(net.flat)]


def biases(net):
    """Live bias views into ``net.flat``, one per layer."""
    return [b for _, b in net.layer_views(net.flat)]


def parameters(net):
    """Live views into ``net.flat``, ordered (W0, b0, W1, b1, ...)."""
    return [p for pair in net.layer_views(net.flat) for p in pair]


def n_params(net):
    """Number of scalars over all weight and bias tensors."""
    return sum(p.size for p in parameters(net))


def global_state(env):
    """The concatenated observation that global-state agents act on."""
    return np.concatenate(env.observe())


def uniform_policy(env: MicroDagEnv) -> TabularJointPolicy:
    """Every node picks each of its actions with equal probability."""
    return TabularJointPolicy(tuple(np.full((s, a), 1.0 / a)
                                    for s, a in zip(env.n_states,
                                                    env.n_actions)))


def deterministic_policy(env: MicroDagEnv, choice) -> TabularJointPolicy:
    """choice[i][s] = the action node i takes in state s."""
    tables = []
    for i, (s, a) in enumerate(zip(env.n_states, env.n_actions)):
        t = np.zeros((s, a))
        for state in range(s):
            t[state, choice[i][state]] = 1.0
        tables.append(t)
    return TabularJointPolicy(tuple(tables))


# -- references: the earlier, plainer forms of optimised library code ----------
# Each is the code the library ran before its per-call costs were cut; tests
# assert the library gives exactly the same bits.


def reference_logsumexp(z, axis=-1, keepdims=False):
    m = np.max(z, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def reference_sample_and_logprob(head, params, rng):
    """Categorical sampling, one reference_logsumexp per segment."""
    params = np.asarray(params, dtype=np.float64)
    action, logp = [], 0.0
    for lo, hi in head.bounds:
        seg = params[lo:hi]
        logp_all = seg - reference_logsumexp(seg)
        p = np.exp(logp_all)
        a = min(int(p.cumsum().searchsorted(rng.random(), side="right")),
                hi - lo - 1)
        action.append(a)
        logp += float(logp_all[a])
    return tuple(action), logp


def padded_rows(head, logits):
    """A categorical head's consecutive (param_dim,) logits as the padded
    rows its draw reads: one row per segment, ``-inf`` after its logits."""
    rows = np.full(head.real.shape, -np.inf)
    rows[head.real] = logits
    return rows


def reference_categorical_stats(head, logits, actions):
    """Per-segment statistics, concatenated at the end."""
    logits = np.asarray(logits, dtype=np.float64)
    actions = np.asarray(actions)
    idx = np.arange(logits.shape[0])
    logp = entropy = 0.0
    dlogp, dentropy = [], []
    for k, (lo, hi) in enumerate(head.bounds):
        seg = logits[:, lo:hi]
        a = actions[:, k]
        logp_all = seg - reference_logsumexp(seg, keepdims=True)
        p = np.exp(logp_all)
        ent = -np.sum(p * logp_all, axis=1)
        logp = logp + logp_all[idx, a]
        entropy = entropy + ent
        dl = -p
        dl[idx, a] += 1.0
        dlogp.append(dl)
        dentropy.append(-p * (logp_all + ent[:, None]))
    return (logp, entropy, np.concatenate(dlogp, axis=1),
            np.concatenate(dentropy, axis=1))


def reference_update(learner, rollout, rewards):
    """PpoLearner.update of a one-member group, on that member's own nets and
    rows, with np.mean and np.clip throughout and one Python list per
    diagnostic, averaged by np.mean at the end (no recovery on a non-finite
    loss); Adam steps the group's (1, P) state."""
    from dagmarl import nn
    from dagmarl.ppo import compute_gae

    cfg = learner.config
    policy, value = learner.policy_nets[0], learner.value_nets[0]
    n = len(rewards)
    states, actions, old_logp = (rollout.states[:n], rollout.actions[:n],
                                 rollout.log_probs[:n])
    adv, returns = compute_gae(rewards, value.forward(states)[:, 0],
                               cfg.gamma, cfg.gae_lambda)
    std = adv.std()
    if std >= 1e-8:
        adv = (adv - adv.mean()) / std
    diags = {"policy_loss": [], "value_loss": [], "entropy": [],
             "clip_fraction": []}
    stats = (nn.beta_stats if isinstance(learner.head, nn.BetaHead)
             else reference_categorical_stats)
    for _ in range(cfg.epochs_per_update):
        perm = learner.rngs[0].permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            m = len(idx)
            params, cache = policy.forward_cached(states[idx])
            logp, entropy, dlogp, dentropy = stats(learner.head, params,
                                                   actions[idx])
            ratio = np.exp(logp - old_logp[idx])
            unclipped = ratio * adv[idx]
            clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon,
                              1.0 + cfg.clip_epsilon) * adv[idx]
            surrogate = np.minimum(unclipped, clipped)
            policy_loss = (-np.mean(surrogate)
                           - cfg.entropy_coef * np.mean(entropy))
            dsurr_dlogp = np.where(unclipped <= clipped, ratio * adv[idx], 0.0)
            gout = -(dsurr_dlogp[:, None] * dlogp
                     + cfg.entropy_coef * dentropy) / m
            values, vcache = value.forward_cached(states[idx])
            verr = values[:, 0] - returns[idx]
            value_loss = cfg.value_coef * np.mean(verr ** 2)
            gval = (2.0 * cfg.value_coef * verr / m)[:, None]
            nn.adam_step(learner.opt_policy, learner.policy.flat,
                         policy.backward(cache, gout)[None])
            nn.adam_step(learner.opt_value, learner.value.flat,
                         value.backward(vcache, gval)[None])
            diags["policy_loss"].append(policy_loss)
            diags["value_loss"].append(value_loss)
            diags["entropy"].append(np.mean(entropy))
            diags["clip_fraction"].append(
                np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon))
    out = {k: float(np.mean(v)) for k, v in diags.items()}
    out["transitions"] = n
    return out


def reference_distribute(topology, output, budget):
    """distribute as three pieces: a dict of sink seeds, a per-node split
    over Python lists, and the arc shares in a dict keyed (sender, receiver)
    in reward orientation, i.e. (v, u) for task arc (u, v); returns
    (node_share, arc_share dict, paid)."""

    def sink_initial_shares(node_values):
        v = np.clip(np.asarray(node_values, dtype=np.float64), 0.0, 1.0)
        if v.shape != (topology.node_count,):
            raise ValueError(f"expected {topology.node_count} node values")
        sinks = topology.sinks
        total = float(sum(v[k] for k in sinks))
        if total > 0.0:
            return {k: float(v[k]) / total for k in sinks}
        return {k: 1.0 / len(sinks) for k in sinks}

    def split_share(initial_share, node_value, arc_values):
        arc_values = [float(e) for e in arc_values]
        denom = float(node_value) + sum(arc_values)
        if denom > 0.0:
            self_share = initial_share * float(node_value) / denom
            sent = [initial_share * e / denom for e in arc_values]
        else:
            piece = initial_share / (1.0 + len(arc_values))
            self_share = piece
            sent = [piece] * len(arc_values)
        return self_share, sent

    initial = np.zeros(topology.node_count)
    for k, share in sink_initial_shares(output.node_values).items():
        initial[k] = share
    node_share = np.zeros(topology.node_count)
    arc_share = {}
    for i in reversed(topology.topological_order):
        if topology.successors(i):
            initial[i] = sum(arc_share[(k, i)] for k in topology.successors(i))
        parents = topology.predecessors(i)
        e_row = [output.arc_values[topology.arc_index[(j, i)]] for j in parents]
        self_share, sent = split_share(initial[i], output.node_values[i], e_row)
        node_share[i] = self_share
        for j, share in zip(parents, sent):
            arc_share[(i, j)] = share
    return node_share, arc_share, node_share * budget


# -- environment snapshots ------------------------------------------------------


def _equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_equal(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def snapshots_equal(a, b) -> bool:
    """Two EnvSnapshots hold the same signature and the same state, with
    arrays compared by shape, dtype and value and containers by type."""
    return a.signature == b.signature and _equal(a.payload, b.payload)


# -- exhaustive values on micro environments ------------------------------------

ENUM_GUARD = 1_000_000  # enumerated trajectories


def exact_values(env: MicroDagEnv, policy: TabularJointPolicy, gamma: float):
    """Per-sink discounted values over all ``env.max_steps`` steps."""
    sink_v, _ = _dp(env, policy, gamma, None)
    return sink_v


def synthetic_values(env: MicroDagEnv, policy: TabularJointPolicy,
                     contribution: dict, gamma: float):
    """Per-node discounted synthetic values under the contribution weights."""
    validate_contribution(env, contribution)
    _, synth_v = _dp(env, policy, gamma, contribution)
    return synth_v


def enumerate_values(env: MicroDagEnv, policy: TabularJointPolicy, gamma: float,
                     contribution: dict | None = None,
                     guard: int = ENUM_GUARD):
    """Sums over every trajectory of ``env.max_steps`` steps explicitly.
    Exponentially expensive; only for cross-checking the DP on tiny
    instances."""
    model = _JointModel(env)
    horizon = env.max_steps
    predicted = model.ns * (model.na * model.ns) ** max(horizon - 1, 0) * model.na
    if predicted > guard:
        raise StateSpaceTooLarge(f"about {predicted} trajectories")

    pol = model.policy_matrix(policy)
    sr = model.synthetic_r(contribution) if contribution is not None else None
    sink_v = {k: 0.0 for k in model.sink_r}
    synth_v = np.zeros(env.topology.node_count)

    def walk(state, t, prob):
        if t == horizon:
            return
        disc = gamma ** t
        for a in range(model.na):
            pa = prob * pol[state, a]
            if pa == 0.0:
                continue
            for k, r in model.sink_r.items():
                sink_v[k] += disc * pa * r[state, a]
            if sr is not None:
                for i in range(env.topology.node_count):
                    synth_v[i] += disc * pa * sr[i, state, a]
            for nxt in range(model.ns):
                pn = pa * model.trans[a, state, nxt]
                if pn > 0.0:
                    walk(nxt, t + 1, pn)

    for s0 in range(model.ns):
        if model.mu0[s0] > 0.0:
            walk(s0, 0, model.mu0[s0])
    return sink_v, synth_v
