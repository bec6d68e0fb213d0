"""Small test-side views of library objects that the library itself does not
need."""

import numpy as np


def parameters(net):
    """Live views into ``net.flat``, ordered (W0, b0, W1, b1, ...)."""
    return [p for w, b in zip(net.weights, net.biases) for p in (w, b)]


def n_params(net):
    """Number of scalars over all weight and bias tensors."""
    return sum(p.size for p in parameters(net))


def global_state(env):
    """The concatenated observation that global-state agents act on."""
    return np.concatenate(env.observe())


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
    """PpoLearner.update with np.mean and np.clip throughout and one Python
    list per diagnostic, averaged by np.mean at the end (no recovery on a
    non-finite loss)."""
    from dagmarl import nn
    from dagmarl.ppo import compute_gae

    cfg = learner.config
    n = len(rewards)
    states, actions, old_logp = (rollout.states[:n], rollout.actions[:n],
                                 rollout.log_probs[:n])
    adv, returns = compute_gae(rewards, learner.value.forward(states)[:, 0],
                               cfg.gamma, cfg.gae_lambda)
    std = adv.std()
    if std >= 1e-8:
        adv = (adv - adv.mean()) / std
    diags = {"policy_loss": [], "value_loss": [], "entropy": [],
             "clip_fraction": []}
    stats = (nn.beta_stats if isinstance(learner.head, nn.BetaHead)
             else reference_categorical_stats)
    for _ in range(cfg.epochs_per_update):
        perm = learner.rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            m = len(idx)
            params, cache = learner.policy.forward_cached(states[idx])
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
            values, vcache = learner.value.forward_cached(states[idx])
            verr = values[:, 0] - returns[idx]
            value_loss = cfg.value_coef * np.mean(verr ** 2)
            gval = (2.0 * cfg.value_coef * verr / m)[:, None]
            nn.adam_step(learner.opt_policy, learner.policy.flat,
                         learner.policy.backward(cache, gout))
            nn.adam_step(learner.opt_value, learner.value.flat,
                         learner.value.backward(vcache, gval))
            diags["policy_loss"].append(policy_loss)
            diags["value_loss"].append(value_loss)
            diags["entropy"].append(np.mean(entropy))
            diags["clip_fraction"].append(
                np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon))
    out = {k: float(np.mean(v)) for k, v in diags.items()}
    out["transitions"] = n
    return out
