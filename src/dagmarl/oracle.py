"""Exhaustive value computation on tabular DAG tasks.

Verifies the budget-soundness property of synthetic rewards: whenever the
per-sink contribution weights are non-negative and sum to at most 1 over the
sink's ancestor closure, the summed discounted synthetic values can never
exceed the summed discounted sink values.  Values come from a dynamic
program over the joint state distribution; the tests cross-check it against
raw trajectory enumeration on tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .envs.micro import MicroDagEnv, sample_micro_env

DP_GUARD = 1_000_000  # joint (state, action) table cells
BOUND_SLACK = 1e-9  # float rounding allowed between the two value sums
CAMPAIGN_TOL = 1e-6  # discounted value a campaign's horizon may leave out


class StateSpaceTooLarge(ValueError):
    pass


class InadmissibleContribution(ValueError):
    pass


class HypothesisViolated(ValueError):
    pass


# ---------------------------------------------------------------------------
# tabular policies and contribution weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularJointPolicy:
    """Per-node action tables, rows (own state) x columns (action)."""

    tables: tuple

    def __post_init__(self):
        for i, t in enumerate(self.tables):
            t = np.asarray(t, dtype=np.float64)
            if np.any(t < 0.0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError(f"node {i}: policy rows must sum to 1")


def sample_tabular_policy(rng: np.random.Generator,
                          env: MicroDagEnv) -> TabularJointPolicy:
    tables = []
    for s, a in zip(env.n_states, env.n_actions):
        raw = rng.random((s, a)) + 1e-3
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return TabularJointPolicy(tuple(tables))


def validate_contribution(env: MicroDagEnv, contribution: dict):
    """Checks per-sink contribution weights f over each sink's ancestor
    closure: non-negative, summing to at most 1 over the closure.

    contribution[k] has shape (len(m), NS_k, NA_k) where NS_k / NA_k
    enumerate the joint states / actions of m = env.topology.ancestors(k),
    ascending.
    """
    for k in env.topology.sinks:
        if k not in contribution:
            raise InadmissibleContribution(f"sink {k} missing")
        f = contribution[k]
        if np.any(f < 0.0):
            raise InadmissibleContribution(f"sink {k}: negative weights")
        if np.any(f.sum(axis=0) > 1.0 + 1e-9):
            raise InadmissibleContribution(
                f"sink {k}: weights sum above 1 somewhere")


def sample_admissible_contribution(rng: np.random.Generator, env: MicroDagEnv,
                                   row_sum=None) -> dict:
    """Random admissible weights; each (sink, joint tuple) column sums to
    u ~ U[0,1], or to the fixed `row_sum` when given."""
    tables = {}
    for k in env.topology.sinks:
        m = env.topology.ancestors(k)
        ns = int(np.prod([env.n_states[j] for j in m]))
        na = int(np.prod([env.n_actions[j] for j in m]))
        raw = rng.random((len(m), ns, na)) + 1e-12
        u = np.full((ns, na), float(row_sum)) if row_sum is not None \
            else rng.random((ns, na))
        tables[k] = raw / raw.sum(axis=0) * u
    return tables


# ---------------------------------------------------------------------------
# joint-space model
# ---------------------------------------------------------------------------


class _JointModel:
    def __init__(self, env: MicroDagEnv):
        self.env = env
        n = env.topology.node_count
        self.ns = int(np.prod(env.n_states))
        self.na = int(np.prod(env.n_actions))
        if self.ns * self.na > DP_GUARD or self.na * self.ns ** 2 > 20_000_000:
            raise StateSpaceTooLarge(
                f"{self.ns} joint states x {self.na} joint actions")

        self.s_digits = np.stack(np.unravel_index(np.arange(self.ns),
                                                  env.n_states), axis=1)
        self.a_digits = np.stack(np.unravel_index(np.arange(self.na),
                                                  env.n_actions), axis=1)

        self.mu0 = np.array([1.0])
        for i in range(n):
            self.mu0 = np.outer(self.mu0, env.p0[i]).ravel()

        # sink rewards over the full joint space
        self.sink_r = {}
        for k, table in env.sink_rewards.items():
            a_sub = env.joint_action_index(k, self.a_digits.T)
            self.sink_r[k] = table[self.s_digits[:, k][:, None],
                                   a_sub[None, :]]

        # joint transition kernel per joint action
        self.trans = np.empty((self.na, self.ns, self.ns))
        for a in range(self.na):
            q = np.ones((self.ns, 1))
            for i in range(n):
                ja = env.joint_action_index(i, self.a_digits[a])
                rows = env.transitions[i][self.s_digits[:, i], ja]
                q = (q[:, :, None] * rows[:, None, :]).reshape(self.ns, -1)
            self.trans[a] = q

    def policy_matrix(self, policy: TabularJointPolicy):
        pol = np.ones((self.ns, self.na))
        for i, t in enumerate(policy.tables):
            pol *= np.asarray(t)[self.s_digits[:, i][:, None],
                                 self.a_digits[None, :, i]]
        return pol

    def synthetic_r(self, contribution: dict):
        env = self.env
        out = np.zeros((env.topology.node_count, self.ns, self.na))
        for k, f in contribution.items():
            m = env.topology.ancestors(k)
            s_sub = np.ravel_multi_index(self.s_digits[:, m].T,
                                         [env.n_states[j] for j in m])
            a_sub = env.joint_action_index(k, self.a_digits.T)
            for pos, i in enumerate(m):
                out[i] += f[pos][s_sub[:, None], a_sub[None, :]] * self.sink_r[k]
        return out


def _dp(env, policy, gamma, contribution):
    """(per-sink values, per-node synthetic values or zeros without a
    contribution) over all ``env.max_steps`` steps."""
    model = _JointModel(env)
    pol = model.policy_matrix(policy)
    sr = model.synthetic_r(contribution) if contribution is not None else None

    sink_v = {k: 0.0 for k in model.sink_r}
    synth_v = np.zeros(env.topology.node_count)
    mu = model.mu0.copy()
    disc = 1.0
    for _ in range(env.max_steps):
        w = mu[:, None] * pol
        for k, r in model.sink_r.items():
            sink_v[k] += disc * float(np.sum(w * r))
        if sr is not None:
            for i in range(env.topology.node_count):
                synth_v[i] += disc * float(np.sum(w * sr[i]))
        mu = np.einsum("sa,asn->n", w, model.trans)
        disc *= gamma
    return sink_v, synth_v


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    total_synthetic: float
    total_sink: float
    ok: bool

    @property
    def margin(self):
        return self.total_sink - self.total_synthetic


def verify_bound(env: MicroDagEnv, policy: TabularJointPolicy,
                 contribution: dict, gamma: float) -> BoundReport:
    """Checks sum of synthetic values <= sum of sink values, up to float
    rounding, over all ``env.max_steps`` steps."""
    for k, table in env.sink_rewards.items():
        if np.any(table < 0.0):
            raise HypothesisViolated(f"sink {k} has negative rewards")
    validate_contribution(env, contribution)
    sink_v, synth_v = _dp(env, policy, gamma, contribution)
    lhs = float(synth_v.sum())
    rhs = float(sum(sink_v.values()))
    return BoundReport(lhs, rhs, ok=lhs <= rhs + BOUND_SLACK)


@dataclass(frozen=True)
class CampaignReport:
    trials: int
    violations: int
    max_violation: float
    min_margin: float
    equality_trials: int
    max_equality_gap: float

    def to_dict(self):
        return asdict(self)


def _bound_horizon(gamma, max_reward):
    """Steps after which the discounted tail is below CAMPAIGN_TOL when no
    step pays more than ``max_reward``; gamma < 1."""
    if max_reward <= 0.0 or gamma == 0.0:  # nothing after step one counts
        return 1
    return max(1, math.ceil(math.log(CAMPAIGN_TOL * (1.0 - gamma)
                                     / max_reward) / math.log(gamma)))


def run_bound_campaign(trials: int, seed: int,
                       gamma: float = 0.9) -> CampaignReport:
    """Random (env, policy, contribution) triples; checks the bound on each.

    Single-sink instances additionally get a saturated contribution (columns
    summing to exactly 1), where the bound must be an equality.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1)")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    violations = 0
    max_violation = 0.0
    min_margin = math.inf
    equality_trials = 0
    max_equality_gap = 0.0
    for _ in range(trials):
        env = sample_micro_env(rng, horizon=10 ** 9)  # up to three nodes
        # enumerate everything the bound needs
        env.max_steps = _bound_horizon(gamma, 1.0 * len(env.topology.sinks))
        policy = sample_tabular_policy(rng, env)
        contribution = sample_admissible_contribution(rng, env)
        report = verify_bound(env, policy, contribution, gamma)
        min_margin = min(min_margin, report.margin)
        if not report.ok:
            violations += 1
            max_violation = max(max_violation, -report.margin)
        if len(env.topology.sinks) == 1:
            saturated = sample_admissible_contribution(rng, env, row_sum=1.0)
            sat = verify_bound(env, policy, saturated, gamma)
            equality_trials += 1
            max_equality_gap = max(max_equality_gap, abs(sat.margin))
    return CampaignReport(trials, violations, max_violation, min_margin,
                          equality_trials, max_equality_gap)
