"""Tiny tabular environment with explicit transition and reward tables.

Each node carries its own discrete state; the next-state distribution of
node i conditions on i's state and on the joint action of i's ancestor
closure.  Sink nodes carry reward tables r(own state, ancestor-closure joint
action) >= 0.  Small enough for exhaustive value computation, which is what
the verification oracle does with it.
"""

from __future__ import annotations

import numpy as np

from ..dag import DagTopology, random_topology
from .base import DagEnv


class InvalidDistribution(ValueError):
    pass


class MicroDagEnv(DagEnv):
    """Playable wrapper around the tables.

    transitions[i] has shape (S_i, JA_i, S_i) where JA_i enumerates the
    joint actions of ancestors(i); sink_rewards[k] has shape
    (S_k, JA_k).  Observations are one-hot own states.
    """

    _STATE_ATTRS = ("states",)

    def __init__(self, topology: DagTopology, n_states, n_actions, p0,
                 transitions, sink_rewards, horizon: int = 20,
                 goal_period: int = 5):
        super().__init__(goal_period, horizon)
        self.topology = topology
        self.n_states = [int(s) for s in n_states]
        self.n_actions = [int(a) for a in n_actions]
        if min(self.n_states) < 1 or min(self.n_actions) < 1:
            raise InvalidDistribution("need >= 1 state and action per node")
        self.p0 = [np.asarray(p, dtype=np.float64) for p in p0]
        self.transitions = [np.asarray(t, dtype=np.float64) for t in transitions]
        self.sink_rewards = {int(k): np.asarray(r, dtype=np.float64)
                             for k, r in sink_rewards.items()}
        self.action_sizes = list(self.n_actions)
        self.obs_dims = list(self.n_states)
        self._validate()

    def _validate(self):
        topo = self.topology
        for i in range(topo.node_count):
            sizes = [self.n_actions[j] for j in topo.ancestors(i)]
            ja = int(np.prod(sizes))
            want = (self.n_states[i], ja, self.n_states[i])
            if self.transitions[i].shape != want:
                raise InvalidDistribution(
                    f"node {i}: transition shape {self.transitions[i].shape}, "
                    f"want {want}")
            rows = self.transitions[i].sum(axis=-1)
            if np.any(self.transitions[i] < 0.0) or np.any(
                    np.abs(rows - 1.0) > 1e-9):
                raise InvalidDistribution(f"node {i}: rows must sum to 1")
            if self.p0[i].shape != (self.n_states[i],) or np.any(
                    self.p0[i] < 0.0) or abs(self.p0[i].sum() - 1.0) > 1e-9:
                raise InvalidDistribution(f"node {i}: bad initial distribution")
        if set(self.sink_rewards) != set(topo.sinks):
            raise InvalidDistribution(
                f"reward tables for {sorted(self.sink_rewards)}, "
                f"sinks are {topo.sinks}")
        for k, table in self.sink_rewards.items():
            sizes = [self.n_actions[j] for j in topo.ancestors(k)]
            want = (self.n_states[k], int(np.prod(sizes)))
            if table.shape != want:
                raise InvalidDistribution(
                    f"sink {k}: reward shape {table.shape}, want {want}")
            if np.any(table < 0.0):
                raise InvalidDistribution(f"sink {k}: rewards must be >= 0")

    # -- play ------------------------------------------------------------

    def joint_action_index(self, node, actions):
        """Row-major index of the actions of ``node``'s ancestor closure,
        lowest node first; elementwise when each action is an array."""
        order = self.topology.ancestors(node)
        return np.ravel_multi_index([actions[j] for j in order],
                                    [self.n_actions[j] for j in order])

    def reset(self, seed: int):
        self._start(seed)
        self.states = [int(self.rng.choice(s, p=p))
                       for s, p in zip(self.n_states, self.p0)]
        return self.observe()

    def _advance(self, actions):
        reward = 0.0
        for k, table in sorted(self.sink_rewards.items()):
            reward += table[self.states[k], self.joint_action_index(k, actions)]
        nxt = []
        for i in range(self.topology.node_count):
            row = self.transitions[i][self.states[i],
                                      self.joint_action_index(i, actions)]
            nxt.append(int(self.rng.choice(self.n_states[i], p=row)))
        self.states = nxt
        done = self.step_count + 1 >= self.max_steps
        return float(reward), done

    def observe(self):
        out = []
        for i, s in enumerate(self.states):
            onehot = np.zeros(self.n_states[i])
            onehot[s] = 1.0
            out.append(onehot)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_options(cls, nodes=2, arcs=((0, 1),), states=2, actions=2,
                     horizon=20, goal_period=5, table_seed=0):
        """Deterministic random tables for a fixed topology (config entry)."""
        n = int(nodes)
        topology = DagTopology(n, [tuple(a) for a in arcs])
        rng = np.random.default_rng(int(table_seed))
        return sample_micro_env(
            rng, topology=topology,
            n_states=[int(states)] * n, n_actions=[int(actions)] * n,
            horizon=int(horizon), goal_period=int(goal_period))


def sample_micro_env(rng: np.random.Generator, topology: DagTopology | None = None,
                     n_states=None, n_actions=None, horizon: int = 20,
                     goal_period: int = 5) -> MicroDagEnv:
    """Random instance: random DAG of 1 to 3 nodes unless given, stochastic
    rows, rewards in [0,1)."""
    if topology is None:
        topology = random_topology(rng, int(rng.integers(1, 4)))
    n = topology.node_count
    if n_states is None:
        n_states = [int(rng.integers(2, 4)) for _ in range(n)]
    if n_actions is None:
        n_actions = [int(rng.integers(1, 3)) for _ in range(n)]

    p0, transitions = [], []
    for i in range(n):
        raw = rng.random(n_states[i]) + 1e-3
        p0.append(raw / raw.sum())
        sizes = [n_actions[j] for j in topology.ancestors(i)]
        ja = int(np.prod(sizes))
        t = rng.random((n_states[i], ja, n_states[i])) + 1e-3
        transitions.append(t / t.sum(axis=-1, keepdims=True))

    sink_rewards = {}
    for k in topology.sinks:
        sizes = [n_actions[j] for j in topology.ancestors(k)]
        ja = int(np.prod(sizes))
        sink_rewards[k] = rng.random((n_states[k], ja))

    return MicroDagEnv(topology, n_states, n_actions, p0, transitions,
                       sink_rewards, horizon=horizon, goal_period=goal_period)
