"""Environment contract shared by all simulations.

Per step every node consumes exactly one discrete action (index 0 is always
the idle/no-op choice) and the whole team receives one scalar reward.
snapshot()/restore() round-trip the full mutable state including the RNG, so
counterfactual rollouts replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidAction(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class EnvSnapshot:
    signature: tuple
    payload: dict


# the scalar types a snapshot keeps as they are, since none can be mutated
_SCALARS = frozenset({int, float, bool, str, type(None),
                      np.int64, np.float64, np.bool_})


def _clone(value, name: str):
    """Copies state attribute `name` so that no mutable part is shared."""
    if isinstance(value, np.ndarray):
        return value.copy()
    kind = type(value)
    if kind in _SCALARS:
        return value
    # a flat dict or list of scalars: a shallow copy shares nothing mutable
    if (kind is dict and _SCALARS.issuperset(map(type, value.values()))
            or kind is list and _SCALARS.issuperset(map(type, value))):
        return value.copy()
    raise TypeError(f"state attribute {name!r} holds a "
                    f"{kind.__name__}, which snapshot() cannot copy")


class DagEnv:
    """Base class wiring the snapshot plumbing and action validation.

    Subclasses pass goal_period and max_steps (both >= 1) to __init__, set
    topology, obs_dims and action_sizes, and implement reset(seed),
    observe(), and _advance(actions) -> (reward, done).

    step() is step_reward() followed by observe().  step_reward() validates
    the actions (one integer in range per node), advances and counts
    step_count exactly as step() does, and restore() rewinds it the same
    way, but it skips observe().

    Mutable state must live in attributes listed in _STATE_ATTRS.
    snapshot() and restore() copy those attributes: NumPy arrays with
    .copy(), scalars (int, float, bool, str, None, np.int64, np.float64 and
    np.bool_) as they are, and a dict or list that holds only such scalars
    by one shallow copy.  Any other value (a nested container, a tuple, a
    set, an object) raises TypeError naming the attribute, so no mutable
    state is ever shared with a snapshot.
    """

    _STATE_ATTRS: tuple = ()

    topology = None
    obs_dims: list = []
    action_sizes: list = []

    def __init__(self, goal_period: int, max_steps: int):
        if max_steps < 1 or goal_period < 1:
            raise ValueError(f"max_steps ({max_steps}) and goal_period "
                             f"({goal_period}) must be >= 1")
        self.goal_period = int(goal_period)
        self.max_steps = int(max_steps)
        self.rng = np.random.default_rng(0)
        self.step_count = 0
        self._ready = False

    # -- to implement ------------------------------------------------------

    def reset(self, seed: int):
        raise NotImplementedError

    def observe(self) -> list:
        raise NotImplementedError

    def _advance(self, actions) -> tuple[float, bool]:
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------------

    def _start(self, seed: int):
        self.rng = np.random.default_rng(int(seed))
        self.step_count = 0
        self._ready = True

    def step(self, actions):
        """Applies one action per node; returns (obs list, team reward, done)."""
        reward, done = self.step_reward(actions)
        return self.observe(), reward, done

    def step_reward(self, actions):
        """``step`` without the observation; returns (team reward, done).

        It validates, advances and counts exactly as ``step`` does, and
        ``restore`` rewinds it the same way, so a counterfactual branch that
        is restored right after pays no ``observe()``.
        """
        if not self._ready:
            raise RuntimeError("step() before reset()")
        actions = list(actions)
        if len(actions) != self.topology.node_count:
            raise InvalidAction(
                f"{len(actions)} actions for {self.topology.node_count} nodes")
        for i, (a, size) in enumerate(zip(actions, self.action_sizes)):
            # an integer of any kind; a bool, a float or a string is no action
            if not (isinstance(a, (int, np.integer)) and type(a) is not bool
                    and 0 <= a < size):
                raise InvalidAction(
                    f"action {a!r} for node {i} with {size} choices")
        reward, done = self._advance([int(a) for a in actions])
        self.step_count += 1
        if done:
            self._ready = False
        return float(reward), bool(done)

    def signature(self) -> tuple:
        return (type(self).__name__, self.topology.node_count,
                tuple(self.obs_dims), tuple(self.action_sizes),
                self.goal_period, self.max_steps)

    def snapshot(self) -> EnvSnapshot:
        # bit_generator.state builds a fresh dict on every read, and its
        # setter copies the values out, so the RNG state needs no copy.
        payload = {"step_count": self.step_count, "ready": self._ready,
                   "rng": self.rng.bit_generator.state}
        for name in self._STATE_ATTRS:
            payload[name] = _clone(getattr(self, name), name)
        return EnvSnapshot(self.signature(), payload)

    def restore(self, snap: EnvSnapshot):
        if snap.signature != self.signature():
            raise VersionMismatch(
                f"snapshot {snap.signature} vs env {self.signature()}")
        self.step_count = snap.payload["step_count"]
        self._ready = snap.payload["ready"]
        self.rng.bit_generator.state = snap.payload["rng"]
        for name in self._STATE_ATTRS:
            setattr(self, name, _clone(snap.payload[name], name))
