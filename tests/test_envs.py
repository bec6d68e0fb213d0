"""Environment contract and invariant tests.

Each simulation is driven with long random-action rollouts and checked
against the invariants its dynamics promise: non-negative stocks, unit
conservation, leash geometry, and exact snapshot/restore replay.
"""

import copy

import numpy as np
import pytest

from dagmarl.config import ConfigError
from dagmarl.dag import DagTopology
from dagmarl.envs import (
    ENV_NAMES,
    EnvSnapshot,
    FactoryEnv,
    InvalidAction,
    LogisticsEnv,
    MicroDagEnv,
    PreyEnv,
    VersionMismatch,
    make_env,
)
from dagmarl.envs.logistics import DEMAND_BOUNDS
from dagmarl.envs.micro import InvalidDistribution, sample_micro_env
from dagmarl.envs.base import DagEnv
from dagmarl.envs.prey import DIRS, LEASH, PARENT
from helpers import global_state, snapshots_equal


def small_envs():
    return [
        FactoryEnv(goal_period=5, goal_periods=2),
        LogisticsEnv(goal_period=5, goal_periods=2),
        PreyEnv(max_steps=30),
        MicroDagEnv.from_options(nodes=3, arcs=((0, 1), (1, 2)), horizon=12),
    ]


def random_actions(env, rng):
    return [int(rng.integers(s)) for s in env.action_sizes]


def rollout(env, seed, steps, action_rng):
    """Plays random actions; returns (rewards, global states, done flags)."""
    env.reset(seed)
    rewards, states, dones = [], [], []
    for _ in range(steps):
        _, r, done = env.step(random_actions(env, action_rng))
        rewards.append(r)
        states.append(global_state(env).copy())
        dones.append(done)
        if done:
            break
    return np.array(rewards), states, dones


# -- factory function --------------------------------------------------------


def test_make_env_unknown_name():
    with pytest.raises(ConfigError):
        make_env("warehouse")


def test_make_env_bad_option():
    with pytest.raises(ConfigError):
        make_env("factory", {"goal_period": 5, "conveyor": 2})


@pytest.mark.parametrize("name", ENV_NAMES)
def test_make_env_builds_and_resets(name):
    env = make_env(name)
    obs = env.reset(3)
    assert len(obs) == env.topology.node_count
    assert len(env.action_sizes) == env.topology.node_count
    for o, d in zip(obs, env.obs_dims):
        assert np.asarray(o).shape == (d,)


# -- base contract -----------------------------------------------------------


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_step_before_reset(env):
    with pytest.raises(RuntimeError):
        env.step([0] * env.topology.node_count)


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_invalid_actions(env):
    env.reset(0)
    n = env.topology.node_count
    with pytest.raises(InvalidAction):
        env.step([0] * (n - 1))
    with pytest.raises(InvalidAction):
        env.step([0] * (n + 1))
    bad = [0] * n
    bad[-1] = env.action_sizes[-1]
    with pytest.raises(InvalidAction):
        env.step(bad)
    with pytest.raises(InvalidAction):
        env.step([-1] + [0] * (n - 1))


@pytest.mark.parametrize("action", (1.7, 2.0, np.float64(8.99), "3", None,
                                    True, False),
                         ids=("float", "integral-float", "numpy-float",
                              "string", "none", "true", "false"))
@pytest.mark.parametrize("method", ("step", "step_reward"))
def test_non_integer_actions_are_rejected(action, method):
    env = PreyEnv()
    env.reset(0)
    before = env.snapshot()
    with pytest.raises(InvalidAction):
        getattr(env, method)([0, 0, 0, action])
    assert snapshots_equal(env.snapshot(), before)


@pytest.mark.parametrize("action", (3, np.int64(3), np.int8(3), np.uint16(3)))
def test_integer_actions_of_any_kind_are_accepted(action):
    env, twin = PreyEnv(), PreyEnv()
    env.reset(0)
    twin.reset(0)
    got = env.step([0, action, 0, 0])
    want = twin.step([0, 3, 0, 0])
    assert got[1:] == want[1:]
    assert all((a == b).all() for a, b in zip(got[0], want[0]))


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_step_reward_is_step_without_the_observation(env):
    twin = copy.deepcopy(env)
    env.reset(4)
    twin.reset(4)
    rng = np.random.default_rng(11)
    done = False
    while not done:
        actions = random_actions(env, rng)
        obs, reward, done = env.step(actions)
        assert twin.step_reward(actions) == (reward, done)
        assert twin.step_count == env.step_count
        assert snapshots_equal(twin.snapshot(), env.snapshot())
        assert all((a == b).all() for a, b in zip(twin.observe(), obs))
    with pytest.raises(RuntimeError):
        twin.step_reward(actions)


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_episode_terminates_and_locks(env):
    env.reset(1)
    rng = np.random.default_rng(7)
    done = False
    for _ in range(env.max_steps):
        _, _, done = env.step(random_actions(env, rng))
        if done:
            break
    assert done
    assert env.step_count <= env.max_steps
    with pytest.raises(RuntimeError):
        env.step([0] * env.topology.node_count)


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_global_state_concatenates_observations(env):
    env.reset(2)
    flat = global_state(env)
    parts = [np.asarray(o, dtype=np.float64) for o in env.observe()]
    assert flat.shape == (sum(env.obs_dims),)
    np.testing.assert_array_equal(flat, np.concatenate(parts))


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_snapshot_replay_is_bitwise(env):
    rng = np.random.default_rng(11)
    env.reset(4)
    for _ in range(3):
        env.step(random_actions(env, rng))
    snap = env.snapshot()

    tail = [random_actions(env, rng) for _ in range(5)]
    first = [env.step(a) for a in tail]
    end_a = env.snapshot()

    env.restore(snap)
    second = [env.step(a) for a in tail]
    end_b = env.snapshot()

    for (o1, r1, d1), (o2, r2, d2) in zip(first, second):
        assert r1 == r2 and d1 == d2
        for x, y in zip(o1, o2):
            np.testing.assert_array_equal(x, y)
    assert snapshots_equal(end_a, end_b)


def test_snapshot_restores_into_fresh_instance():
    env = FactoryEnv(goal_period=5, goal_periods=2)
    rng = np.random.default_rng(0)
    env.reset(9)
    for _ in range(4):
        env.step(random_actions(env, rng))
    snap = env.snapshot()
    tail = [random_actions(env, rng) for _ in range(3)]
    want = [env.step(a) for a in tail]

    twin = FactoryEnv(goal_period=5, goal_periods=2)
    twin.restore(snap)
    got = [twin.step(a) for a in tail]
    for (_, r1, d1), (_, r2, d2) in zip(want, got):
        assert r1 == r2 and d1 == d2


def test_restore_rejects_other_signature():
    a = FactoryEnv(goal_period=5, goal_periods=2)
    b = FactoryEnv(goal_period=10, goal_periods=2)
    a.reset(0)
    b.reset(0)
    with pytest.raises(VersionMismatch):
        b.restore(a.snapshot())


def test_restore_rejects_tampered_signature():
    env = PreyEnv(max_steps=30)
    env.reset(0)
    snap = env.snapshot()
    forged = EnvSnapshot(("SomethingElse",) + snap.signature[1:], snap.payload)
    with pytest.raises(VersionMismatch):
        env.restore(forged)


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_snapshot_is_independent_of_later_steps(env):
    rng = np.random.default_rng(5)
    env.reset(6)
    env.step(random_actions(env, rng))
    snap = env.snapshot()
    kept = copy.deepcopy(snap)
    for _ in range(6):
        _, _, done = env.step(random_actions(env, rng))
        if done:
            break
    assert env.step_count > kept.payload["step_count"]
    assert snapshots_equal(snap, kept)


@pytest.mark.parametrize("env", small_envs(), ids=lambda e: type(e).__name__)
def test_snapshot_restores_twice_to_the_same_run(env):
    rng = np.random.default_rng(8)
    env.reset(10)
    env.step(random_actions(env, rng))
    snap = env.snapshot()
    tail = [random_actions(env, rng) for _ in range(4)]

    runs = []
    for _ in range(2):
        env.restore(snap)
        steps = [env.step(a) for a in tail]
        runs.append((steps, env.snapshot()))

    (first, end_a), (second, end_b) = runs
    for (o1, r1, d1), (o2, r2, d2) in zip(first, second):
        assert r1 == r2 and d1 == d2
        for x, y in zip(o1, o2):
            np.testing.assert_array_equal(x, y)
    assert snapshots_equal(end_a, end_b)


class _SetStateEnv(DagEnv):
    _STATE_ATTRS = ("seen",)

    def __init__(self):
        super().__init__(goal_period=1, max_steps=1)
        self.seen = {1, 2}


def test_snapshot_rejects_uncopyable_state():
    with pytest.raises(TypeError, match="seen"):
        _SetStateEnv().snapshot()


class _LedgerEnv(DagEnv):
    _STATE_ATTRS = ("ledger", "rows")

    def __init__(self):
        super().__init__(goal_period=1, max_steps=1)
        self.topology = DagTopology(1, [])
        self.ledger = {"cost": 0.5, "count": 2, "price": np.float64(1.5)}
        self.rows = [1, 2, None, True]


def test_snapshot_copies_ledgers_and_lists_and_refuses_nesting():
    env = _LedgerEnv()
    snap = env.snapshot()
    env.ledger["cost"] += 1.0
    env.rows.append(3)
    assert snap.payload["ledger"] == {"cost": 0.5, "count": 2, "price": 1.5}
    assert snap.payload["rows"] == [1, 2, None, True]
    env.restore(snap)
    env.ledger["count"] += 1
    env.rows.append(4)
    assert snap.payload["ledger"]["count"] == 2
    assert snap.payload["rows"] == [1, 2, None, True]
    # a snapshot copies one level deep, so nesting of any kind is refused
    for nested in ({"rows": [1, 2]}, [[1], [2]], (1, 2)):
        env.rows = nested
        with pytest.raises(TypeError, match="'rows'"):
            env.snapshot()


# -- factory -----------------------------------------------------------------


def test_factory_random_rollout_invariants():
    env = FactoryEnv(goal_period=8, goal_periods=5)
    rng = np.random.default_rng(21)
    for seed in range(4):
        env.reset(seed)
        assert env.demand.sum() == env.total_demand
        done = False
        while not done:
            _, _, done = env.step(random_actions(env, rng))
            assert env.inv_a >= 0 and env.inv_b >= 0
            assert env.inv_c1 >= 0 and env.inv_c2 >= 0
            assert np.all(env.demand >= 0.0)
            assert env.demand.sum() <= env.total_demand
            assert np.all(env.surplus >= 0.0)
            assert sorted(env.values) == [2.0, 3.0, 4.0]
            at_boundary = env.step_count % env.goal_period == 0
            if at_boundary and not done:
                # fresh goal: demand redrawn in full, surplus cleared
                assert env.demand.sum() == env.total_demand
                assert env.surplus.sum() == 0.0


def test_factory_accounting_matches_reward_stream():
    env = FactoryEnv(goal_period=6, goal_periods=4)
    rng = np.random.default_rng(3)
    env.reset(17)
    total = 0.0
    done = False
    while not done:
        _, r, done = env.step(random_actions(env, rng))
        total += r
    acc = env.accounting
    expected = acc["revenue"] - acc["holding"] - acc["penalty"]
    assert total == pytest.approx(expected, abs=1e-9)
    assert acc["credited"] <= acc["produced"]


def test_factory_idle_policy_costs_nothing():
    env = FactoryEnv(goal_period=5, goal_periods=2)
    env.reset(0)
    for _ in range(env.max_steps):
        _, r, done = env.step([0, 0, 0, 0])
        assert r == 0.0
    assert done


def test_factory_build_chain_arithmetic():
    env = FactoryEnv(goal_period=40, goal_periods=1)
    env.reset(5)
    # stamp part a, stamp part b, build component B, assemble product 1
    _, r, _ = env.step([1, 0, 0, 0])
    assert r == pytest.approx(-0.3)
    _, r, _ = env.step([2, 0, 0, 0])
    assert r == pytest.approx(-0.6)
    _, r, _ = env.step([0, 1, 0, 0])
    assert (env.inv_a, env.inv_b, env.inv_c1) == (0, 0, 1)
    assert r == pytest.approx(-0.8)
    value = env.values[0] if env.demand[0] > 0 else 0.0
    _, r, _ = env.step([0, 0, 0, 1])
    assert env.inv_c1 == 0
    assert r == pytest.approx(value)


def test_factory_assembly_needs_components():
    env = FactoryEnv(goal_period=10, goal_periods=1)
    env.reset(1)
    _, r, _ = env.step([0, 0, 0, 2])  # product 2 needs both B and C
    assert r == 0.0
    assert env.accounting["produced"] == 0


@pytest.mark.parametrize("env_cls", [FactoryEnv, LogisticsEnv])
@pytest.mark.parametrize("kwargs", [dict(goal_period=0),
                                    dict(goal_periods=0)],
                         ids=["goal_period", "goal_periods"])
def test_period_envs_reject_empty_periods(env_cls, kwargs):
    with pytest.raises(ValueError, match="must be >= 1"):
        env_cls(**kwargs)


# -- logistics -----------------------------------------------------------------


def test_logistics_demand_within_bounds():
    env = LogisticsEnv(goal_period=5, goal_periods=2)
    for seed in range(20):
        env.reset(seed)
        for dest, bounds in enumerate(DEMAND_BOUNDS):
            for product, (lo, hi) in enumerate(bounds):
                assert lo <= env.demand[dest, product] <= hi


def test_logistics_unit_conservation():
    env = LogisticsEnv(goal_period=10, goal_periods=3)
    rng = np.random.default_rng(8)
    for seed in range(3):
        env.reset(seed)
        done = False
        while not done:
            _, _, done = env.step(random_actions(env, rng))
            assert np.all(env.inventory >= 0.0)
            assert np.all(env.delivered >= 0.0)
            # sources hold nothing; every created unit is in transit or delivered
            assert env.inventory[:2].sum() == 0.0
            assert env.accounting["created"] == (
                env.inventory.sum() + env.delivered.sum())


def test_logistics_send_from_empty_relay_lapses():
    env = LogisticsEnv(goal_period=5, goal_periods=2)
    env.reset(2)
    _, r, _ = env.step([0, 0, 1, 0, 0])
    assert r == 0.0
    assert env.accounting["shipping"] == 0.0
    assert env.accounting["created"] == 0


def test_logistics_settlement_arithmetic():
    env = LogisticsEnv(goal_period=5, goal_periods=2)
    env.reset(0)
    env.demand = np.array([[2.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    env.delivered = np.array([[2.0, 1.0], [0.0, 2.0], [3.0, 0.0]])
    # d0 met exactly; d1 one short + two over; d2 three over
    total = env._settle()
    assert total == pytest.approx(100.0 - 8.0 - 3.0 * 2 + 200.0 - 3.0 * 3)
    assert env.accounting["benefit"] == pytest.approx(300.0)
    assert env.accounting["shortage"] == pytest.approx(8.0)
    assert env.accounting["overage"] == pytest.approx(15.0)


def test_logistics_full_delivery_earns_maximum():
    env = LogisticsEnv()  # 300 steps
    env.reset(5)
    env.costs[:] = 0.0  # isolate the settlement from shipping noise
    need = env.demand.astype(int)
    r3 = need[1].copy()        # pushed through node 3, straight to d1
    r2_d0 = need[0].copy()     # pushed through node 2 to d0
    r2_d2 = need[2].copy()     # pushed through node 2, relayed by node 4 to d2

    rewards = []
    done = False
    for _ in range(env.max_steps):
        a = [0, 0, 0, 0, 0]
        p3 = int(np.argmax(r3)) if r3.sum() > 0 else None
        p2 = dest2 = None
        candidates = [1 - p3, p3] if p3 is not None else [0, 1]
        for prod in candidates:
            if r2_d0[prod] > 0:
                p2, dest2 = prod, 0
                break
            if r2_d2[prod] > 0:
                p2, dest2 = prod, 2
                break
        if p2 is not None and p2 == p3:
            p2 = dest2 = None  # sources move one unit per step; node 2 waits
        if p3 is not None:
            a[p3] = 2                    # source -> node 3
            a[3] = 1 + 2 * p3 + 1        # node 3 -> d1
            r3[p3] -= 1
        if p2 is not None:
            a[p2] = 1                    # source -> node 2
            if dest2 == 0:
                a[2] = 1 + 2 * p2 + 1    # node 2 -> d0
                r2_d0[p2] -= 1
            else:
                a[2] = 1 + 2 * p2        # node 2 -> node 4
                a[4] = 1 + 2 * p2 + 1    # node 4 -> d2, same step
                r2_d2[p2] -= 1
        _, r, done = env.step(a)
        rewards.append(r)
        if done:
            break

    assert done and len(rewards) == env.max_steps
    assert r3.sum() == 0 and r2_d0.sum() == 0 and r2_d2.sum() == 0
    np.testing.assert_array_equal(env.delivered, env.demand)
    # units relay within the step, so nothing ever sits in inventory
    assert all(r == 0.0 for r in rewards[:-1])
    assert rewards[-1] == pytest.approx(600.0)
    assert env.accounting["benefit"] == pytest.approx(600.0)
    assert env.accounting["holding"] == 0.0
    assert env.accounting["shortage"] == 0.0
    assert env.accounting["overage"] == 0.0


# -- prey ----------------------------------------------------------------------


def test_prey_rollout_invariants():
    env = PreyEnv(grid_size=12, max_steps=200)
    rng = np.random.default_rng(13)
    for seed in range(3):
        env.reset(seed)
        done = False
        while not done:
            alive_before = env.alive.copy()
            _, r, done = env.step(random_actions(env, rng))
            assert np.all(env.prey_pos >= 0)
            assert np.all(env.prey_pos < env.grid_size)
            assert np.all(env.predator_pos >= 0)
            assert np.all(env.predator_pos < env.grid_size)
            for child, parent in PARENT.items():
                if env.alive[child]:
                    gap = np.abs(env.prey_pos[child] - env.prey_pos[parent])
                    assert gap.max() <= LEASH
            # only sinks die, and death is permanent
            assert env.alive[0] and env.alive[1]
            assert not np.any(env.alive & ~alive_before)
            living = sum(bool(env.alive[k]) for k in env.sinks)
            assert r == float(living)
        assert sum(env.alive[k] for k in env.sinks) == 0 or \
            env.step_count == env.max_steps


def test_prey_topology_is_its_parent_chain():
    env = PreyEnv()
    assert env.topology.arcs == ((0, 1), (1, 2), (1, 3))
    assert env.sinks == (2, 3)


def test_prey_first_direction_used_once():
    env = PreyEnv(max_steps=50)
    env.reset(4)
    assert all(d is not None for d in env.first_dir)
    env.step([0, 0, 0, 0])
    assert all(d is None for d in env.first_dir)


@pytest.mark.parametrize("grid_size", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("predators", [1, 2, 3, 4, 5])
def test_prey_resets_onto_the_board(grid_size, predators):
    env = PreyEnv(grid_size=grid_size, predators=predators)
    env.reset(0)
    for pos in (env.prey_pos, env.predator_pos):
        assert np.all((pos >= 0) & (pos < grid_size))


def test_prey_reward_counts_living_sinks():
    env = PreyEnv(grid_size=20, max_steps=10)
    env.reset(0)
    _, r, _ = env.step([0, 0, 0, 0])
    assert r == 2.0  # predators start in far corners, both sinks survive


@pytest.mark.parametrize("kwargs", [dict(grid_size=3), dict(max_steps=0),
                                    dict(goal_period=0)],
                         ids=["grid_size", "max_steps", "goal_period"])
def test_prey_rejects_tiny_grid(kwargs):
    with pytest.raises(ValueError):
        PreyEnv(**kwargs)


class ArrayPreyEnv(PreyEnv):
    """Reference prey dynamics on NumPy arrays throughout (np.clip, argmin).

    PreyEnv moves positions as Python ints; running the two side by side
    checks that they agree bit for bit, RNG draws included.
    """

    def _clamp_grid(self, pos):
        return np.clip(pos, 0, self.grid_size - 1)

    def _advance(self, actions):
        for i in self.topology.topological_order:
            if not self.alive[i]:
                continue
            a = actions[i]
            pos = self.prey_pos[i].copy()
            if a > 0:
                pos += DIRS[a - 1]
            pos = self._clamp_grid(pos)
            if i in PARENT:
                anchor = self.prey_pos[PARENT[i]]
                pos = np.clip(pos, anchor - LEASH, anchor + LEASH)
                pos = self._clamp_grid(pos)
            self.prey_pos[i] = pos

        for p in range(self.n_predators):
            self.predator_pos[p] = self._predator_move(p)

        for k in self.sinks:
            if self.alive[k] and any(
                    np.array_equal(self.prey_pos[k], self.predator_pos[p])
                    for p in range(self.n_predators)):
                self.alive[k] = False

        living = int(sum(self.alive[k] for k in self.sinks))
        done = living == 0 or self.step_count + 1 >= self.max_steps
        return float(living), done

    def _predator_move(self, p):
        pos = self.predator_pos[p]
        if self.first_dir[p] is not None:
            step = DIRS[self.first_dir[p]]
            self.first_dir[p] = None
            return self._clamp_grid(pos + step)
        target = self._nearest_living_sink(pos)
        options = [self._clamp_grid(pos + d) for d in DIRS]
        dists = [abs(q[0] - target[0]) + abs(q[1] - target[1])
                 for q in options]
        best = min(dists)
        ties = [q for q, d in zip(options, dists) if d == best]
        return ties[int(self.rng.integers(len(ties)))]

    def _nearest_living_sink(self, pos):
        best, best_d = None, None
        for k in self.sinks:
            if not self.alive[k]:
                continue
            d = (abs(self.prey_pos[k][0] - pos[0])
                 + abs(self.prey_pos[k][1] - pos[1]))
            if best_d is None or d < best_d:
                best, best_d = self.prey_pos[k], d
        return best

    def observe(self):
        g = float(self.grid_size)
        frac = (self.step_count % self.goal_period) / self.goal_period
        out = []
        for i in range(4):
            pos = self.prey_pos[i]
            if i in PARENT:
                rel_parent = (self.prey_pos[PARENT[i]] - pos) / g
            else:
                rel_parent = np.zeros(2)
            dists = [abs(q[0] - pos[0]) + abs(q[1] - pos[1])
                     for q in self.predator_pos]
            nearest = self.predator_pos[int(np.argmin(dists))]
            out.append(np.array([pos[0] / g, pos[1] / g,
                                 rel_parent[0], rel_parent[1],
                                 (nearest[0] - pos[0]) / g,
                                 (nearest[1] - pos[1]) / g,
                                 float(self.alive[i]), frac]))
        return out


# four predators start in all four corners, a fifth shares a corner
@pytest.mark.parametrize("grid_size", [4, 5, 20])
@pytest.mark.parametrize("predators", [1, 2, 3, 4, 5])
def test_prey_matches_array_reference(grid_size, predators):
    env = PreyEnv(grid_size=grid_size, predators=predators)
    ref = ArrayPreyEnv(grid_size=grid_size, predators=predators)
    for seed in range(50):
        action_rng = np.random.default_rng(1000 + seed)
        got, want = env.reset(seed), ref.reset(seed)
        done = False
        while True:
            for x, y in zip(got, want):
                np.testing.assert_array_equal(x, y)
            assert env.rng.bit_generator.state == ref.rng.bit_generator.state
            for name in PreyEnv._STATE_ATTRS:
                np.testing.assert_array_equal(getattr(env, name),
                                              getattr(ref, name))
            if done:
                break
            actions = random_actions(env, action_rng)
            got, reward, done = env.step(actions)
            want, ref_reward, ref_done = ref.step(actions)
            assert reward == ref_reward and done == ref_done
        assert env.step_count == ref.step_count


# -- micro ---------------------------------------------------------------------


def test_micro_joint_action_index_uses_sorted_ancestors():
    env = MicroDagEnv.from_options(nodes=3, arcs=((0, 2), (1, 2)), actions=3)
    env.reset(0)
    actions = [2, 1, 0]
    assert env.topology.ancestors(2) == (0, 1, 2)
    want = (2 * 3 + 1) * 3 + 0  # row-major over nodes 0, 1, 2
    assert env.joint_action_index(2, actions) == want
    assert env.joint_action_index(0, actions) == 2


def test_micro_joint_action_index_inverts_unravel_index():
    # the oracle decodes joint indices with np.unravel_index
    env = MicroDagEnv.from_options(nodes=3, arcs=((0, 2), (1, 2)), actions=3)
    sizes = [env.n_actions[j] for j in env.topology.ancestors(2)]
    for index in range(int(np.prod(sizes))):
        digits = np.unravel_index(index, sizes)
        actions = dict(zip(env.topology.ancestors(2), digits))
        assert env.joint_action_index(2, actions) == index


def test_micro_reward_matches_tables():
    env = MicroDagEnv.from_options(nodes=3, arcs=((0, 1), (0, 2)),
                                   states=3, actions=2, horizon=15)
    rng = np.random.default_rng(6)
    env.reset(9)
    for _ in range(15):
        actions = random_actions(env, rng)
        expected = sum(
            env.sink_rewards[k][env.states[k], env.joint_action_index(k, actions)]
            for k in env.topology.sinks)
        _, r, done = env.step(actions)
        assert r == pytest.approx(expected, abs=1e-12)
    assert done


def test_micro_from_options_is_deterministic():
    a = MicroDagEnv.from_options(nodes=2, table_seed=3)
    b = MicroDagEnv.from_options(nodes=2, table_seed=3)
    c = MicroDagEnv.from_options(nodes=2, table_seed=4)
    for x, y in zip(a.transitions, b.transitions):
        np.testing.assert_array_equal(x, y)
    assert not all(np.array_equal(x, y)
                   for x, y in zip(a.transitions, c.transitions))


def test_micro_validation_rejects_bad_tables():
    topo_args = dict(nodes=2, arcs=((0, 1),))
    good = MicroDagEnv.from_options(**topo_args)

    broken = [np.array(t, copy=True) for t in good.transitions]
    broken[0] = broken[0][:, :, :1]  # wrong next-state width
    with pytest.raises(InvalidDistribution):
        MicroDagEnv(good.topology, good.n_states, good.n_actions, good.p0,
                    broken, good.sink_rewards)

    leaky = [np.array(t, copy=True) for t in good.transitions]
    leaky[0][0, 0, 0] += 0.5  # row no longer sums to one
    with pytest.raises(InvalidDistribution):
        MicroDagEnv(good.topology, good.n_states, good.n_actions, good.p0,
                    leaky, good.sink_rewards)

    negative = {k: np.array(v, copy=True) for k, v in good.sink_rewards.items()}
    negative[1][0, 0] = -0.1
    with pytest.raises(InvalidDistribution):
        MicroDagEnv(good.topology, good.n_states, good.n_actions, good.p0,
                    good.transitions, negative)

    with pytest.raises(InvalidDistribution):
        MicroDagEnv(good.topology, good.n_states, good.n_actions, good.p0,
                    good.transitions, {0: good.sink_rewards[1]})

    bad_p0 = [np.array(p, copy=True) for p in good.p0]
    bad_p0[0] = bad_p0[0] * 2.0
    with pytest.raises(InvalidDistribution):
        MicroDagEnv(good.topology, good.n_states, good.n_actions, bad_p0,
                    good.transitions, good.sink_rewards)


@pytest.mark.parametrize("kwargs", [dict(horizon=0), dict(goal_period=0),
                                    dict(horizon=-1)],
                         ids=["horizon", "goal_period", "negative_horizon"])
def test_micro_rejects_empty_horizon_or_period(kwargs):
    with pytest.raises(ValueError):
        MicroDagEnv.from_options(nodes=2, **kwargs)


def test_sample_micro_env_is_well_formed():
    rng = np.random.default_rng(30)
    for _ in range(25):
        env = sample_micro_env(rng)
        env.reset(int(rng.integers(1000)))
        for table in env.sink_rewards.values():
            assert np.all(table >= 0.0) and np.all(table < 1.0)
        _, r, _ = env.step([0] * env.topology.node_count)
        assert r >= 0.0
