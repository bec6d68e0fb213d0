"""Small make-to-demand factory on a four-node task DAG.

Node 0 stamps raw parts 'a' or 'b' into the level-1 inventory.  Node 1
builds component B from {a, b}; node 2 builds component C from {b}.  Node 3
assembles final products 1/2/3 from {B}, {B, C}, {C}.  Each goal period the
three products get distinct values (a permutation of 2/3/4) and a total
demand of 10 units split randomly across them; finished units beyond the
remaining demand are surplus and cost 1 apiece at the period boundary.
Holding costs: 0.3 per level-1 part per step, 0.8 per component per step.

Nodes act in topological order within a step, so a part stamped this step
can already be consumed downstream this step.
"""

from __future__ import annotations

import numpy as np

from ..dag import DagTopology
from .base import DagEnv

IDLE = 0
_PART_A, _PART_B = 1, 2


class FactoryEnv(DagEnv):

    _STATE_ATTRS = ("inv_a", "inv_b", "inv_c1", "inv_c2", "values", "demand",
                    "surplus", "accounting")

    def __init__(self, goal_period: int = 40, goal_periods: int = 10):
        super().__init__(goal_period, goal_period * goal_periods)
        self.topology = DagTopology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        self.action_sizes = [3, 2, 2, 4]
        self.obs_dims = [3, 4, 3, 9]
        self.holding_level1 = 0.3
        self.holding_level2 = 0.8
        self.surplus_penalty = 1.0
        self.total_demand = 10

    # -- lifecycle -----------------------------------------------------------

    def reset(self, seed: int):
        self._start(seed)
        self.inv_a = 0
        self.inv_b = 0
        self.inv_c1 = 0  # component B stock
        self.inv_c2 = 0  # component C stock
        self.surplus = np.zeros(3)
        self.accounting = {"revenue": 0.0, "holding": 0.0, "penalty": 0.0,
                           "produced": 0, "credited": 0}
        self._draw_period()
        return self.observe()

    def _draw_period(self):
        self.values = self.rng.permutation(np.array([2.0, 3.0, 4.0]))
        # uniform composition of total_demand over 3 products (stars and bars)
        slots = self.total_demand + 2
        bars = np.sort(self.rng.choice(slots, size=2, replace=False))
        self.demand = np.array([bars[0], bars[1] - bars[0] - 1,
                                slots - 1 - bars[1]], dtype=np.float64)

    # -- dynamics ------------------------------------------------------------

    def _advance(self, actions):
        reward = 0.0

        a0 = actions[0]
        if a0 == _PART_A:
            self.inv_a += 1
        elif a0 == _PART_B:
            self.inv_b += 1

        if actions[1] != IDLE and self.inv_a >= 1 and self.inv_b >= 1:
            self.inv_a -= 1
            self.inv_b -= 1
            self.inv_c1 += 1

        if actions[2] != IDLE and self.inv_b >= 1:
            self.inv_b -= 1
            self.inv_c2 += 1

        product = actions[3] - 1  # -1 = idle
        if product >= 0 and self._consume_for(product):
            self.accounting["produced"] += 1
            if self.demand[product] > 0:
                self.demand[product] -= 1
                reward += self.values[product]
                self.accounting["revenue"] += self.values[product]
                self.accounting["credited"] += 1
            else:
                self.surplus[product] += 1

        holding = (self.holding_level1 * (self.inv_a + self.inv_b)
                   + self.holding_level2 * (self.inv_c1 + self.inv_c2))
        reward -= holding
        self.accounting["holding"] += holding

        done = self.step_count + 1 >= self.max_steps
        if (self.step_count + 1) % self.goal_period == 0:
            penalty = self.surplus_penalty * float(self.surplus.sum())
            reward -= penalty
            self.accounting["penalty"] += penalty
            self.surplus = np.zeros(3)
            if not done:
                self._draw_period()
        return reward, done

    def _consume_for(self, product) -> bool:
        if product == 0:
            if self.inv_c1 < 1:
                return False
            self.inv_c1 -= 1
        elif product == 1:
            if self.inv_c1 < 1 or self.inv_c2 < 1:
                return False
            self.inv_c1 -= 1
            self.inv_c2 -= 1
        else:
            if self.inv_c2 < 1:
                return False
            self.inv_c2 -= 1
        return True

    # -- observations ----------------------------------------------------------

    def observe(self):
        frac = (self.step_count % self.goal_period) / self.goal_period
        inv = np.array([self.inv_a, self.inv_b, self.inv_c1, self.inv_c2],
                       dtype=np.float64) / 10.0
        return [
            np.array([inv[0], inv[1], frac]),
            np.array([inv[0], inv[1], inv[2], frac]),
            np.array([inv[1], inv[3], frac]),
            np.concatenate([[inv[2], inv[3]], self.values / 4.0,
                            self.demand / self.total_demand, [frac]]),
        ]
