"""Two-product shipping network on a five-node task DAG.

Nodes 0 and 1 are unconstrained sources for products A and B.  They feed the
mid-level nodes 2 and 3, which feed the top node 4.  Deliveries leave the
network at three destinations: d0 from node 2, d1 from nodes 3 and 4, d2
from node 4.  An action moves one unit of one product along one chosen
outgoing link (or does nothing); each link has an episode-fixed shipping
cost drawn from U[0, 0.3].

Demands per destination and product are integers drawn once per episode;
at the final step each destination pays its benefit (100/300/200) if every
demanded unit arrived, minus 8 per missing unit and 3 per excess unit.
Units sitting in node inventories cost 0.3 per step.  Nodes act in
topological order, so a unit can relay across several hops within one step.
"""

from __future__ import annotations

import numpy as np

from ..dag import DagTopology
from .base import DagEnv

IDLE = 0
_A, _B = 0, 1

# (source node, kind, target): kind "n" = network node, "d" = destination
LINKS = (
    (0, "n", 2), (0, "n", 3),
    (1, "n", 2), (1, "n", 3),
    (2, "n", 4), (2, "d", 0),
    (3, "n", 4), (3, "d", 1),
    (4, "d", 1), (4, "d", 2),
)
_NODE_LINKS = {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7), 4: (8, 9)}

BENEFITS = (100.0, 300.0, 200.0)
DEMAND_BOUNDS = (  # ((A lo, A hi), (B lo, B hi)) per destination, inclusive
    ((5, 10), (3, 7)),
    ((110, 130), (70, 90)),
    ((35, 45), (80, 100)),
)


class LogisticsEnv(DagEnv):

    _STATE_ATTRS = ("inventory", "delivered", "demand", "costs", "accounting")

    def __init__(self, goal_period: int = 10, goal_periods: int = 30):
        super().__init__(goal_period, goal_period * goal_periods)
        self.topology = DagTopology(
            5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
        # sources: idle + one link choice per product they carry;
        # relay nodes: idle + (product, link) pairs
        self.action_sizes = [3, 3, 5, 5, 5]
        self.obs_dims = [3, 3, 7, 7, 9]
        self.holding_cost = 0.3
        self.shortage_cost = 8.0
        self.overage_cost = 3.0
        self.max_link_cost = 0.3

    # -- lifecycle -----------------------------------------------------------

    def reset(self, seed: int):
        self._start(seed)
        self.costs = self.rng.uniform(0.0, self.max_link_cost, size=len(LINKS))
        self.demand = np.array(
            [[self.rng.integers(lo, hi + 1) for (lo, hi) in bounds]
             for bounds in DEMAND_BOUNDS], dtype=np.float64)
        self.inventory = np.zeros((5, 2))  # rows 0,1 stay empty (sources)
        self.delivered = np.zeros((3, 2))
        self.accounting = {"shipping": 0.0, "holding": 0.0, "benefit": 0.0,
                           "shortage": 0.0, "overage": 0.0, "created": 0}
        return self.observe()

    # -- dynamics ------------------------------------------------------------

    def _decode(self, node, action):
        """Action -> (product, link index) or None for idle."""
        if action == IDLE:
            return None
        links = _NODE_LINKS[node]
        if node in (0, 1):
            return (node, links[action - 1])  # product fixed by the source
        product, slot = divmod(action - 1, len(links))
        return (product, links[slot])

    def _advance(self, actions):
        reward = 0.0
        for node in self.topology.topological_order:
            move = self._decode(node, actions[node])
            if move is None:
                continue
            product, link = move
            if node in (0, 1):
                self.accounting["created"] += 1
            elif self.inventory[node, product] >= 1:
                self.inventory[node, product] -= 1
            else:
                continue  # nothing on hand; the send lapses
            cost = self.costs[link]
            reward -= cost
            self.accounting["shipping"] += cost
            _, kind, target = LINKS[link]
            if kind == "n":
                self.inventory[target, product] += 1
            else:
                self.delivered[target, product] += 1

        holding = self.holding_cost * float(self.inventory.sum())
        reward -= holding
        self.accounting["holding"] += holding

        done = self.step_count + 1 >= self.max_steps
        if done:
            reward += self._settle()
        return reward, done

    def _settle(self):
        total = 0.0
        short = np.maximum(self.demand - self.delivered, 0.0).sum(axis=1)
        over = np.maximum(self.delivered - self.demand, 0.0).sum(axis=1)
        for dest in range(3):
            if short[dest] == 0.0:
                total += BENEFITS[dest]
                self.accounting["benefit"] += BENEFITS[dest]
            total -= self.shortage_cost * short[dest]
            total -= self.overage_cost * over[dest]
            self.accounting["shortage"] += self.shortage_cost * short[dest]
            self.accounting["overage"] += self.overage_cost * over[dest]
        return total

    # -- observations ----------------------------------------------------------

    def observe(self):
        frac = self.step_count / self.max_steps
        c = self.costs / self.max_link_cost
        inv = self.inventory / 50.0
        rem = (self.demand - self.delivered) / 130.0
        return [
            np.array([c[0], c[1], frac]),
            np.array([c[2], c[3], frac]),
            np.array([inv[2, 0], inv[2, 1], c[4], c[5],
                      rem[0, 0], rem[0, 1], frac]),
            np.array([inv[3, 0], inv[3, 1], c[6], c[7],
                      rem[1, 0], rem[1, 1], frac]),
            np.array([inv[4, 0], inv[4, 1], c[8], c[9],
                      rem[1, 0], rem[1, 1], rem[2, 0], rem[2, 1], frac]),
        ]
