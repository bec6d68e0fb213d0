"""Grid pursuit: a chain of preys evades simple chasing predators.

Four prey agents form the task DAG root -> mid -> {sink, sink}; each child
must stay inside the Chebyshev-5 box around its parent, so the root steers
the formation.  Predators only hunt the two sink preys.  Parents move first
(topological order) and children are clamped against the parent's new
position.  Predators then take the move that most reduces their Manhattan
distance to the nearest living sink (ties broken at random); each predator's
very first move instead uses a direction drawn at reset.  A sink prey that
shares a cell with a predator at the end of the step dies.

The team earns +1 per living sink prey per step; the episode ends when both
sinks are dead or after max_steps.
"""

from __future__ import annotations

import numpy as np

from ..dag import DagTopology
from .base import DagEnv

DIRS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
PARENT = {1: 0, 2: 1, 3: 1}
LEASH = 5  # Chebyshev radius around the parent


class PreyEnv(DagEnv):

    _STATE_ATTRS = ("prey_pos", "alive", "predator_pos", "first_dir")

    def __init__(self, grid_size: int = 20, predators: int = 2,
                 max_steps: int = 200, goal_period: int = 10):
        super().__init__(goal_period, max_steps)
        if grid_size < 4 or predators < 1:
            raise ValueError("need grid_size >= 4 and predators >= 1")
        self.topology = DagTopology(4, [(p, c) for c, p in PARENT.items()])
        self.grid_size = int(grid_size)
        self.n_predators = int(predators)
        self.action_sizes = [9, 9, 9, 9]  # stay + 8 directions
        self.obs_dims = [8, 8, 8, 8]
        self.sinks = tuple(self.topology.sinks)

    # -- lifecycle -----------------------------------------------------------

    def reset(self, seed: int):
        self._start(seed)
        g = self.grid_size
        c = g // 2
        self.prey_pos = np.array([[c, c], [c, c - 1],
                                  [c - 2, c - 2], [c + 2, c - 2]])
        self.alive = np.array([True] * 4)
        corners = [(0, 0), (g - 1, g - 1), (0, g - 1), (g - 1, 0)]
        self.predator_pos = np.array(
            [corners[p % 4] for p in range(self.n_predators)])
        self.first_dir = [int(self.rng.integers(len(DIRS)))
                          for _ in range(self.n_predators)]
        return self.observe()

    # -- dynamics ------------------------------------------------------------
    #
    # Positions are read out of the state arrays once per call with tolist()
    # and moved on Python ints: min(max(v, lo), hi) is np.clip on integers.

    def _advance(self, actions):
        hi = self.grid_size - 1
        prey = self.prey_pos.tolist()
        predators = self.predator_pos.tolist()
        alive = self.alive.tolist()
        for i in self.topology.topological_order:
            if not alive[i]:
                continue
            x, y = prey[i]
            a = actions[i]
            if a > 0:
                dx, dy = DIRS[a - 1]
                x, y = x + dx, y + dy
            x, y = min(max(x, 0), hi), min(max(y, 0), hi)
            if i in PARENT:
                ax, ay = prey[PARENT[i]]
                # both points lie on the grid, so the leash box keeps it there
                x = min(max(x, ax - LEASH), ax + LEASH)
                y = min(max(y, ay - LEASH), ay + LEASH)
            prey[i] = [x, y]

        for p in range(self.n_predators):
            predators[p] = self._predator_move(p, predators[p], prey, alive)

        for k in self.sinks:
            if alive[k] and prey[k] in predators:
                alive[k] = False

        self.prey_pos[:] = prey
        self.predator_pos[:] = predators
        self.alive[:] = alive
        living = sum(alive[k] for k in self.sinks)
        done = living == 0 or self.step_count + 1 >= self.max_steps
        return float(living), done

    def _predator_move(self, p, pos, prey, alive):
        hi = self.grid_size - 1
        x, y = pos
        if self.first_dir[p] is not None:
            dx, dy = DIRS[self.first_dir[p]]
            self.first_dir[p] = None
            return [min(max(x + dx, 0), hi), min(max(y + dy, 0), hi)]
        tx, ty = self._nearest_living_sink(pos, prey, alive)
        options = [[min(max(x + dx, 0), hi), min(max(y + dy, 0), hi)]
                   for dx, dy in DIRS]
        dists = [abs(qx - tx) + abs(qy - ty) for qx, qy in options]
        best = min(dists)
        ties = [q for q, d in zip(options, dists) if d == best]
        return ties[int(self.rng.integers(len(ties)))]

    def _nearest_living_sink(self, pos, prey, alive):
        best, best_d = None, None
        for k in self.sinks:
            if not alive[k]:
                continue
            d = abs(prey[k][0] - pos[0]) + abs(prey[k][1] - pos[1])
            if best_d is None or d < best_d:
                best, best_d = prey[k], d
        return best

    # -- observations ----------------------------------------------------------

    def observe(self):
        g = float(self.grid_size)
        frac = (self.step_count % self.goal_period) / self.goal_period
        prey = self.prey_pos.tolist()
        predators = self.predator_pos.tolist()
        alive = self.alive.tolist()
        out = []
        for i, (x, y) in enumerate(prey):
            if i in PARENT:
                px, py = prey[PARENT[i]]
                rel_x, rel_y = (px - x) / g, (py - y) / g
            else:
                rel_x, rel_y = 0.0, 0.0
            dists = [abs(qx - x) + abs(qy - y) for qx, qy in predators]
            nx, ny = predators[dists.index(min(dists))]
            out.append(np.array([x / g, y / g, rel_x, rel_y,
                                 (nx - x) / g, (ny - y) / g,
                                 float(alive[i]), frac]))
        return out
