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
_STEPS = ((0, 0),) + DIRS  # action a moves by _STEPS[a]; 0 stays
_MOVES = range(1, len(_STEPS))  # the actions that step, in DIRS order


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
        self._order = [(i, PARENT.get(i))
                       for i in self.topology.topological_order]
        # the move table, one axis at a time: action a takes a piece at
        # (x, y) to (_move_x[x][a], _move_y[y][a]), clamped to the board
        hi = self.grid_size - 1
        self._move_x, self._move_y = (
            [tuple(min(max(v + step[axis], 0), hi) for step in _STEPS)
             for v in range(hi + 1)]
            for axis in (0, 1))

    # -- lifecycle -----------------------------------------------------------

    def reset(self, seed: int):
        self._start(seed)
        g = self.grid_size
        c = g // 2
        hi = g - 1
        starts = [(c, c), (c, c - 1), (c - 2, c - 2), (c + 2, c - 2)]
        # clamped onto the board, where a 4x4 one would put the last at (4, 0)
        self.prey_pos = np.array([[min(x, hi), min(y, hi)]
                                  for x, y in starts])
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
    # and moved on Python ints through the move table, then written back.

    def _advance(self, actions):
        move_x, move_y = self._move_x, self._move_y
        prey = self.prey_pos.tolist()
        predators = self.predator_pos.tolist()
        alive = self.alive.tolist()
        for i, parent in self._order:
            if not alive[i]:
                continue
            x, y = prey[i]
            a = actions[i]
            x, y = move_x[x][a], move_y[y][a]
            if parent is not None:
                ax, ay = prey[parent]
                # both points lie on the grid, so the leash box keeps it there
                if not (ax - LEASH <= x <= ax + LEASH
                        and ay - LEASH <= y <= ay + LEASH):
                    x = min(max(x, ax - LEASH), ax + LEASH)
                    y = min(max(y, ay - LEASH), ay + LEASH)
            prey[i] = (x, y)

        first_dir = self.first_dir
        for p, (x, y) in enumerate(predators):
            xs, ys = move_x[x], move_y[y]
            if first_dir[p] is not None:
                a = first_dir[p] + 1
                first_dir[p] = None
            else:
                tx, ty = self._nearest_living_sink((x, y), prey, alive)
                dists = [abs(xs[m] - tx) + abs(ys[m] - ty) for m in _MOVES]
                best = min(dists)
                ties = [m for m, d in zip(_MOVES, dists) if d == best]
                # integers(1) is 0 and draws no bits, so one best move skips it
                a = (ties[0] if len(ties) == 1
                     else ties[int(self.rng.integers(len(ties)))])
            predators[p] = (xs[a], ys[a])

        for k in self.sinks:
            if alive[k] and prey[k] in predators:
                alive[k] = False

        self.prey_pos[:] = prey
        self.predator_pos[:] = predators
        self.alive[:] = alive
        living = sum(alive[k] for k in self.sinks)
        done = living == 0 or self.step_count + 1 >= self.max_steps
        return float(living), done

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
