"""Task-graph topology and reachability queries.

Nodes are dense integer ids 0..n-1.  Arcs point in the direction of task
flow (upstream node -> downstream node).  Reward shares travel the other
way: a node sends to its task-predecessors and receives from its
task-successors.
"""

from __future__ import annotations

import heapq

import numpy as np


class EmptyGraph(ValueError):
    pass


class InvalidNode(ValueError):
    pass


class CycleDetected(ValueError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle: " + " -> ".join(str(v) for v in self.cycle))


def _find_cycle(pred, remaining):
    # Kahn's algorithm freed none of these nodes, so each keeps a parent among
    # them: a walk up the parents repeats, and the repeat closes a cycle
    path, seen = [], {}
    node = min(remaining)
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(j for j in pred[node] if j in remaining)
    return [node] + path[seen[node]:][::-1]


class DagTopology:
    """Validated DAG: sorted arcs, parent and child lists, a topological
    order and ascending ancestor closures, all built once.

    The order comes from Kahn's algorithm with an ascending-index
    tie-break.  Construction raises EmptyGraph for node_count < 1 and
    CycleDetected (carrying one offending cycle) when the arcs admit no
    topological order.  Immutable after construction; all query methods
    are side-effect free and safe for concurrent reads.
    """

    def __init__(self, node_count: int, arcs):
        if node_count < 1:
            raise EmptyGraph(f"node_count must be >= 1, got {node_count}")
        self.node_count = node_count
        self.arcs = tuple(sorted(set(tuple(a) for a in arcs)))
        self.arc_index = {a: n for n, a in enumerate(self.arcs)}

        # the arcs are sorted, so every parent and child list comes out sorted
        self._succ = [[] for _ in range(node_count)]
        self._pred = [[] for _ in range(node_count)]
        for u, v in self.arcs:
            if not (0 <= u < node_count) or not (0 <= v < node_count):
                raise InvalidNode(f"arc ({u}, {v}) outside 0..{node_count - 1}")
            if u == v:
                raise CycleDetected([u, u])
            self._succ[u].append(v)
            self._pred[v].append(u)

        # Kahn's algorithm; the ready list starts ascending, so it is a heap
        indeg = [len(p) for p in self._pred]
        ready = [i for i in range(node_count) if not indeg[i]]
        self._order = []
        while ready:
            i = heapq.heappop(ready)
            self._order.append(i)
            for j in self._succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, j)
        if len(self._order) < node_count:
            remaining = set(range(node_count)) - set(self._order)
            raise CycleDetected(_find_cycle(self._pred, remaining))

        # parents precede their children, so their closures are already built
        self._delta = [()] * node_count
        for i in self._order:
            self._delta[i] = tuple(sorted(set().union(
                (i,), *(self._delta[p] for p in self._pred[i]))))

    # -- queries ---------------------------------------------------------

    @property
    def topological_order(self) -> list[int]:
        return list(self._order)

    def _check_node(self, i):
        if not (0 <= i < self.node_count):
            raise InvalidNode(f"node {i} outside 0..{self.node_count - 1}")

    def predecessors(self, i) -> list[int]:
        self._check_node(i)
        return list(self._pred[i])

    def successors(self, i) -> list[int]:
        self._check_node(i)
        return list(self._succ[i])

    def ancestors(self, i) -> tuple:
        """All nodes with a directed path to i, including i itself, in
        ascending order."""
        self._check_node(i)
        return self._delta[i]

    @property
    def sinks(self) -> list[int]:
        return [i for i in range(self.node_count) if not self._succ[i]]

    def __repr__(self):
        return f"DagTopology(node_count={self.node_count}, arcs={self.arcs})"


def random_topology(rng: np.random.Generator, node_count: int) -> DagTopology:
    """Random DAG: forward arcs under a random node permutation, each
    present with probability 1/2."""
    perm = rng.permutation(node_count)
    arcs = []
    for a in range(node_count):
        for b in range(a + 1, node_count):
            if rng.random() < 0.5:
                arcs.append((int(perm[a]), int(perm[b])))
    return DagTopology(node_count, arcs)
