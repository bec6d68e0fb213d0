"""Topology tests against a brute-force reachability oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmarl.dag import (CycleDetected, DagTopology, EmptyGraph, InvalidNode,
                         random_topology)


def reachability_oracle(node_count, arcs):
    """Transitive closure via repeated boolean matrix products."""
    adj = np.zeros((node_count, node_count), dtype=bool)
    for a, b in arcs:
        adj[a, b] = True
    reach = adj.copy()
    for _ in range(node_count):
        reach = reach | (reach @ adj)
    return reach


def random_dag(rng, node_count):
    order = rng.permutation(node_count)
    arcs = []
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if rng.random() < 0.4:
                arcs.append((int(order[i]), int(order[j])))
    return arcs


DIAMOND = DagTopology(4, [(0, 2), (1, 2), (2, 3)])


class TestClosures:
    def test_diamond_frozen(self):
        assert DIAMOND.ancestors(2) == (0, 1, 2)
        assert DIAMOND.ancestors(3) == (0, 1, 2, 3)

    def test_closures_include_self(self):
        topo = DagTopology(3, [(0, 1), (1, 2)])
        for i in range(3):
            assert i in topo.ancestors(i)

    def test_against_reachability_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            arcs = random_dag(rng, n)
            topo = DagTopology(n, arcs)
            reach = reachability_oracle(n, arcs)
            for i in range(n):
                dlt = {i} | {j for j in range(n) if reach[j, i]}
                assert topo.ancestors(i) == tuple(sorted(dlt))

    def test_sinks_sources(self):
        assert DIAMOND.sinks == [3]
        assert [i for i in range(4) if not DIAMOND.predecessors(i)] == [0, 1]

    def test_isolated_node_is_both(self):
        topo = DagTopology(3, [(0, 1)])
        assert 2 in topo.sinks and topo.predecessors(2) == []

    def test_one_shot_arcs_keep_every_arc(self):
        topo = DagTopology(3, ((u, v) for u, v in [(0, 1), (1, 2)]))
        assert topo.arcs == ((0, 1), (1, 2))
        assert topo.sinks == [2]
        assert topo.ancestors(2) == (0, 1, 2)


class TestRewardFlowNeighbors:
    def test_diamond(self):
        # reward flows opposite the task arcs: node 2 receives from its
        # successor 3 and sends toward its predecessors 0 and 1
        assert DIAMOND.predecessors(2) == [0, 1]
        assert DIAMOND.successors(2) == [3]

    def test_matches_pred_succ(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            arcs = random_dag(rng, n)
            topo = DagTopology(n, arcs)
            for i in range(n):
                assert topo.predecessors(i) == sorted(u for u, v in arcs
                                                      if v == i)
                assert topo.successors(i) == sorted(v for u, v in arcs
                                                    if u == i)


class TestTopologicalOrder:
    def test_arcs_point_forward(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            arcs = random_dag(rng, n)
            order = DagTopology(n, arcs).topological_order
            pos = {node: k for k, node in enumerate(order)}
            assert sorted(order) == list(range(n))
            for a, b in arcs:
                assert pos[a] < pos[b]

    def test_deterministic_smallest_first(self):
        assert DagTopology(4, [(2, 3)]).topological_order == [0, 1, 2, 3]
        assert DagTopology(3, [(2, 0)]).topological_order == [1, 2, 0]

    def test_idempotent(self):
        arcs = [(0, 2), (1, 2), (2, 3)]
        assert (DagTopology(4, arcs).topological_order
                == DagTopology(4, arcs).topological_order)


class TestErrors:
    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            DagTopology(0, [])

    def test_invalid_arc_node(self):
        with pytest.raises(InvalidNode):
            DagTopology(3, [(0, 9)])
        with pytest.raises(InvalidNode):
            DagTopology(3, [(-1, 0)])

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            DagTopology(2, [(1, 1)])

    def test_cycle_reported(self):
        with pytest.raises(CycleDetected) as err:
            DagTopology(3, [(0, 1), (1, 2), (2, 0)])
        cycle = err.value.cycle
        assert set(cycle) <= {0, 1, 2} and len(cycle) >= 2
        # node 0 hangs below the cycle 1 -> 2 -> 1 and is the lowest id left
        with pytest.raises(CycleDetected) as err:
            DagTopology(3, [(1, 2), (2, 1), (1, 0)])
        assert err.value.cycle == [1, 2, 1]

    def test_query_out_of_range(self):
        with pytest.raises(InvalidNode):
            DIAMOND.ancestors(99)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_random_topology_is_acyclic(n, seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, n)
    assert topo.node_count == n
    order = topo.topological_order  # construction would raise on a cycle
    pos = {node: k for k, node in enumerate(order)}
    for a, b in topo.arcs:
        assert pos[a] < pos[b]
