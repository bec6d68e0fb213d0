"""Share propagation and budget tests, pinned to hand-worked examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagmarl.dag import DagTopology
from helpers import reference_distribute
from dagmarl.reward_flow import (RewardBaseline, RgdOutput, ShareTable,
                                 distribute, synthetic_budget)

FAN = DagTopology(3, [(0, 1), (0, 2)])  # node 0 feeds sinks 1 and 2


def random_dag(rng, node_count):
    order = rng.permutation(node_count)
    arcs = []
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if rng.random() < 0.4:
                arcs.append((int(order[i]), int(order[j])))
    return arcs


class TestBudget:
    def test_frozen_examples(self):
        assert synthetic_budget(
            0.5, RewardBaseline(200.0, 10.0)) == pytest.approx(10.0)
        assert synthetic_budget(
            1.0, RewardBaseline(37.5, 30.0)) == pytest.approx(1.25)

    def test_initial_baseline_gives_zero(self):
        assert synthetic_budget(1.0, RewardBaseline()) == 0.0

    def test_negative_baseline_clamps_to_zero(self):
        assert synthetic_budget(0.7, RewardBaseline(-500.0, 10.0)) == 0.0

    def test_monotone_in_q(self):
        baseline = RewardBaseline(80.0, 8.0)
        budgets = [synthetic_budget(q, baseline)
                   for q in np.linspace(0.0, 1.0, 11)]
        assert budgets == sorted(budgets)
        assert budgets[0] == 0.0
        assert budgets[-1] == pytest.approx(10.0)

    def test_rejects_q_outside_unit_interval(self):
        with pytest.raises(ValueError):
            synthetic_budget(1.2, RewardBaseline(10.0, 1.0))
        with pytest.raises(ValueError):
            synthetic_budget(-0.1, RewardBaseline(10.0, 1.0))

    @pytest.mark.parametrize("periods", [0, 0.5, float("nan")])
    def test_baseline_needs_a_whole_period(self, periods):
        with pytest.raises(ValueError, match="goal_periods"):
            RewardBaseline(1.0, periods)


class TestRgdOutput:
    def test_values_clamped_to_unit_interval(self):
        out = RgdOutput(np.array([-0.5, 1.7, 0.3]), np.array([2.0, -1.0]))
        assert np.all((out.node_values >= 0.0) & (out.node_values <= 1.0))
        assert np.all((out.arc_values >= 0.0) & (out.arc_values <= 1.0))
        np.testing.assert_array_equal(out.node_values, [0.0, 1.0, 0.3])

    # with every arc value 0 a sink keeps its whole initial share
    def test_sink_initial_shares_proportional(self):
        diamond = DagTopology(4, [(0, 2), (1, 2), (2, 3)])
        table, _ = distribute(diamond, RgdOutput(
            np.array([0.1, 0.2, 0.3, 0.2]), np.zeros(3)), 1.0)
        assert table.node_share == pytest.approx([0.0, 0.0, 0.0, 1.0])
        # spec example: two sinks valued 0.6 / 0.2 split 0.75 / 0.25
        table, _ = distribute(FAN, RgdOutput(np.array([0.4, 0.6, 0.2]),
                                             np.zeros(2)), 1.0)
        assert table.node_share[1] == pytest.approx(0.75)
        assert table.node_share[2] == pytest.approx(0.25)
        assert table.node_share[0] == 0.0

    def test_all_zero_sinks_split_uniformly(self):
        table, _ = distribute(DagTopology(2, []),
                              RgdOutput(np.zeros(2), np.zeros(0)), 1.0)
        assert table.node_share == pytest.approx([0.5, 0.5])
        # with parents, each sink's 0.5 is what it keeps plus what it sends
        table, _ = distribute(FAN, RgdOutput(np.zeros(3), np.zeros(2)), 1.0)
        seeds = table.node_share[1:] + table.arc_share
        assert seeds == pytest.approx([0.5, 0.5])


class TestSplitShare:
    def test_frozen_example(self):
        # sink 1 starts at 0.75 with node value 0.6 and one arc at 0.2:
        # keep 0.75 * 0.6/0.8 = 0.5625, send 0.1875
        table, _ = distribute(FAN, RgdOutput(np.array([0.4, 0.6, 0.2]),
                                             np.array([0.2, 0.0])), 1.0)
        assert table.node_share[1] == pytest.approx(0.5625)
        assert table.arc_share[0] == pytest.approx(0.1875)

    def test_degenerate_uniform(self):
        # the only sink, 3, keeps 0.4/(0.4+0.6) and sends node 2 0.6; node 2
        # has value 0 and two arcs at 0, so it splits 0.6 three ways
        topo = DagTopology(4, [(0, 2), (1, 2), (2, 3)])
        table, _ = distribute(topo, RgdOutput(np.array([0.0, 0.0, 0.0, 0.4]),
                                              np.array([0.0, 0.0, 0.6])), 1.0)
        assert table.arc_share[2] == pytest.approx(0.6)
        assert table.node_share[2] == pytest.approx(0.2)
        assert table.arc_share[:2] == pytest.approx([0.2, 0.2])

    def test_no_parents_keeps_all(self):
        # nodes 0 and 1 of the degenerate example have value 0 and no
        # parents; node 0 of FAN has value 0.4 and no parents
        topo = DagTopology(4, [(0, 2), (1, 2), (2, 3)])
        table, _ = distribute(topo, RgdOutput(np.array([0.0, 0.0, 0.0, 0.4]),
                                              np.array([0.0, 0.0, 0.6])), 1.0)
        assert table.node_share[:2] == pytest.approx([0.2, 0.2])
        table, _ = distribute(FAN, RgdOutput(np.array([0.4, 0.6, 0.2]),
                                             np.array([0.2, 0.2])), 1.0)
        assert table.node_share[0] == pytest.approx(table.arc_share.sum())

    def test_conserves_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            topo = DagTopology(n, random_dag(rng, n))
            table, _ = distribute(topo, RgdOutput(
                rng.uniform(0, 1, size=n),
                rng.uniform(0, 1, size=len(topo.arcs))), 1.0)
            sent = np.zeros(n)  # what each node sends its parents
            received = np.zeros(n)
            for k, (u, v) in enumerate(topo.arcs):
                sent[v] += table.arc_share[k]
                received[u] += table.arc_share[k]
            for i in range(n):
                if topo.successors(i):
                    assert table.node_share[i] + sent[i] == pytest.approx(
                        received[i], abs=1e-12)
            # the sinks start with all of it
            assert sum(table.node_share[k] + sent[k]
                       for k in topo.sinks) == pytest.approx(1.0, abs=1e-12)


class TestDistribute:
    def test_fan_frozen_example(self):
        # 0 -> 1, 0 -> 2 with v = (0.4, 0.6, 0.2), both arcs 0.2, budget 8:
        # shares (0.3125, 0.5625, 0.125), rewards (2.5, 4.5, 1.0)
        output = RgdOutput(np.array([0.4, 0.6, 0.2]), np.array([0.2, 0.2]))
        table, sr = distribute(FAN, output, 8.0)
        np.testing.assert_allclose(table.node_share,
                                   [0.3125, 0.5625, 0.125], atol=1e-12)
        np.testing.assert_allclose(sr, [2.5, 4.5, 1.0], atol=1e-12)

    def test_zero_budget_zero_rewards(self):
        output = RgdOutput(np.array([0.4, 0.6, 0.2]), np.array([0.2, 0.2]))
        table, sr = distribute(FAN, output, 0.0)
        np.testing.assert_array_equal(sr, np.zeros(3))
        # shares still a valid distribution
        assert table.node_share.sum() == pytest.approx(1.0)

    def test_chain_passes_share_upstream(self):
        chain = DagTopology(3, [(0, 1), (1, 2)])
        output = RgdOutput(np.array([0.0, 0.0, 0.5]), np.array([1.0, 1.0]))
        table, sr = distribute(chain, output, 4.0)
        # sink keeps 0.5/(0.5+1) = 1/3; middle gets 2/3, keeps nothing
        # (v=0 but arc=1), passes 2/3 on; source keeps everything received
        assert table.node_share[2] == pytest.approx(1.0 / 3.0)
        assert table.node_share[1] == pytest.approx(0.0)
        assert table.node_share[0] == pytest.approx(2.0 / 3.0)
        assert sr.sum() == pytest.approx(4.0)

    def test_conservation_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            topo = DagTopology(n, random_dag(rng, n))
            output = RgdOutput(rng.uniform(0, 1, size=n),
                               rng.uniform(0, 1, size=len(topo.arcs)))
            budget = float(rng.uniform(0, 50))
            table, sr = distribute(topo, output, budget)
            assert abs(table.node_share.sum() - 1.0) <= 1e-9
            assert abs(sr.sum() - budget) <= 1e-9 * max(budget, 1.0)
            assert np.all(sr >= 0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 10 ** 6))
    def test_conservation_property(self, n, seed):
        rng = np.random.default_rng(seed)
        topo = DagTopology(n, random_dag(rng, n))
        output = RgdOutput(rng.uniform(0, 1, size=n),
                           rng.uniform(0, 1, size=len(topo.arcs)))
        table, sr = distribute(topo, output, 10.0)
        assert abs(table.node_share.sum() - 1.0) <= 1e-9
        assert abs(sr.sum() - 10.0) <= 1e-8

    def test_arc_share_aligns_with_arcs(self):
        output = RgdOutput(np.array([0.4, 0.6, 0.2]), np.array([0.2, 0.2]))
        table, _ = distribute(FAN, output, 1.0)
        # sinks 1 and 2 start at 0.75 and 0.25; entry k is what the sink of
        # arcs[k] sent back to node 0, and node 0 keeps all it receives
        assert FAN.arcs == ((0, 1), (0, 2))
        assert table.arc_share == pytest.approx([0.1875, 0.125], abs=1e-15)
        assert table.node_share[0] == pytest.approx(0.3125, abs=1e-15)

    def test_matches_reference_distribute(self):
        rng = np.random.default_rng(17)
        star = [(0, j) for j in range(1, 6)] + [(1, 5), (2, 5), (3, 4)]
        topologies = [DagTopology(6, star)] + [
            DagTopology(int(n), random_dag(rng, int(n)))
            for n in rng.integers(2, 11, size=40)]
        assert any(len(t.successors(i)) >= 3 for t in topologies
                   for i in range(t.node_count))
        for topo in topologies:
            for zeros in (False, True):
                values = rng.uniform(0, 1, size=topo.node_count)
                arc_values = rng.uniform(0, 1, size=len(topo.arcs))
                if zeros:  # all-zero rows take the uniform split
                    values[rng.random(topo.node_count) < 0.5] = 0.0
                    arc_values[rng.random(len(topo.arcs)) < 0.5] = 0.0
                output = RgdOutput(values, arc_values)
                table, paid = distribute(topo, output, 3.7)
                node_share, arc_share, want = reference_distribute(
                    topo, output, 3.7)
                assert np.array_equal(table.node_share, node_share)
                assert np.array_equal(paid, want)
                assert table.arc_share.shape == (len(topo.arcs),)
                for k, (u, v) in enumerate(topo.arcs):
                    assert table.arc_share[k] == arc_share[(v, u)]

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            distribute(FAN, RgdOutput(np.array([0.1, 0.2]),
                                      np.array([0.3, 0.3])), 1.0)
        with pytest.raises(ValueError):
            distribute(FAN, RgdOutput(np.array([0.1, 0.2, 0.3]),
                                      np.array([0.3])), 1.0)
        with pytest.raises(ValueError):
            distribute(FAN, RgdOutput(np.array([0.1, 0.2, 0.3]),
                                      np.array([0.3, 0.3])), -1.0)
