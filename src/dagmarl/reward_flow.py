"""Synthetic-reward budgeting and share propagation over the task DAG.

A generator picks a fraction q of the per-period baseline budget; a
distributor emits node values v and arc values e in [0,1].  One
reverse-topological sweep hands out the shares: a sink starts with its v
over the sum of the sink values (an equal split when they are all zero),
any other node with what its successors sent back.  A node keeps
v / (v + its in-arc e) of that and sends each parent e / (the same sum);
when the sum is zero the node and its parents split it equally.  Shares
conserve to 1, so the budget is paid out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import DagTopology


@dataclass(frozen=True)
class RewardBaseline:
    """Previous-episode totals used to size the synthetic budget."""

    total_reward: float = 0.0
    goal_periods: float = 1.0

    def __post_init__(self):
        if not self.goal_periods >= 1:  # NaN fails too
            raise ValueError(
                f"goal_periods must be >= 1, got {self.goal_periods}")


def synthetic_budget(q: float, baseline: RewardBaseline) -> float:
    """Budget M = q * R/N from the previous episode; floored at 0.

    Negative episode totals (cost-dominated runs) would otherwise flip the
    synthetic rewards negative, which the share table forbids.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q={q} outside [0,1]")
    return max(0.0, q * baseline.total_reward / baseline.goal_periods)


@dataclass(frozen=True)
class RgdOutput:
    """One period's distributor decision: per-node and per-arc values.

    arc_values align with topology.arcs (task orientation); entry (u,v) is
    the weight used when v splits its share back toward u.  Values are
    clamped into [0,1] so the "all zero" fallbacks compare against exact 0.
    """

    node_values: np.ndarray
    arc_values: np.ndarray

    def __post_init__(self):
        for name in ("node_values", "arc_values"):
            object.__setattr__(self, name, np.clip(np.asarray(
                getattr(self, name), dtype=np.float64), 0.0, 1.0))


@dataclass(frozen=True)
class ShareTable:
    """Final budget shares, per node and per arc.  arc_share aligns with
    topology.arcs; entry k is the share that arcs[k] = (u, v) carried from v
    back to u."""

    node_share: np.ndarray
    arc_share: np.ndarray


def distribute(topology: DagTopology, output: RgdOutput,
               budget: float) -> tuple[ShareTable, np.ndarray]:
    """Propagates shares from sinks to sources and pays out the budget.

    Returns (share table, synthetic rewards sr = node_share * budget).
    """
    if budget < 0.0:
        raise ValueError(f"budget {budget} must be >= 0")
    v, e = output.node_values, output.arc_values
    if v.shape != (topology.node_count,):
        raise ValueError(f"expected {topology.node_count} node values")
    if e.shape != (len(topology.arcs),):
        raise ValueError(f"expected {len(topology.arcs)} arc values")

    sinks = topology.sinks
    sink_total = sum(v[sinks])
    node_share = np.zeros(topology.node_count)
    arc_share = np.zeros(len(topology.arcs))
    for i in reversed(topology.topological_order):
        # every task-successor has already split and sent back its piece
        children = topology.successors(i)
        if children:
            share = sum(arc_share[topology.arc_index[(i, k)]]
                        for k in children)
        elif sink_total > 0.0:
            share = v[i] / sink_total
        else:
            share = 1.0 / len(sinks)
        into = [topology.arc_index[(j, i)] for j in topology.predecessors(i)]
        # the in-arc values are summed first, as Python floats: every
        # seeded run's bytes depend on this order
        denom = v[i] + sum(e[into].tolist())
        if denom > 0.0:
            node_share[i] = share * v[i] / denom
            arc_share[into] = share * e[into] / denom
        else:
            node_share[i] = arc_share[into] = share / (1 + len(into))
    return ShareTable(node_share, arc_share), node_share * budget
