"""Synthetic-reward budgeting and share propagation over the task DAG.

A generator picks a fraction q of the per-period baseline budget; a
distributor emits node values and arc values in [0,1].  Sink nodes receive
initial shares proportional to their node values, then every node splits its
accumulated share between itself and its task-predecessors, proportionally
to (node value : arc values).  Shares conserve to 1, so the budget is paid
out exactly.
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
    """One period's distributor decision: q, per-node and per-arc values.

    arc_values align with topology.arcs (task orientation); entry (u,v) is
    the weight used when v splits its share back toward u.  Values are
    clamped into [0,1] so the "all zero" fallbacks compare against exact 0.
    """

    q: float
    node_values: np.ndarray
    arc_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "node_values",
                           np.clip(np.asarray(self.node_values, dtype=np.float64),
                                   0.0, 1.0))
        object.__setattr__(self, "arc_values",
                           np.clip(np.asarray(self.arc_values, dtype=np.float64),
                                   0.0, 1.0))
        object.__setattr__(self, "q", float(min(max(self.q, 0.0), 1.0)))


@dataclass(frozen=True)
class ShareTable:
    """Final budget shares, per node and per arc.  arc_share aligns with
    topology.arcs; entry k is the share that arcs[k] = (u, v) carried from v
    back to u."""

    node_share: np.ndarray
    arc_share: np.ndarray


def sink_initial_shares(topology: DagTopology, node_values) -> dict:
    """Sink shares proportional to node values; uniform when all zero."""
    v = np.clip(np.asarray(node_values, dtype=np.float64), 0.0, 1.0)
    if v.shape != (topology.node_count,):
        raise ValueError(f"expected {topology.node_count} node values")
    sinks = topology.sinks
    total = float(sum(v[k] for k in sinks))
    if total > 0.0:
        return {k: float(v[k]) / total for k in sinks}
    return {k: 1.0 / len(sinks) for k in sinks}


def split_share(initial_share: float, node_value: float, arc_values) -> tuple:
    """Splits one node's accumulated share between itself and its parents.

    Proportional to (node_value : arc_values); an all-zero denominator falls
    back to a uniform (1 + n_parents)-way split of the share so nothing is
    lost.  Returns (self_share, [arc shares in input order]).
    """
    arc_values = [float(e) for e in arc_values]
    denom = float(node_value) + sum(arc_values)
    if denom > 0.0:
        self_share = initial_share * float(node_value) / denom
        sent = [initial_share * e / denom for e in arc_values]
    else:
        piece = initial_share / (1.0 + len(arc_values))
        self_share = piece
        sent = [piece] * len(arc_values)
    return self_share, sent


def distribute(topology: DagTopology, output: RgdOutput,
               budget: float) -> tuple[ShareTable, np.ndarray]:
    """Propagates shares from sinks to sources and pays out the budget.

    Returns (share table, synthetic rewards sr = node_share * budget).
    """
    if budget < 0.0:
        raise ValueError(f"budget {budget} must be >= 0")
    n = topology.node_count
    if output.node_values.shape != (n,):
        raise ValueError(f"expected {n} node values")
    if output.arc_values.shape != (len(topology.arcs),):
        raise ValueError(f"expected {len(topology.arcs)} arc values")

    initial = np.zeros(n)
    for k, share in sink_initial_shares(topology, output.node_values).items():
        initial[k] = share

    node_share = np.zeros(n)
    arc_share = np.zeros(len(topology.arcs))
    for i in reversed(topology.topological_order):
        children = topology.successors(i)
        if children:
            # every task-successor has already split and deposited its piece
            initial[i] = sum(arc_share[topology.arc_index[(i, k)]]
                             for k in children)
        into = [topology.arc_index[(j, i)] for j in topology.predecessors(i)]
        node_share[i], arc_share[into] = split_share(
            initial[i], output.node_values[i], output.arc_values[into])

    return ShareTable(node_share, arc_share), node_share * budget
