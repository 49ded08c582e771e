"""Failure localization: internal outages in a tree-partitioned network must
not move flows outside their own cluster (DC exactness)."""

import numpy as np
import pytest

from gridtree import dcflow
from gridtree.coherency import CoherencyGroups
from gridtree.network import Partition, max_weight_spanning_tree, reduced_graph
from gridtree.solution import METHOD_ORACLE, TreePartitionSolution

from conftest import build_net, flow_consistent_net


def random_tree_partition(rng, net, k):
    """Region-grown connected partition with its optimal bridge retention."""
    seeds = rng.choice(net.n, size=k, replace=False).tolist()
    assignment = [0] * net.n
    frontiers = []
    for r, s in enumerate(seeds, start=1):
        assignment[s] = r
        frontiers.append([s])
    remaining = net.n - k
    while remaining:
        r = int(rng.integers(1, k + 1))
        if not frontiers[r - 1]:
            continue
        bus = frontiers[r - 1][int(rng.integers(0, len(frontiers[r - 1])))]
        nxt = [o for _lid, o in net.incident[bus] if assignment[o] == 0]
        if not nxt:
            frontiers[r - 1].remove(bus)
            if not any(frontiers):
                break
            continue
        pick = nxt[int(rng.integers(0, len(nxt)))]
        assignment[pick] = r
        frontiers[r - 1].append(pick)
        remaining -= 1
    if remaining:
        return None
    partition = Partition(tuple(assignment), k)
    rg = reduced_graph(net, partition)
    retained, switched = max_weight_spanning_tree(rg)
    weight = {e.line_id: e.weight for e in rg.edges}
    return TreePartitionSolution(
        partition=partition,
        switched=switched,
        retained_bridges=retained,
        disruption_mw=sum(weight[lid] for lid in sorted(switched)),
        method=METHOD_ORACLE,
    )


def test_internal_outage_stays_inside_cluster():
    rng = np.random.default_rng(151)
    checked = 0
    for _ in range(10):
        net, _ = flow_consistent_net(rng, int(rng.integers(8, 14)), int(rng.integers(3, 7)))
        sol = random_tree_partition(rng, net, 2)
        if sol is None:
            continue
        assign = sol.partition.assignment
        post_lines = [ln for ln in net.lines if ln.id not in sol.switched]
        for ln in post_lines:
            if assign[ln.from_bus] != assign[ln.to_bus]:
                continue
            report = dcflow.check_localization(net, sol, ln.id)
            assert report.outcome in ("pass", "islanding")
            if report.outcome == "pass":
                checked += 1
                assert report.max_outside_delta_mw < 1e-6
    assert checked >= 10


def test_retained_bridge_removal_reports_islanding():
    rng = np.random.default_rng(163)
    net, _ = flow_consistent_net(rng, 10, 4)
    sol = random_tree_partition(rng, net, 2)
    assert sol is not None
    bridge_line = next(iter(sol.retained_bridges))
    report = dcflow.check_localization(net, sol, bridge_line)
    assert report.outcome == "islanding"


def test_meshed_non_tree_partition_leaks_flow():
    # two triangles joined by two connectors: removal of an internal line
    # redistributes flow through the other cluster
    net = build_net(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (0, 5)],
        injections=[80.0, -30.0, -10.0, -25.0, -10.0, -5.0],
    )
    sol_dc = dcflow.solve_dc(net, 0)
    net = dcflow.with_flows(net, sol_dc)
    partition = Partition((1, 1, 1, 2, 2, 2), 2)
    fake = TreePartitionSolution(
        partition=partition,
        switched=frozenset(),
        retained_bridges=frozenset(e.line_id for e in reduced_graph(net, partition).edges),
        disruption_mw=0.0,
        method=METHOD_ORACLE,
    )
    report = dcflow.check_localization(net, fake, 0)
    assert report.outcome == "fail"
    assert report.max_outside_delta_mw > 1e-3
