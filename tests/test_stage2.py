"""Stage 2 has one definition: every route reports the stage-2 bridges
and a float disruption for its partition."""

import pytest

from gridtree import oracle, steiner
from gridtree.bnb import solve_builtin
from gridtree.coherency import CoherencyGroups
from gridtree.milp import SolverBridge, solve_via_bridge
from gridtree.network import Partition, disruption
from gridtree.solution import partition_solution
from gridtree.twostage import two_stage

from conftest import BRIDGE_CMD, build_net


@pytest.fixture
def path_net():
    """A 4-bus path: any 2-split is a tree partition that switches nothing."""
    net = build_net(4, [(0, 1), (1, 2), (2, 3)], flows=[70.0, 10.0, -30.0], gen_buses=(0, 3))
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([3])), k=2)
    return net, groups


def test_zero_disruption_is_a_float_on_every_route(path_net):
    net, groups = path_net
    fixings = steiner.build_fixings(net, [steiner.steiner_tree(net, g) for g in groups.groups])
    bridge = SolverBridge(command=BRIDGE_CMD, timeout_s=60)
    solutions = {
        "milp": solve_builtin(net, groups)[0],
        "ssr": solve_builtin(net, groups, ssr=fixings)[0],
        "oracle": oracle.enumerate_optimal(net, groups),
        "two-stage": two_stage(net, groups),
        "bridge": solve_via_bridge(net, groups, bridge),
    }
    for route, sol in solutions.items():
        assert sol.switched == frozenset(), route
        assert type(sol.disruption_mw) is float and sol.disruption_mw == 0.0, route


def test_partition_solution_is_the_stage2_closed_form(four_cycle):
    net, _groups = four_cycle
    # clusters {0, 1} and {2, 3}: cross lines 1-2 (|flow| 1) and 0-3 (|flow| 4)
    sol = partition_solution(net, Partition((1, 1, 2, 2), 2), "TEST", 1.5)
    assert sol.retained_bridges == {3} and sol.switched == {1}
    assert sol.disruption_mw == disruption(net, [1]) == 1.0
    assert (sol.method, sol.runtime_s) == ("TEST", 1.5)


def test_disruption_sums_in_line_id_order():
    # 1e16 + 1 rounds back to 1e16, so the summation order shows
    net = build_net(4, [(0, 1), (1, 2), (2, 3)], flows=[1e16, 1.0, -1.0])
    assert disruption(net, [1, 2, 0]) == (1e16 + 1.0) + 1.0 != (1.0 + 1.0) + 1e16
    assert type(disruption(net, [])) is float
