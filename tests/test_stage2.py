"""Stage 2 has one definition: every route reports the stage-2 bridges
and a float disruption for its partition."""

from dataclasses import replace

import numpy as np
import pytest

from gridtree import oracle, steiner
from gridtree.bnb import solve_builtin
from gridtree.coherency import CoherencyGroups
from gridtree.milp import SolverBridge, solve_via_bridge
from gridtree.network import Partition, disruption
from gridtree.solution import partition_solution
from gridtree.twostage import two_stage

from conftest import BRIDGE_CMD, build_net, random_connected_net, random_groups


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


# seeds whose instances are feasible; at 2, 8, 9 and 11 the solver's z
# values keep other tied bridges than stage 2 would
TIED_SEEDS = (0, 2, 3, 4, 8, 9, 10, 11)


@pytest.mark.parametrize("seed", TIED_SEEDS)
def test_bridge_answer_is_the_stage2_answer_of_its_partition(seed):
    rng = np.random.default_rng(seed)
    net = random_connected_net(rng, 8, 5)
    flows = rng.integers(0, 2, size=net.m)  # 0 or 1 MW: many tied spanning trees
    net = replace(net, lines=tuple(replace(ln, flow_mw=float(f)) for ln, f in zip(net.lines, flows)))
    groups = random_groups(rng, net, 3)
    sol = solve_via_bridge(net, groups, SolverBridge(command=BRIDGE_CMD, timeout_s=60))
    ref = partition_solution(net, sol.partition, sol.method, sol.runtime_s)
    assert (sol.switched, sol.retained_bridges, sol.disruption_mw) == (
        ref.switched, ref.retained_bridges, ref.disruption_mw)
