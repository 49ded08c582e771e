"""Built-in exact solver against the enumeration oracle and the bridge."""

from dataclasses import replace

import numpy as np
import pytest

from gridtree import coherency, oracle, steiner
from gridtree.bnb import solve_builtin
from gridtree.coherency import CoherencyGroups
from gridtree.errors import BudgetError, InfeasibleError
from gridtree.milp import SolverBridge, solve_via_bridge
from gridtree.solution import validate_solution

from conftest import BRIDGE_CMD, build_net, case_net, random_connected_net, random_groups


def test_four_cycle_optimum(four_cycle):
    net, groups = four_cycle
    sol, stats = solve_builtin(net, groups)
    assert sol.disruption_mw == pytest.approx(1.0)
    assert stats.proved_optimal
    assert stats.incumbent_mw == sol.disruption_mw
    assert stats.best_bound <= stats.incumbent_mw
    want = oracle.enumerate_optimal(net, groups)
    assert sol.partition.assignment == want.partition.assignment


def test_path_graph_any_split_is_free():
    net = build_net(6, [(i, i + 1) for i in range(5)], flows=[3, 1, 4, 1, 5],
                    gen_buses=(0, 5))
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([5])), k=2)
    sol, stats = solve_builtin(net, groups)
    assert sol.disruption_mw == 0.0
    assert sol.switched == frozenset()


def _check_against_oracle(net, groups):
    try:
        want = oracle.enumerate_optimal(net, groups)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_builtin(net, groups)
        return
    got, stats = solve_builtin(net, groups)
    assert stats.proved_optimal
    assert got.disruption_mw == want.disruption_mw  # exact float equality
    assert got.partition.assignment == want.partition.assignment
    assert got.switched == want.switched


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(113)
    for _ in range(30):
        n = int(rng.integers(5, 10))
        net = random_connected_net(rng, n, int(rng.integers(1, 6)))
        k = int(rng.integers(2, 4))
        _check_against_oracle(net, random_groups(rng, net, k))


@pytest.mark.parametrize("unit_mw", [False, True], ids=["real", "unit-mw-ties"])
@pytest.mark.parametrize("k", [4, 5])
def test_matches_oracle_with_many_clusters(k, unit_mw):
    # With k-1 >= 3 bridges the spanning-forest credit of the bound differs
    # from the k-1 heaviest lines on most of these instances.  Singleton groups
    # keep every instance feasible; flows of -1, 0 or 1 MW make many leaves tie
    # the optimum, and pruning must keep them for the tie-break (the k=5 set
    # holds one whose smallest optimal assignment is found after another).
    rng = np.random.default_rng(400 + k)
    for _ in range(20):
        n = int(rng.integers(k + 3, k + 7))
        net = random_connected_net(rng, n, int(rng.integers(3, 10)))
        if unit_mw:
            lines = tuple(replace(ln, flow_mw=float(round(ln.flow_mw / 7))) for ln in net.lines)
            net = replace(net, lines=lines)
        _check_against_oracle(net, random_groups(rng, net, k, max_size=1))


# (case, k) -> (disruption MW, assignment as one cluster digit per bus),
# identical for plain and SSR-reduced search
DESK_OPTIMA = {
    ("net030", 2): (181.55633023677512, "221112211112112222112212222112"),
    ("net030", 3): (139.47273817876467, "333112213112313333332313223113"),
    ("net030", 4): (128.42657789001336, "333142233112343333332333223343"),
    ("net030", 5): (188.80383736905395, "551142213112343553132515223145"),
    ("net057", 2): (38.45727485143948,
                    "222112211122111211111121211111111221111121212112122211212"),
    ("net057", 3): (68.41317617171944,
                    "222112231322131211313323233133313223111121232332122213232"),
    ("net057", 4): (89.5427107170669,
                    "222112241432141211414434244144414334111121243443123214342"),
    ("net057", 5): (95.17058177680342,
                    "255112241432141511414434544144414334111121543443153314345"),
}


@pytest.mark.parametrize("ssr", [False, True], ids=["milp", "ssr"])
@pytest.mark.parametrize("case, k", sorted(DESK_OPTIMA))
def test_desk_optima_are_pinned(case, k, ssr):
    net = case_net(case)
    groups = coherency.slow_coherency(net, k)
    fixings = None
    if ssr:
        fixings = steiner.build_fixings(
            net, [steiner.steiner_tree(net, g) for g in groups.groups]
        )
    sol, stats = solve_builtin(net, groups, ssr=fixings)
    assert stats.proved_optimal
    mw, assignment = DESK_OPTIMA[(case, k)]
    assert sol.disruption_mw == mw
    assert "".join(map(str, sol.partition.assignment)) == assignment


def test_net030_k5_is_proved_within_node_budget():
    # the top-(k-1) line credit needed 826,601 nodes here; the forest bound 15,911
    net = case_net("net030")
    groups = coherency.slow_coherency(net, 5)
    _sol, stats = solve_builtin(net, groups, node_limit=100_000)
    assert stats.proved_optimal
    assert stats.nodes < 100_000


def test_net118_k3_is_proved_within_node_budget():
    # branching over all k clusters of the most-connected bus needed 151,594
    # nodes here; branching fail-first over cluster domains 19,242
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 3)
    _sol, stats = solve_builtin(net, groups, node_limit=40_000)
    assert stats.proved_optimal
    assert stats.nodes < 40_000


def test_infeasible_instance_raises():
    net = build_net(3, [(0, 1), (1, 2)], gen_buses=(0, 1, 2))
    groups = CoherencyGroups(groups=(frozenset({0, 2}), frozenset({1})), k=2)
    with pytest.raises(InfeasibleError):
        solve_builtin(net, groups)


def test_disconnected_network_has_no_tree_partition():
    # every leaf has connected clusters, but no line joins them: the leaf's
    # spanning forest misses the merge, so no leaf may be scored
    net = build_net(4, [(0, 1), (2, 3)], flows=[1.0, 2.0], gen_buses=(0, 2))
    groups = CoherencyGroups(groups=(frozenset({0}), frozenset({2})), k=2)
    with pytest.raises(InfeasibleError):
        oracle.enumerate_optimal(net, groups)
    with pytest.raises(InfeasibleError):
        solve_builtin(net, groups)


def test_component_without_a_cluster_member_is_infeasible():
    # no cluster can reach buses 2-4, so the root's regions leave them uncovered
    net = build_net(5, [(0, 1), (2, 3), (3, 4)], flows=[1.0, 2.0, 3.0], gen_buses=(0, 1))
    groups = CoherencyGroups(groups=(frozenset({0}), frozenset({1})), k=2)
    with pytest.raises(InfeasibleError):
        oracle.enumerate_optimal(net, groups)
    with pytest.raises(InfeasibleError):
        solve_builtin(net, groups)


def test_budget_exhaustion_without_incumbent():
    rng = np.random.default_rng(7)
    net = random_connected_net(rng, 8, 4)
    groups = random_groups(rng, net, 2)
    with pytest.raises(BudgetError):
        solve_builtin(net, groups, node_limit=1)


def test_budget_returns_unproved_incumbent():
    # long path: the first DFS descent reaches a feasible leaf early
    net = build_net(12, [(i, i + 1) for i in range(11)], flows=list(range(1, 12)),
                    gen_buses=(0, 11))
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([11])), k=2)
    sol, stats = solve_builtin(net, groups, node_limit=40)
    assert not stats.proved_optimal
    assert stats.incumbent_mw is not None
    assert stats.best_bound <= stats.incumbent_mw
    validate_solution(net, sol, groups)


def test_equivalence_with_bridge():
    bridge = SolverBridge(command=BRIDGE_CMD, timeout_s=120)
    rng = np.random.default_rng(131)
    for _ in range(5):
        net = random_connected_net(rng, 7, 4)
        groups = random_groups(rng, net, 2)
        try:
            ours, stats = solve_builtin(net, groups)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_via_bridge(net, groups, bridge)
            continue
        theirs = solve_via_bridge(net, groups, bridge)
        assert stats.proved_optimal
        assert ours.disruption_mw == pytest.approx(theirs.disruption_mw, abs=1e-6)


def test_k_one_trivial():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)], flows=[5, 1, 2, 4],
                    gen_buses=(0,))
    groups = CoherencyGroups(groups=(frozenset([0]),), k=1)
    sol, stats = solve_builtin(net, groups)
    assert sol.disruption_mw == 0.0
    assert sol.switched == frozenset()
    assert sol.partition.k == 1
