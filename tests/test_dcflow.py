"""DC power flow, disruption metric, and bridge-based DC-OPF."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gridtree import dcflow
from gridtree.dcflow import GenCost, balanced_injections, disruption, solve_dc, with_flows
from gridtree.errors import InfeasibleError, NetworkValidationError, UnsupportedOperation
from gridtree.milp import SolverBridge
from gridtree.network import parse_case

from conftest import BRIDGE_CMD, CASES_DIR, build_net, random_connected_net


def test_two_bus_single_path():
    net = build_net(2, [(0, 1)], injections=[100.0, -100.0], susceptances=[10.0])
    sol = solve_dc(net, 0)
    assert sol.flows_mw[0] == pytest.approx(100.0)
    assert sol.theta[0] == 0.0


def test_three_cycle_split_matches_hand_solution():
    # equal susceptances, p = (+100, -100, 0): 2x2 system solved by hand
    net = build_net(3, [(0, 1), (1, 2), (0, 2)], injections=[100.0, -100.0, 0.0])
    sol = solve_dc(net, 0)
    assert sol.flows_mw[0] == pytest.approx(200.0 / 3.0)
    assert sol.flows_mw[1] == pytest.approx(-100.0 / 3.0)
    assert sol.flows_mw[2] == pytest.approx(100.0 / 3.0)


def test_flow_balance_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        net = random_connected_net(rng, n, int(rng.integers(0, 6)))
        inj = rng.uniform(-40, 40, size=n)
        inj[0] -= inj.sum()
        sol = solve_dc(net, 0, inj)
        recovered = np.zeros(n)
        for ln, f in zip(net.lines, sol.flows_mw):
            recovered[ln.from_bus] += f
            recovered[ln.to_bus] -= f
        assert np.allclose(recovered, inj, atol=1e-7)


def _sparse_reference_flows(net, slack, injections_mw):
    """MW line flows from a SuperLU solve of the reduced sparse Laplacian."""
    rows, cols, vals = [], [], []
    for ln in net.lines:
        i, j, b = ln.from_bus, ln.to_bus, ln.susceptance
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [b, b, -b, -b]
    lap = sp.csc_matrix((vals, (rows, cols)), shape=(net.n, net.n))
    keep = np.arange(net.n) != slack
    theta = np.zeros(net.n)
    theta[keep] = spla.spsolve(lap[keep][:, keep], np.asarray(injections_mw)[keep] / net.base_mva)
    return np.array([net.base_mva * ln.susceptance * (theta[ln.from_bus] - theta[ln.to_bus])
                     for ln in net.lines])


def _bundled_and_random_instances():
    for path in sorted(CASES_DIR.glob("*.m")):
        net = parse_case(path.read_text())
        yield path.stem, net, 0, balanced_injections(net)
    rng = np.random.default_rng(2024)
    for i in range(200):
        n = int(rng.integers(2, 41))
        net = random_connected_net(rng, n, int(rng.integers(0, n + 1)))
        yield f"random{i}", net, int(rng.integers(0, n)), rng.uniform(-50, 50, size=n)


def test_dense_solve_matches_sparse_reference():
    # the dense LU and SuperLU differ only in rounding: within 1e-12 relative
    for name, net, slack, inj in _bundled_and_random_instances():
        got = np.array(solve_dc(net, slack, inj).flows_mw)
        ref = _sparse_reference_flows(net, slack, inj)
        bound = 1e-12 * np.abs(ref).max() + 1e-12
        assert np.abs(got - ref).max() <= bound, name


def test_slack_invariance_of_flows():
    rng = np.random.default_rng(17)
    net = random_connected_net(rng, 10, 5)
    inj = rng.uniform(-30, 30, size=10)
    inj[0] -= inj.sum()
    base = solve_dc(net, 0, inj)
    for slack in (3, 7):
        other = solve_dc(net, slack, inj)
        assert np.allclose(other.flows_mw, base.flows_mw, atol=1e-8)
        shift = np.array(other.theta) - np.array(base.theta)
        assert np.allclose(shift, shift[0], atol=1e-10)


def test_imbalance_absorbed_at_slack():
    net = build_net(2, [(0, 1)], injections=[100.0, -80.0])
    sol = solve_dc(net, 0)  # slack row dropped: bus 1 fixes the flow
    assert sol.flows_mw[0] == pytest.approx(80.0)


def test_disconnected_network_raises():
    net = build_net(4, [(0, 1), (2, 3)])
    with pytest.raises(NetworkValidationError):
        solve_dc(net, 0)


def test_disruption_values():
    net = build_net(3, [(0, 1), (1, 2)], flows=[-50.0, 20.0])
    assert disruption(net, []) == 0.0
    assert disruption(net, [0]) == pytest.approx(50.0)
    assert disruption(net, [0, 1]) == pytest.approx(70.0)


def test_balanced_injections_rescale_generation():
    net = build_net(3, [(0, 1), (1, 2)], injections=[0.0, 0.0, 0.0])
    buses = list(net.buses)
    from dataclasses import replace

    buses[0] = replace(buses[0], is_generator=True, gen_mw=200.0, load_mw=0.0)
    buses[1] = replace(buses[1], gen_mw=0.0, load_mw=60.0)
    buses[2] = replace(buses[2], gen_mw=0.0, load_mw=40.0)
    net = replace(net, buses=tuple(buses))
    inj = balanced_injections(net)
    assert inj.sum() == pytest.approx(0.0)
    assert inj[0] == pytest.approx(100.0)


def test_with_flows_requires_matching_length():
    net = build_net(2, [(0, 1)])
    sol = solve_dc(net, 0)
    with pytest.raises(NetworkValidationError):
        with_flows(build_net(3, [(0, 1), (1, 2)]), sol)


# ---------------------------------------------------------------------------
# DC-OPF through the solver bridge
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bridge():
    return SolverBridge(command=BRIDGE_CMD, timeout_s=120)


def test_dcopf_requires_bridge():
    net = build_net(2, [(0, 1)], gen_buses=(0,))
    with pytest.raises(UnsupportedOperation):
        dcflow.solve_dcopf_via_bridge(net, [GenCost(bus_id=1, cost_per_mw=1.0)], None)


def test_dcopf_forced_dispatch_equals_solve_dc(bridge):
    net = build_net(2, [(0, 1)], injections=[100.0, -100.0], gen_buses=(0,))
    sol = dcflow.solve_dcopf_via_bridge(
        net, [GenCost(bus_id=1, cost_per_mw=3.0, pmax=200.0)], bridge
    )
    plain = solve_dc(net, 0)
    assert sol.flows_mw[0] == pytest.approx(plain.flows_mw[0], abs=1e-6)


def test_dcopf_cheap_generator_serves_everything(bridge):
    # gens at both ends, load in the middle, no ratings: cheap one wins
    net = build_net(
        3, [(0, 1), (1, 2)], injections=[0.0, -150.0, 0.0], gen_buses=(0, 2)
    )
    sol = dcflow.solve_dcopf_via_bridge(
        net,
        [
            GenCost(bus_id=1, cost_per_mw=1.0, pmax=300.0),
            GenCost(bus_id=3, cost_per_mw=10.0, pmax=300.0),
        ],
        bridge,
    )
    assert sol.flows_mw[0] == pytest.approx(150.0, abs=1e-6)  # all from the cheap end
    assert sol.flows_mw[1] == pytest.approx(0.0, abs=1e-6)  # expensive end idle


def test_dcopf_binding_rating_matches_lp_vertex(bridge):
    # triangle with one rated line; optimum sits at the hand-derived vertex
    net = build_net(
        3,
        [(0, 1), (1, 2), (0, 2)],
        injections=[0.0, -100.0, 0.0],
        gen_buses=(0, 2),
    )
    from dataclasses import replace

    lines = list(net.lines)
    lines[0] = replace(lines[0], capacity_mw=40.0)
    net = replace(net, lines=tuple(lines))
    sol = dcflow.solve_dcopf_via_bridge(
        net,
        [
            GenCost(bus_id=1, cost_per_mw=1.0, pmax=500.0),
            GenCost(bus_id=3, cost_per_mw=5.0, pmax=500.0),
        ],
        bridge,
    )
    # enumerating the 2-variable LP vertices: g1 = 20, g3 = 80, line 0 binding
    assert sol.flows_mw[0] == pytest.approx(40.0, abs=1e-6)
    implied_g1 = sol.flows_mw[0] + sol.flows_mw[2]
    assert implied_g1 == pytest.approx(20.0, abs=1e-6)


def test_dcopf_infeasible_surfaces(bridge):
    net = build_net(2, [(0, 1)], injections=[0.0, -100.0], gen_buses=(0,))
    with pytest.raises(InfeasibleError):
        dcflow.solve_dcopf_via_bridge(
            net, [GenCost(bus_id=1, cost_per_mw=1.0, pmax=50.0)], bridge
        )
