"""DC power flow and the disruption metric."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gridtree import dcflow
from gridtree.dcflow import balanced_injections, solve_dc, with_flows
from gridtree.errors import NetworkValidationError
from gridtree.network import Line, Network, disruption, is_connected, parse_case

from conftest import CASES_DIR, build_net, random_connected_net


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


def _reference_laplacian(net):
    """The Laplacian as np.add.at assembles it, entry by entry in line order."""
    rows, cols, vals = [], [], []
    for ln in net.lines:
        i, j, b = ln.from_bus, ln.to_bus, ln.susceptance
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [b, b, -b, -b]
    lap = np.zeros((net.n, net.n))
    np.add.at(lap, (rows, cols), vals)
    return lap


def test_laplacian_bytes_match_an_add_at_assembly():
    nets = [parse_case(path.read_text()) for path in sorted(CASES_DIR.glob("*.m"))]
    rng = np.random.default_rng(5)
    for _ in range(30):
        net = random_connected_net(rng, int(rng.integers(1, 25)), int(rng.integers(0, 12)))
        # shuffled line order and flipped ends change the order of each sum
        lines = [net.lines[i] for i in rng.permutation(net.m)]
        lines = [Line(ln.id, ln.to_bus, ln.from_bus, ln.susceptance) if rng.random() < 0.5 else ln
                 for ln in lines]
        nets.append(Network(buses=net.buses, lines=tuple(lines), base_mva=net.base_mva))
    for net in nets:
        got, want = dcflow.laplacian(net), _reference_laplacian(net)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_injection_names_its_bus(bad):
    net = parse_case((CASES_DIR / "demo9.m").read_text())
    inj = balanced_injections(net)
    inj[4] = bad
    with pytest.raises(NetworkValidationError,
                       match=rf"^injection at bus 5 must be finite, got {bad!r}$"):
        solve_dc(net, 0, inj)


def test_flows_match_the_per_line_formula_bytes():
    # the array expression in solve_dc gives the per-line formula's exact bytes
    for path in sorted(CASES_DIR.glob("*.m")):
        net = parse_case(path.read_text())
        sol = solve_dc(net, 0, balanced_injections(net))
        want = [net.base_mva * ln.susceptance * (sol.theta[ln.from_bus] - sol.theta[ln.to_bus])
                for ln in net.lines]
        assert sol.flows_mw == tuple(want), path.stem


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


def test_with_flows_shares_the_validated_topology():
    net = parse_case((CASES_DIR / "net030.m").read_text())
    sol = solve_dc(net, 0, balanced_injections(net))
    flowed = with_flows(net, sol)
    fresh = Network(buses=net.buses, lines=flowed.lines, base_mva=net.base_mva)
    assert flowed == fresh
    assert tuple(ln.flow_mw for ln in flowed.lines) == sol.flows_mw
    assert flowed.incident is net.incident and flowed.incident == fresh.incident
    assert flowed.index_of(net.buses[7].id) == fresh.index_of(net.buses[7].id) == 7
    assert is_connected(flowed) and is_connected(fresh)
    assert dcflow.laplacian(flowed).tobytes() == dcflow.laplacian(fresh).tobytes()
    # flows are not topology: the id-to-line map is the flowed network's own
    assert flowed.line_by_id[0] is flowed.lines[0]


@pytest.mark.parametrize("bad, message", [
    (Line(2, 1, 1, 1.0), "self-loop on bus index 1"),
    (Line(2, 1, 3, 1.0), "line 2 references unknown bus index"),
    (Line(2, 0, 2, 0.0), "line 2 has non-positive susceptance"),
    (Line(2, 1, 0, 1.0), r"parallel lines between bus indices \(0, 1\)"),
    (Line(1, 0, 2, 1.0), "duplicate line ids"),
])
def test_a_network_built_from_lines_still_validates_them(bad, message):
    net = build_net(3, [(0, 1), (1, 2)])
    flowed = with_flows(net, solve_dc(net, 0))
    with pytest.raises(NetworkValidationError, match=f"^{message}$"):
        Network(buses=flowed.buses, lines=(*flowed.lines, bad), base_mva=flowed.base_mva)
