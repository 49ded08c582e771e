"""Model construction, LP text round trips, and the solver bridge."""

from types import SimpleNamespace

import numpy as np
import pytest

from gridtree import milpsolve, oracle
from gridtree.coherency import CoherencyGroups
from gridtree.errors import (
    BridgeError,
    InfeasibleError,
    ModelBuildError,
    SolverTimeout,
)
from gridtree.milp import (
    MilpModel,
    SolverBridge,
    build_model,
    decode_values,
    parse_lp,
    run_bridge,
    solution_to_values,
    solve_via_bridge,
    write_lp,
)
from gridtree.steiner import build_fixings, steiner_tree

from conftest import BRIDGE_CMD, build_net, random_connected_net, random_groups

GOLDEN_TOY_LP = (
    "\\ toy\n"
    "Minimize\n"
    " obj: 3 a + b + 4\n"
    "Subject To\n"
    " limit: a - 2 b <= 1\n"
    "Bounds\n"
    " 0 <= b <= 2.5\n"
    "Binary\n"
    " a\n"
    "End\n"
)


def toy_model():
    m = MilpModel(name="toy")
    m.add_variable("a", "binary")
    m.add_variable("b", "continuous", 0.0, 2.5)
    m.add_constraint("limit", [(1.0, "a"), (-2.0, "b")], "<=", 1.0)
    m.set_objective([(3.0, "a"), (1.0, "b")], constant=4.0)
    return m


def test_variable_counts(four_cycle):
    net, groups = four_cycle
    model = build_model(net, groups)
    n, m, k = net.n, net.m, groups.k
    assert model.binary_count() == n * k + m * (k + 2)
    assert model.continuous_count() == m
    assert model.binary_count() == 24 and model.continuous_count() == 4


def test_golden_lp_text():
    assert write_lp(toy_model()) == GOLDEN_TOY_LP


def test_lp_round_trip_toy():
    model = toy_model()
    assert parse_lp(write_lp(model)) == model


def test_lp_round_trip_full_model(four_cycle):
    net, groups = four_cycle
    model = build_model(net, groups)
    assert parse_lp(write_lp(model)) == model


def test_lp_export_idempotent_on_real_flows():
    # flows are arbitrary doubles: the 12-digit export is stable under
    # a parse/re-export cycle even when exact model equality cannot hold
    from pathlib import Path

    from gridtree import coherency, dcflow
    from gridtree.network import parse_case

    from conftest import CASES_DIR

    net = parse_case((CASES_DIR / "net057.m").read_text())
    net = dcflow.with_flows(net, dcflow.solve_dc(net, 0, dcflow.balanced_injections(net)))
    groups = coherency.slow_coherency(net, 2)
    model = build_model(net, groups)
    first = write_lp(model)
    second = write_lp(parse_lp(first))
    assert first.splitlines()[1:] == second.splitlines()[1:]  # header carries the model name


def test_valid_solution_satisfies_all_constraints(four_cycle):
    net, groups = four_cycle
    model = build_model(net, groups)
    sol = oracle.enumerate_optimal(net, groups)
    values = solution_to_values(net, sol)
    assert model.constraint_violations(values) == []
    assert model.objective_value(values) == pytest.approx(sol.disruption_mw)


def test_valid_solutions_satisfy_constraints_random():
    rng = np.random.default_rng(97)
    for _ in range(10):
        net = random_connected_net(rng, 7, 4)
        groups = random_groups(rng, net, 2)
        model = build_model(net, groups)
        try:
            sol = oracle.enumerate_optimal(net, groups)
        except InfeasibleError:
            continue
        values = solution_to_values(net, sol)
        assert model.constraint_violations(values) == []


def test_decode_defaults_missing_binaries_to_zero(four_cycle):
    net, groups = four_cycle
    sol = oracle.enumerate_optimal(net, groups)
    values = solution_to_values(net, sol)
    for name in [k for k, v in values.items() if k.startswith("z_") and v == 0.0]:
        del values[name]
    decoded = decode_values(net, groups, values)
    assert decoded.switched == sol.switched
    assert decoded.partition.assignment == sol.partition.assignment


def test_conflicting_fixings_raise(four_cycle):
    net, _ = four_cycle
    # bus 0 claimed by both groups via an ssr fix that contradicts coherency
    from gridtree.steiner import SteinerFixings

    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([2])), k=2)
    ssr = SteinerFixings(bus_fix={0: 2}, edge_fix={})
    with pytest.raises(ModelBuildError):
        build_model(net, groups, ssr=ssr)


def test_ssr_fixings_appear_as_bounds(four_cycle):
    net, groups = four_cycle
    trees = [steiner_tree(net, sorted(g)) for g in groups.groups]
    fx = build_fixings(net, trees)
    model = build_model(net, groups, ssr=fx)
    fixed = [v for v in model.variables if v.kind == "binary" and v.lb == v.ub == 1.0]
    assert len(fixed) >= len(fx.bus_fix) + len(fx.edge_fix)


@pytest.fixture(scope="module")
def bridge():
    return SolverBridge(command=BRIDGE_CMD, timeout_s=120)


def test_bridge_solves_four_cycle(bridge, four_cycle):
    net, groups = four_cycle
    sol = solve_via_bridge(net, groups, bridge)
    assert sol.disruption_mw == pytest.approx(1.0)
    assert sol.method == "MILP"


def test_bridge_reports_infeasible(bridge):
    # path 0-1-2 with one group needing {0,2} and the other {1}: no valid
    # partition can make cluster 1 connected
    net = build_net(3, [(0, 1), (1, 2)], gen_buses=(0, 1, 2))
    groups = CoherencyGroups(groups=(frozenset({0, 2}), frozenset({1})), k=2)
    with pytest.raises(InfeasibleError):
        solve_via_bridge(net, groups, bridge)


def test_bridge_rejects_bad_template():
    with pytest.raises(ModelBuildError):
        SolverBridge(command="solver only-model {model}")


def test_bridge_nonzero_exit_raises(four_cycle):
    net, groups = four_cycle
    bad = SolverBridge(command="python3 -c \"import sys; sys.exit(3)\" {model} {solution}")
    with pytest.raises(BridgeError):
        solve_via_bridge(net, groups, bad)


def test_bridge_missing_solver_raises(four_cycle):
    net, groups = four_cycle
    gone = SolverBridge(command="definitely-not-a-solver-binary {model} {solution}")
    with pytest.raises(BridgeError):
        solve_via_bridge(net, groups, gone)


def test_bridge_invalid_solution_rejected(four_cycle, tmp_path):
    # a "solver" that claims optimality but returns garbage values
    net, groups = four_cycle
    script = tmp_path / "fake.py"
    script.write_text(
        "import sys\n"
        "open(sys.argv[2], 'w').write('# status optimal\\nx_0_1 1\\nx_0_2 1\\n')\n"
    )
    fake = SolverBridge(command=f"python3 {script} {{model}} {{solution}}")
    with pytest.raises(BridgeError):
        solve_via_bridge(net, groups, fake)


def test_run_bridge_parses_status_and_values(bridge):
    model = toy_model()
    values, status = run_bridge(model, bridge)
    assert status == "optimal"
    assert values["a"] == pytest.approx(0.0)
    assert values["b"] == pytest.approx(0.0)


def test_parse_lp_rejects_unsupported():
    with pytest.raises(BridgeError):
        parse_lp("Minimize\n obj: x\nSubject To\n c: x >= 1 <= 2\nEnd\n")


@pytest.mark.parametrize(
    "flags,options",
    [(["--gap", "0"], {"mip_rel_gap": 0.0}), (["--gap", "1e-3"], {"mip_rel_gap": 1e-3}), ([], {})],
)
def test_milpsolve_passes_gap_option(monkeypatch, tmp_path, flags, options):
    seen = {}

    def fake_milp(**kwargs):
        seen.update(kwargs["options"])
        return SimpleNamespace(status=0, x=np.zeros(2))

    monkeypatch.setattr(milpsolve, "milp", fake_milp)
    model_path = tmp_path / "toy.lp"
    model_path.write_text(write_lp(toy_model()))
    assert milpsolve.main([str(model_path), str(tmp_path / "toy.sol"), *flags]) == 0
    assert seen == options


def test_milpsolve_rejects_negative_gap(tmp_path):
    model_path = tmp_path / "toy.lp"
    model_path.write_text(write_lp(toy_model()))
    with pytest.raises(SystemExit) as exc:
        milpsolve.main([str(model_path), str(tmp_path / "toy.sol"), "--gap", "-0.1"])
    assert exc.value.code == 2
