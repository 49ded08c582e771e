"""Model construction, LP text round trips, and the solver bridge."""

from types import SimpleNamespace

import hashlib

import numpy as np
import pytest

from gridtree import dcflow, milpsolve, oracle
from gridtree.coherency import slow_coherency
from gridtree.coherency import CoherencyGroups
from gridtree.errors import (
    BridgeError,
    GridTreeError,
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
from gridtree.network import parse_case
from gridtree.steiner import SteinerFixings, build_fixings, steiner_tree

from conftest import BRIDGE_CMD, CASES_DIR, build_net, random_connected_net, random_groups

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


def test_decode_reads_only_the_partition(four_cycle):
    net, groups = four_cycle
    sol = oracle.enumerate_optimal(net, groups)
    values = {k: v for k, v in solution_to_values(net, sol).items() if k.startswith("x_")}
    values.update({f"z_{ln.from_bus}_{ln.to_bus}": 0.0 for ln in net.lines})  # all "switched"
    decoded = decode_values(net, groups, values)
    assert (decoded.switched, decoded.retained_bridges, decoded.disruption_mw) == (
        sol.switched, sol.retained_bridges, sol.disruption_mw)


def test_conflicting_fixings_raise(four_cycle):
    net, _ = four_cycle
    # bus 0 claimed by both groups via an ssr fix that contradicts coherency
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([2])), k=2)
    ssr = SteinerFixings(bus_fix={0: 2}, edge_fix={})
    with pytest.raises(ModelBuildError):
        build_model(net, groups, ssr=ssr)


@pytest.mark.parametrize(
    "groups, ssr",
    [
        (CoherencyGroups(groups=(frozenset([0]), frozenset([7])), k=2), None),
        (
            CoherencyGroups(groups=(frozenset([0]), frozenset([2])), k=2),
            SteinerFixings(bus_fix={4: 1}, edge_fix={}),
        ),
    ],
    ids=["group", "ssr"],
)
def test_out_of_range_fixings_raise(four_cycle, groups, ssr):
    net, _ = four_cycle
    with pytest.raises(ModelBuildError, match="out of range"):
        build_model(net, groups, ssr=ssr)


# SHA-256 of the LP text of bundled cases with balanced DC flows and
# slow-coherency groups, without and with SSR fixings.
PINNED_LP_SHA256 = {
    ("net030", 2, False): "4a02655584039ecd3654bedae0efcca89697a6ad4453fe390c7cca12dcfe108f",
    ("net030", 2, True): "9cd53dde3fb15cd0ca9a709435ea43591db960257068a36be52950e177dd599c",
    ("net030", 3, False): "d19345c859473eddffb5db52ef7869ee123e2b3d56d24ea2abb314496fbe1349",
    ("net030", 3, True): "27a79356d2b65f8888ad23fb45ff9bb45723c717d14f21eb59a439d1e45aa52b",
    ("net030", 4, False): "22135d7724aad86e05c46816b63ebdbcd6475f7befdb08c5f7635d095b4e165f",
    ("net030", 4, True): "98672980a471a0372757553d057e513b9ca7dbb88a181224cfd6514dbed5936e",
    ("net030", 5, False): "5dd8264a105356eb756998f11aece0322839a249a116eb04367e0847c2288e90",
    ("net030", 5, True): "ff6c4b84b1c3e1d192dd9a875905a1edb87fd8931dc26a47744aa0a0a2d9d4e0",
    ("net057", 2, False): "adb82ae2fed74e0e0d490e58b6749db30633344e1f027381dc30d79b4e6850a7",
    ("net057", 2, True): "deb754d34fe92b1463c8dc53cc619adf94fd3c4c724aec653d2f9eec5b70fdce",
    ("net057", 3, False): "895047f69c3f1d6a84e2b66d1b654882053707b31ed3df381cff8a1fbc8c165f",
    ("net057", 3, True): "a71a0026d9f92a2df5aadaacd7c16731fb798310ebdabe5e48b1f85bc278cc12",
    ("net057", 4, False): "721aeb9650afbf8414fbef682119ad4974e3dd5e097d0d21eb9f62321f4bd630",
    ("net057", 4, True): "64ce23c1fff9ee43c9950cf327421e348149d0bf76bf3fe8265cb69cfc2a33fd",
    ("net057", 5, False): "58fc606955833c50c2b2eee94d86c0cea34f5099fbd6b792a974921f9c0de0e0",
    ("net057", 5, True): "0787d59e30bdad390a7b3d46ca1a79b6dfe412eac2444fa156c7672f48d0bfed",
    ("net118", 2, False): "51a4e1c5db490629db272d1b516555789aa9b52f1ad5b758095c8e5cc66c49be",
    ("net118", 2, True): "54d089267055d0ca14fe5e5db90a06c1714331955e519d2e7bec64b27d334cf9",
    ("net118", 3, False): "47409c986ab90fe70ee6712b0a1261357e355e7f6f05d403924e1a374382a9e8",
    ("net118", 3, True): "d32bcbcfc0b8e9a07d0257e333a9e23012c56dd7ec4f26c021cd07539dbdb2ad",
    ("net118", 4, False): "47de5cc450f858692b81c3cdff90a38b7466c028e4fe3666f70522d20a39cd2b",
    ("net118", 4, True): "aea8634697fb38cd11d5eb503a801fafcdc81b23603cedd26f1deda90fc42139",
    ("net118", 5, False): "1e4fe2568168cd48d613f0451216b171a78e3b199bda14c6db04f71c0b5f2910",
    ("net118", 5, True): "28ca28ce6475f2da827e496c32c286231e4ffcf562ce6402a59cd15f2f1c7d91",
}


@pytest.mark.parametrize("case", ["net030", "net057", "net118"])
def test_lp_text_of_bundled_cases_is_pinned(case):
    net = parse_case((CASES_DIR / f"{case}.m").read_text())
    net = dcflow.with_flows(net, dcflow.solve_dc(net, 0, dcflow.balanced_injections(net)))
    for k in range(2, 6):
        groups = slow_coherency(net, k)
        trees = [steiner_tree(net, g) for g in groups.groups]
        for ssr in (None, build_fixings(net, trees)):
            text = write_lp(build_model(net, groups, ssr=ssr))
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == PINNED_LP_SHA256[(case, k, ssr is not None)], (k, ssr is not None)


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
    values = run_bridge(model, bridge)
    assert values["a"] == pytest.approx(0.0)
    assert values["b"] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "text, error",
    [
        ("# status feasible\nx_0_1 1\n", SolverTimeout),
        ("# status timeout\n", SolverTimeout),
        ("x_0_1 1\n", SolverTimeout),
        ("# status unbounded\n", BridgeError),
        ("# status infeasible\n", InfeasibleError),
    ],
    ids=["feasible", "timeout", "no-status", "unbounded", "infeasible"],
)
def test_every_bridge_route_reads_the_status_the_same_way(four_cycle, tmp_path, text, error):
    script = tmp_path / "fake.py"
    script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({text!r})\n")
    fake = SolverBridge(command=f"python3 {script} {{model}} {{solution}}")
    net, groups = four_cycle
    costs = [dcflow.GenCost(bus_id=1, cost_per_mw=1.0, pmax=100.0)]
    for route in (lambda: solve_via_bridge(net, groups, fake),
                  lambda: dcflow.solve_dcopf_via_bridge(net, costs, fake)):
        with pytest.raises(GridTreeError) as exc:
            route()
        assert type(exc.value) is error


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


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_milpsolve_rejects_negative_time_limit(tmp_path, value):
    model_path = tmp_path / "toy.lp"
    model_path.write_text(write_lp(toy_model()))
    with pytest.raises(SystemExit) as exc:
        milpsolve.main([str(model_path), str(tmp_path / "toy.sol"), "--time-limit", value])
    assert exc.value.code == 2
