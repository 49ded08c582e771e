"""Model construction, LP text round trips, and the solver bridge."""

import hashlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from gridtree import dcflow, milp, milpsolve, oracle
from gridtree.coherency import slow_coherency
from gridtree.coherency import CoherencyGroups
from gridtree.errors import (
    BridgeError,
    BudgetError,
    GridTreeError,
    InfeasibleError,
    ModelBuildError,
)
from gridtree.milp import (
    MilpModel,
    SolverBridge,
    add_chain_rows,
    build_model,
    decode_values,
    parse_lp,
    run_bridge,
    solution_to_values,
    solve_via_bridge,
    write_lp,
)
from gridtree.network import degree2_chains, parse_case
from gridtree.steiner import SteinerFixings, build_fixings, collect_bus_fixings, steiner_tree

from conftest import BRIDGE_CMD, CASES_DIR, build_net, case_net, random_connected_net, random_groups
from test_bnb import _chained_instance

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
    ("net057", 2, False): "3b9b968501809c61dccaea5fe96d8b94dbe28e7c039aa17fb070c89dd4628cb2",
    ("net057", 2, True): "d44ea7dcf02b76e78ca5a2e6baf5f02b2f8b2248f779c0317e8ed2fe035824c8",
    ("net057", 3, False): "f58818e6ffc93227707e4c2aa1aa01f1487a0c85784c576ede1a691da7f20bb4",
    ("net057", 3, True): "c50cf0cda9438996d19c9a6387dafee4f4916201c044ff3ca1373a7bbe0aaa71",
    ("net057", 4, False): "e33b6df2f594bd9d8fa50bc5fd8319ee0e6c5ce4a56815ea6cd2db97d1febd22",
    ("net057", 4, True): "e99ad9a9470c9174ee2be41ac7c224227eb28356ecee617e50f14ea5b3b9ed5d",
    ("net057", 5, False): "6b71c9bdb1ca76890447df1a22381c63c2dd5993577014a6e669f364c819903a",
    ("net057", 5, True): "0c96f03e6a50be5ab80b8f07943a51eace545d48c14adc712cfdda7c7b35af51",
    ("net118", 2, False): "ea73c2705ae1555fdc5cdc95ee1ec3420ef236e8fad0f27ff647a1bbab9210db",
    ("net118", 2, True): "8d480fdd68caffb8ed4965676207d54bcc4c0523d6675b8c65a5dbb816441f54",
    ("net118", 3, False): "0a5067dd361b3bdf9dc9e844556a9a1421b270ebc95d1bb2d088a4989ba53701",
    ("net118", 3, True): "036ef10c380a235226c8833a05b6c6e7c4335f9ed7b647bdbe449946ef7fb1f8",
    ("net118", 4, False): "6755760061a29cad8e7e380e9fc165fdd89808d51cade4e761e82f3acd422b1d",
    ("net118", 4, True): "072d186de8cc2c581eecad9841f099483da86879a164ca80385855d1e7ac14c6",
    ("net118", 5, False): "1e44aac72c0c7967c18785c79570683f081ea1e06ec53dbe1bde533052f5a2f0",
    ("net118", 5, True): "878ad85a904a68829100e68e2999d6a20f7174b8d83c8d20a3d4ab867b49af96",
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
            # the header line carries the model name
            again = write_lp(parse_lp(text))
            assert again.split("\n", 1)[1] == text.split("\n", 1)[1], (k, ssr is not None)


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


def test_bridge_runs_from_a_temp_dir_whose_path_has_a_space(four_cycle, tmp_path, monkeypatch):
    spaced = tmp_path / "with space"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    net, groups = four_cycle
    sol = solve_via_bridge(net, groups, SolverBridge(command=BRIDGE_CMD, timeout_s=120))
    assert sol.disruption_mw == pytest.approx(1.0)


@pytest.mark.parametrize(
    "template", ["solve {model} --out={solution}", "solve \"{model}\" '--out={solution}'"]
)
def test_bridge_render_keeps_each_path_one_argument(template):
    bridge = SolverBridge(command=template)
    assert bridge.render("/a b/model.lp", "/a b/model.sol") == [
        "solve", "/a b/model.lp", "--out=/a b/model.sol"
    ]


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


def test_run_bridge_writes_the_lp_through_milp_write_lp(bridge, monkeypatch):
    # tracing wraps gridtree.milp.write_lp; the bridge must look it up there
    written = []

    def traced(model):
        written.append(model)
        return write_lp(model)

    monkeypatch.setattr(milp, "write_lp", traced)
    model = toy_model()
    assert run_bridge(model, bridge) == {"a": 0.0, "b": 0.0}
    assert written == [model]


def test_run_bridge_reads_a_model_highs_rejects_as_a_bridge_failure(bridge):
    # HiGHS rejects a 1e300 coefficient (kModelError): a bad model, not "infeasible"
    model = toy_model()
    model.add_constraint("huge", [(1e300, "b")], ">=", 1.0)
    with pytest.raises(BridgeError, match="status error") as exc:
        run_bridge(model, bridge)
    assert type(exc.value) is BridgeError


@pytest.mark.parametrize(
    "text, error",
    [
        ("# status feasible\nx_0_1 1\n", BudgetError),
        ("# status timeout\n", BudgetError),
        ("x_0_1 1\n", BridgeError),
        ("# status error\n", BridgeError),
        ("# status unbounded\n", BridgeError),
        ("# status infeasible\n", InfeasibleError),
    ],
    ids=["feasible", "timeout", "no-status", "unknown-word", "unbounded", "infeasible"],
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


# (edit of GOLDEN_TOY_LP, what parse_lp says about the result)
MALFORMED_LPS = pytest.mark.parametrize(
    "old, new, message",
    [
        ("Binary\n", "General\n", "unknown LP section 'General'"),
        ("Minimize\n", " x + b\nMinimize\n", "LP text before any section: ' x + b'"),
        (" 0 <= b <= 2.5\n", " b >= 0\n", "unsupported LP bounds line 'b >= 0'"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 b\n", "'limit: a - 2 b'"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 b <= 1 <= 2\n", "'limit: a - 2 b <= 1 <= 2'"),
        (" limit: a - 2 b <= 1\n", " a - 2 b <= 1\n", "LP line continues no row: ' a - 2 b <= 1'"),
        (" limit: a - 2 b <= 1\n", " limit: a - - 2 b <= 1\n",
         "two signs in a row in LP text 'limit: a - - 2 b <= 1'"),
        (" obj: 3 a + b + 4\n", " obj: 3 a + b +\n",
         "a sign is not followed by a term in LP text 'obj: 3 a + b +'"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 b - <= 1\n",
         "a sign is not followed by a term in LP text 'limit: a - 2 b - <= 1'"),
        (" limit: a - 2 b <= 1\n", " limit: a b <= 1\n",
         "no sign before 'b' in LP text 'limit: a b <= 1'"),
        (" limit: a - 2 b <= 1\n", " limit: a 2 b <= 1\n",
         "no sign before '2' in LP text 'limit: a 2 b <= 1'"),
        (" limit: a - 2 b <= 1\n", " limit: 2 a 3 <= 1\n",
         "no sign before '3' in LP text 'limit: 2 a 3 <= 1'"),
    ],
    ids=["general-section", "text-before-sections", "one-sided-bound", "row-without-sense",
         "row-with-two-senses", "continuation-before-any-row", "two-signs-in-a-row",
         "objective-ends-in-a-sign", "expression-ends-in-a-sign", "term-without-a-sign",
         "coefficient-without-a-sign", "constant-without-a-sign"],
)


@MALFORMED_LPS
def test_parse_lp_rejects_what_write_lp_never_writes(old, new, message):
    assert old in GOLDEN_TOY_LP
    with pytest.raises(BridgeError, match=re.escape(message)):
        parse_lp(GOLDEN_TOY_LP.replace(old, new))


def _one_error_line(err: str) -> str:
    assert err.startswith("gridtree-milpsolve: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@MALFORMED_LPS
def test_milpsolve_reports_a_malformed_lp_in_one_line(capsys, tmp_path, old, new, message):
    model_path = tmp_path / "bad.lp"
    model_path.write_text(GOLDEN_TOY_LP.replace(old, new))
    assert milpsolve.main([str(model_path), str(tmp_path / "bad.sol")]) == 2
    assert message in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "bad.sol").exists()


@pytest.mark.parametrize(
    "model, solution, message",
    [
        ("missing.lp", "toy.sol", "cannot read model file"),
        ("toy.lp", "no-such-dir/toy.sol", "cannot write solution file"),
    ],
    ids=["missing-model", "unwritable-solution"],
)
def test_milpsolve_reports_unusable_files_in_one_line(capsys, tmp_path, model, solution, message):
    (tmp_path / "toy.lp").write_text(write_lp(toy_model()))
    assert milpsolve.main([str(tmp_path / model), str(tmp_path / solution)]) == 2
    assert message in _one_error_line(capsys.readouterr().err)


def test_milpsolve_process_exits_2_without_a_traceback(tmp_path):
    model_path = tmp_path / "bad.lp"
    model_path.write_text(GOLDEN_TOY_LP.replace("Binary\n", "General\n"))
    proc = subprocess.run(
        [sys.executable, "-m", "gridtree.milpsolve", str(model_path), str(tmp_path / "bad.sol")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "unknown LP section 'General'" in _one_error_line(proc.stderr)


@pytest.mark.parametrize(
    "flags,options",
    [(["--gap", "0"], {"mip_rel_gap": 0.0}), (["--gap", "1e-3"], {"mip_rel_gap": 1e-3}), ([], {}),
     (["--time-limit", "7", "--gap", "0"], {"time_limit": 7.0, "mip_rel_gap": 0.0})],
)
def test_milpsolve_passes_gap_option(monkeypatch, tmp_path, flags, options):
    # the options HiGHS gets: scipy.optimize.milp's, plus --gap and --time-limit
    passed = []
    build = milpsolve._options

    def spy(*args):
        passed.append(build(*args))
        return passed[-1]

    monkeypatch.setattr(milpsolve, "_options", spy)
    model_path = tmp_path / "toy.lp"
    model_path.write_text(write_lp(toy_model()))
    assert milpsolve.main([str(model_path), str(tmp_path / "toy.sol"), *flags]) == 0
    default = milpsolve._highs_core().HighsOptions()
    want = {"log_to_console": False, "mip_rel_gap": default.mip_rel_gap,
            "time_limit": default.time_limit, **options}
    assert len(passed) == 1
    assert {key: getattr(passed[0], key) for key in want} == want


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


@pytest.mark.parametrize("neither", [False, True], ids=["nodes-and-gap", "neither"])
def test_run_bridge_reads_values_with_or_without_nodes_and_gap(four_cycle, tmp_path, neither):
    net, groups = four_cycle
    values = solution_to_values(net, oracle.enumerate_optimal(net, groups))
    lines = ["# status optimal", "# objective 1"]
    if not neither:
        lines += ["# nodes 7", "# gap 0"]
    lines += [f"{name} {val!r}" for name, val in values.items()]
    text = "\n".join(lines) + "\n"
    script = tmp_path / "fake.py"
    script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({text!r})\n")
    fake = SolverBridge(command=f"python3 {script} {{model}} {{solution}}")
    assert run_bridge(build_model(net, groups), fake) == values
    assert solve_via_bridge(net, groups, fake).disruption_mw == pytest.approx(1.0)


def test_milpsolve_writes_nodes_and_gap_after_the_objective(tmp_path):
    model_path, solution_path = tmp_path / "toy.lp", tmp_path / "toy.sol"
    model_path.write_text(write_lp(toy_model()))
    assert milpsolve.main([str(model_path), str(solution_path)]) == 0
    header = [line.split()[1] for line in solution_path.read_text().splitlines()
              if line.startswith("#")]
    assert header == ["status", "objective", "nodes", "gap"]


def _captured(monkeypatch, solve):
    """The model ``solve(bridge)`` hands to run_bridge, without solving it."""
    seen = []

    def capture(model, _bridge):
        seen.append(model)
        raise BudgetError("captured")

    monkeypatch.setattr(milp, "run_bridge", capture)
    with pytest.raises(BudgetError, match="captured"):
        solve(SolverBridge(command=BRIDGE_CMD))
    return seen[0]


@pytest.mark.parametrize("case, ssr, rows", [("net240", False, 50), ("net300", True, 62)])
def test_bridge_model_holds_one_chain_row_per_uncut_chain_line(monkeypatch, case, ssr, rows):
    net = case_net(case)
    groups = slow_coherency(net, 4)
    fixings = build_fixings(net, [steiner_tree(net, g) for g in groups.groups]) if ssr else None
    model = _captured(monkeypatch,
                      lambda bridge: solve_via_bridge(net, groups, bridge, ssr=fixings))
    # the formulation's rows come first, unchanged
    formulation = build_model(net, groups, ssr=fixings)
    assert model.constraints[:len(formulation.constraints)] == formulation.constraints
    assert model.variables == formulation.variables
    chain_rows = model.constraints[len(formulation.constraints):]
    assert len(chain_rows) == rows
    fixed = collect_bus_fixings(net, groups, fixings)
    want = []
    for chain in degree2_chains(net, fixed):
        lightest = min(chain.lines, key=lambda lid: (abs(net.line_by_id[lid].flow_mw), lid))
        want += [net.line_by_id[lid] for lid in chain.lines if lid != lightest]
    assert [con.name for con in chain_rows] == [f"chain_{ln.from_bus}_{ln.to_bus}" for ln in want]
    for con, ln in zip(chain_rows, want):
        assert (con.sense, con.rhs) == ("=", 1.0)
        assert con.terms == tuple((1.0, f"y_{ln.from_bus}_{ln.to_bus}_{r}") for r in range(1, 5))


@pytest.mark.parametrize("unit_mw", [False, True], ids=["real", "unit-mw-ties"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_bridge_with_chain_rows_matches_the_oracle(bridge, k, unit_mw):
    # every chain line but the lightest is held internal, so the bridge's
    # optimum must still be the enumeration's on nets built of chains
    rng = np.random.default_rng(900 + 10 * k + unit_mw)
    cut = 0
    for _ in range(3):
        net, groups = _chained_instance(rng, k, unit_mw)
        try:
            want = oracle.enumerate_optimal(net, groups)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_via_bridge(net, groups, bridge)
            continue
        got = solve_via_bridge(net, groups, bridge)
        # HiGHS proves optimality to its default relative gap of 1e-4
        assert got.disruption_mw == pytest.approx(want.disruption_mw, rel=1e-4, abs=1e-6)
        a = want.partition.assignment
        cut += sum(a[c.ends[0]] != a[c.ends[1]] and len(c.lines) > 1
                   for c in degree2_chains(net, groups.all_members()))
    assert cut >= 1


def _scipy_milp(model):
    """What milpsolve wrote before it drove HiGHS itself: scipy.optimize.milp
    on a COO -> CSR matrix, as (status word, x, nodes, gap)."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

    index = {v.name: i for i, v in enumerate(model.variables)}
    cost = np.zeros(len(index))
    for coef, name in model.objective:
        cost[index[name]] += coef
    entries = [(ci, index[name], coef)
               for ci, con in enumerate(model.constraints) for coef, name in con.terms]
    rows, cols, vals = zip(*entries)
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), len(index)))
    lo = [-np.inf if con.sense == "<=" else con.rhs for con in model.constraints]
    hi = [np.inf if con.sense == ">=" else con.rhs for con in model.constraints]
    result = scipy_milp(
        c=cost,
        constraints=LinearConstraint(a, np.array(lo), np.array(hi)),
        integrality=np.array([v.kind == "binary" for v in model.variables], dtype=int),
        bounds=Bounds(*np.array([v.effective_bounds() for v in model.variables]).T),
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        result.status, "timeout" if result.x is None else "feasible")
    return status, result.x, result.mip_node_count, result.mip_gap


def _partition_model(case, k, ssr):
    net = case_net(case)
    groups = slow_coherency(net, k)
    fixings = build_fixings(net, [steiner_tree(net, g) for g in groups.groups]) if ssr else None
    model = build_model(net, groups, ssr=fixings)
    add_chain_rows(model, net, groups, fixings)
    return model


def _dcopf_model(monkeypatch, case):
    net = case_net(case)
    costs = [dcflow.GenCost(bus_id=b.id, cost_per_mw=1.0 + i, pmax=2 * b.gen_mw + 50.0)
             for i, b in enumerate(b for b in net.buses if b.is_generator)]
    model = _captured(monkeypatch,
                      lambda bridge: dcflow.solve_dcopf_via_bridge(net, costs, bridge))
    # a balance row names its bus once per incident line: repeated entries add up
    assert any(len({v for _, v in con.terms}) < len(con.terms) for con in model.constraints)
    return model


@pytest.mark.parametrize(
    "case, k, method",
    [("net057", 5, "milp"), ("net118", 3, "ssr"), ("net118", None, "dcopf")],
    ids=["net057-5-milp", "net118-3-ssr", "net118-dcopf"],
)
def test_milpsolve_solves_like_scipy_milp(monkeypatch, case, k, method):
    # the same HiGHS input gives the same answer, bit for bit
    if method == "dcopf":
        model = _dcopf_model(monkeypatch, case)
    else:
        model = _partition_model(case, k, method == "ssr")
    if method == "ssr":
        assert any(con.name.startswith("chain_") for con in model.constraints)
    model = parse_lp(write_lp(model))  # what the solver child reads
    status, x, nodes, gap = milpsolve._solve(milpsolve._highs_core(), model, None, None)
    want_status, want_x, want_nodes, want_gap = _scipy_milp(model)
    assert (status, nodes, gap) == (want_status, want_nodes, want_gap) and status == "optimal"
    assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()


def _milpsolve_header(tmp_path, lp_text, *flags):
    model_path, solution_path = tmp_path / "m.lp", tmp_path / "m.sol"
    model_path.write_text(lp_text)
    assert milpsolve.main([str(model_path), str(solution_path), *flags]) == 0
    lines = solution_path.read_text().splitlines()
    return [line.split()[1] for line in lines if line.startswith("#")], lines


@pytest.mark.parametrize(
    "lp_text, status",
    [
        ("Minimize\n obj: a + b\nSubject To\n r: a + b >= 3\nBinary\n a\n b\nEnd\n",
         "infeasible"),
        ("Minimize\n obj: - x\nSubject To\n r: x - y >= 0\nEnd\n", "unbounded"),
        # HiGHS rejects an infinite coefficient (kModelError): scipy says infeasible
        ("Minimize\n obj: x\nSubject To\n r: 1e400 x >= 1\nEnd\n", "error"),
        # presolve stops at kUnboundedOrInfeasible with no point, not at a
        # limit: scipy says timeout
        ("Minimize\n obj: - x + a\nSubject To\n r: x - a >= 0\nBinary\n a\nEnd\n",
         "error"),
    ],
    ids=["infeasible-milp", "unbounded-lp", "model-error", "unbounded-or-infeasible-milp"],
)
def test_milpsolve_status_words_without_a_point(tmp_path, lp_text, status):
    header, lines = _milpsolve_header(tmp_path, lp_text)
    assert (header, lines[0]) == (["status"], f"# status {status}")
    if status != "error":
        assert _scipy_milp(parse_lp(lp_text))[0] == status


def test_milpsolve_writes_no_nodes_or_gap_for_a_pure_lp(tmp_path):
    lp_text = "Minimize\n obj: x + y\nSubject To\n r: x + y >= 1\nEnd\n"
    header, lines = _milpsolve_header(tmp_path, lp_text)
    assert header == ["status", "objective"]
    assert lines[:2] == ["# status optimal", "# objective 1"]


def test_milpsolve_stops_at_a_zero_time_limit(tmp_path):
    header, lines = _milpsolve_header(
        tmp_path, write_lp(_partition_model("net057", 5, False)), "--time-limit", "0")
    status = lines[0].split()[2]
    if status == "feasible":  # HiGHS holds an incumbent
        assert header[:2] == ["status", "objective"]
    else:
        assert (status, header) == ("timeout", ["status"])


def test_milpsolve_reports_missing_highs_in_one_line(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(milpsolve, "_CORE", "scipy.optimize._highspy._missing")
    model_path = tmp_path / "toy.lp"
    model_path.write_text(write_lp(toy_model()))
    assert milpsolve.main([str(model_path), str(tmp_path / "toy.sol")]) == 2
    assert "_highspy._missing was not found" in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "toy.sol").exists()


def test_milpsolve_child_imports_neither_scipy_optimize_nor_sparse(tmp_path):
    # the solver child loads numpy and scipy's HiGHS binding, nothing more of scipy
    model_path, solution_path = tmp_path / "toy.lp", tmp_path / "toy.sol"
    model_path.write_text(write_lp(toy_model()))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gridtree.milpsolve",
         str(model_path), str(solution_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported
    # gridtree.milpsolve itself runs as __main__, so -X importtime does not list it
    assert {m for m in imported if m.split(".")[0] == "gridtree"} == {
        "gridtree", "gridtree.errors", "gridtree.lp"}
    assert [m for m in imported if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"])] == []
    assert solution_path.read_text().startswith("# status optimal\n")


def test_import_gridtree_resolves_its_exports_lazily():
    code = """
import importlib
import sys
import gridtree
assert "numpy" not in sys.modules, "import gridtree loaded numpy"
assert set(gridtree.__all__) <= set(dir(gridtree))
for name in ("twostage", "bnb", "milp", "solution"):
    assert getattr(gridtree, name) is sys.modules["gridtree." + name], name
for name in gridtree.__all__:
    module = importlib.import_module("gridtree." + gridtree._EXPORTS[name])
    assert getattr(gridtree, name) is getattr(module, name), name
assert gridtree.MilpModel is gridtree.milp.MilpModel is gridtree.lp.MilpModel
try:
    gridtree.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("gridtree.no_such_name resolved")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
