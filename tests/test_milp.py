"""Model construction, LP text round trips, and the solver bridge."""

import hashlib
import math
import random
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from gridtree import dcflow, lp, milp, milpsolve, oracle
from gridtree.coherency import slow_coherency
from gridtree.coherency import CoherencyGroups
from gridtree.errors import (
    BridgeError,
    BudgetError,
    GridTreeError,
    InfeasibleError,
    ModelBuildError,
    NetworkValidationError,
)
from gridtree.lp import parse_lp
from gridtree.milp import (
    MilpModel,
    SolverBridge,
    add_chain_rows,
    build_model,
    decode_values,
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
    kinds = [v.kind for v in model.variables]
    assert kinds.count("binary") == n * k + m * (k + 2) == 24
    assert kinds.count("continuous") == m == 4


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


def test_a_wrapper_on_milp_write_lp_sees_the_lp_solve_via_bridge_writes(bridge, monkeypatch):
    # the benchmark times write_lp and counts LP bytes through this wrapper
    net = case_net("demo9")
    groups = slow_coherency(net, 2)
    want = solve_via_bridge(net, groups, bridge)
    written = []

    def traced(model):
        written.append(model)
        return write_lp(model)

    monkeypatch.setattr(milp, "write_lp", traced)
    assert solve_via_bridge(net, groups, bridge) == want
    assert len(written) == 1


def test_run_bridge_reads_a_model_highs_rejects_as_a_bridge_failure(bridge):
    # HiGHS refuses a 1e300 coefficient: the child names it and exits 2, a
    # bad model, not "infeasible"
    model = toy_model()
    model.add_constraint("huge", [(1e300, "b")], ">=", 1.0)
    with pytest.raises(BridgeError, match=re.escape(
            "solver exited with 2: gridtree-milpsolve: error: ")) as exc:
        run_bridge(model, bridge)
    assert "HiGHS refuses the entry 1e+300 of column 'b' in row 'huge'" in str(exc.value)
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
    with pytest.raises(GridTreeError) as exc:
        solve_via_bridge(net, groups, fake)
    assert type(exc.value) is error


def test_parse_lp_rejects_unsupported():
    with pytest.raises(BridgeError):
        parse_lp("Minimize\n obj: x\nSubject To\n c: x >= 1 <= 2\nEnd\n")


_BINARY_BOUNDS = "LP binary 'a' has bounds other than = 0 or = 1"

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
        # HiGHS's LP reader reads these names as numbers: another model
        (" limit: a - 2 b <= 1\n", " limit: a - 2 inf <= 1\n",
         "LP readers read 'inf' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 Infinity <= 1\n",
         "LP readers read 'Infinity' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 NaN <= 1\n",
         "LP readers read 'NaN' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 nanny <= 1\n",
         "LP readers read 'nanny' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 info <= 1\n",
         "LP readers read 'info' as a keyword"),
        # ... and these as keywords or operators: it rejects the file
        (" limit: a - 2 b <= 1\n", " limit: a - 2 free <= 1\n",
         "LP readers read 'free' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 END <= 1\n",
         "LP readers read 'END' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 s.t. <= 1\n",
         "LP readers read 's.t.' as a keyword"),
        (" a\n", " a Bin\n",
         "LP readers read 'Bin' as a keyword"),
        (" 0 <= b <= 2.5\n", " 0 <= General <= 2.5\n",
         "LP readers read 'General' as a keyword"),
        (" limit: a - 2 b <= 1\n", " st: a - 2 b <= 1\n",
         "LP readers read 'st' as a keyword"),
        (" obj: 3 a + b + 4\n", " minimize: 3 a + b + 4\n",
         "LP readers read 'minimize' as a keyword"),
        (" limit: a - 2 b <= 1\n", " limit: a - 2 b-c <= 1\n",
         "LP readers read 'b-c' as a keyword"),
        # a no-break space ends a word as a space does
        (" limit: a - 2 b <= 1\n", " limit: a - 2 free\u00a0+ b <= 1\n",
         "LP readers read 'free' as a keyword"),
        # HiGHS drops a row's constant instead of moving it to the rhs
        (" limit: a - 2 b <= 1\n", " limit: a - 2 b + 3 <= 1\n",
         "LP row has a constant on its left side: 'limit: a - 2 b + 3 <= 1'"),
        # Python's float reads these, C's strtod does not: HiGHS rejects the file
        (" limit: a - 2 b <= 1\n", " r: a + b >= 1_0\n", "expected a number, got '1_0'"),
        (" limit: a - 2 b <= 1\n", " r: a + b >= nan\n", "expected a number, got 'nan'"),
        (" limit: a - 2 b <= 1\n", " r: a + b >= \u0661\n", "expected a number, got '\u0661'"),
        (" 0 <= b <= 2.5\n", " -infinity <= a <= 5\n", "expected a number, got '-infinity'"),
        # ... and names that start like a number
        (" a\n", " 3\n", "LP name '3' does not start with a letter or _"),
        (" 0 <= b <= 2.5\n", " 3 = 1\n", "LP name '3' does not start with a letter or _"),
        # write_lp bounds a binary only as `name = 0` or `name = 1`: HiGHS rejects
        # some other bounds (-inf) and solves others to -1, 2 or infeasible
        (" 0 <= b <= 2.5\n", " 0 <= b <= 2.5\n -inf <= a <= 5\n", _BINARY_BOUNDS),
        (" 0 <= b <= 2.5\n", " 0 <= b <= 2.5\n a free\n", _BINARY_BOUNDS),
        (" 0 <= b <= 2.5\n", " 0 <= b <= 2.5\n a = -inf\n", _BINARY_BOUNDS),
        (" 0 <= b <= 2.5\n", " 0 <= b <= 2.5\n -1 <= a <= 5\n", _BINARY_BOUNDS),
        (" 0 <= b <= 2.5\n", " 0 <= b <= 2.5\n a = 2\n", _BINARY_BOUNDS),
        (" 0 <= b <= 2.5\n", " 0 <= b <= 2.5\n a = 0.5\n", _BINARY_BOUNDS),
    ],
    ids=["general-section", "text-before-sections", "one-sided-bound", "row-without-sense",
         "row-with-two-senses", "continuation-before-any-row", "two-signs-in-a-row",
         "objective-ends-in-a-sign", "expression-ends-in-a-sign", "term-without-a-sign",
         "coefficient-without-a-sign", "constant-without-a-sign", "name-inf", "name-infinity",
         "name-nan", "name-starting-with-nan", "name-starting-with-inf", "name-free", "name-end",
         "name-s.t.", "binary-named-bin", "bound-on-general", "row-named-st",
         "objective-named-minimize", "name-with-an-operator", "name-before-a-no-break-space",
         "row-constant",
         "number-with-an-underscore", "number-nan", "number-in-arabic-indic-digits",
         "bound-minus-infinity", "binary-named-3", "bound-on-3", "binary-minus-inf-to-5",
         "binary-free", "binary-fixed-to-minus-inf", "binary-minus-1-to-5", "binary-fixed-to-2",
         "binary-fixed-to-0.5"],
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


def test_the_lp_name_rule_is_compiled_once():
    # the line patterns hold the plain name class; the keywords live in one pattern
    keywords = "|".join(map(re.escape, lp._KEYWORDS))
    assert [name for name, value in vars(lp).items()
            if isinstance(value, re.Pattern) and keywords in value.pattern] == ["_RESERVED"]


def test_the_lp_grammar_splits_words_at_every_space_python_knows():
    assert set(lp._SPACES) == {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}


def test_a_name_starts_with_any_word_character_but_a_decimal_digit(tmp_path):
    # ² and Ⅰ are no letters, yet word characters that HiGHS reads in a name
    text = GOLDEN_TOY_LP.replace(" limit: a - 2 b <= 1\n", " limit: a - 2 b + ²x - Ⅰx <= 1\n")
    assert [v.name for v in parse_lp(text).variables] == ["a", "b", "²x", "Ⅰx"]
    (tmp_path / "m.lp").write_text(text)
    assert milpsolve.main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol")]) == 0
    assert "²x 0\n" in (tmp_path / "m.sol").read_text()


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


@pytest.mark.parametrize("name", ["toy.txt", "toy.mps", "toy", "toy.lp.gz", "toy.LP"])
def test_milpsolve_reads_the_lp_dialect_whatever_the_file_name(tmp_path, name):
    # HiGHS picks its reader by the extension; the text is LP all the same
    (tmp_path / "toy.lp").write_text(GOLDEN_TOY_LP)
    (tmp_path / name).write_text(GOLDEN_TOY_LP)
    assert milpsolve.main([str(tmp_path / "toy.lp"), str(tmp_path / "want.sol")]) == 0
    assert milpsolve.main([str(tmp_path / name), str(tmp_path / "got.sol")]) == 0
    got = (tmp_path / "got.sol").read_text()
    assert got.startswith("# status optimal\n") and got == (tmp_path / "want.sol").read_text()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        {"toy.lp", name, "want.sol", "got.sol"})


def test_milpsolve_reports_an_unwritable_lp_copy_in_one_line(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "no-such-dir"))
    (tmp_path / "toy.txt").write_text(GOLDEN_TOY_LP)
    assert milpsolve.main([str(tmp_path / "toy.txt"), str(tmp_path / "toy.sol")]) == 2
    assert "cannot copy model file" in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "toy.sol").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [("Bounds\n", "Bounds\n c free\n",
      "HiGHS reads 2 columns, 1 rows and 2 nonzeros where the LP grammar reads 3, 1 and 2"),
     ("Subject To\n", "Subject To\n extra: 0 >= -1\n",
      "HiGHS reads 2 columns, 1 rows and 2 nonzeros where the LP grammar reads 2, 2 and 2"),
     (" limit: a - 2 b <= 1\n", " limit: a <= 1\n",
      "HiGHS reads 2 columns, 1 rows and 2 nonzeros where the LP grammar reads 2, 1 and 1"),
     (" b", " c", "HiGHS reads a column 'b' that the LP grammar does not"),
     (" obj: 3 a + b + 4\n", " obj: 2 a + b + 4\n",
      "HiGHS reads an objective cost of 3 for 'a' where the LP grammar reads 2"),
     (" obj: 3 a + b + 4\n", " obj: 3 a + b\n",
      "HiGHS reads an objective constant of 4 where the LP grammar reads 0")],
    ids=["column", "row", "nonzero", "name", "objective", "constant"],
)
def test_milpsolve_reports_a_file_highs_reads_otherwise_in_one_line(capsys, monkeypatch,
                                                                      tmp_path, old, new, message):
    # the grammar's summary is checked against HiGHS's reading of the same file
    summarize = milpsolve.summarize
    monkeypatch.setattr(milpsolve, "summarize",
                        lambda text, *limits: summarize(text.replace(old, new), *limits))
    (tmp_path / "toy.lp").write_text(GOLDEN_TOY_LP)
    assert milpsolve.main([str(tmp_path / "toy.lp"), str(tmp_path / "toy.sol")]) == 2
    assert message in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "toy.sol").exists()


# HiGHS keeps the last cost of a name the objective repeats (a: -1 here),
# where it sums a row's repeated terms as the grammar does (a + b + 4)
REPEATED_OBJECTIVE_TERM_LP = GOLDEN_TOY_LP.replace(" obj: 3 a + b + 4\n", " obj: 2 a + b - a + 4\n")


def test_milpsolve_rejects_an_objective_highs_reads_otherwise(capsys, tmp_path):
    assert parse_lp(REPEATED_OBJECTIVE_TERM_LP).objective == ((2.0, "a"), (1.0, "b"), (-1.0, "a"))
    (tmp_path / "toy.lp").write_text(REPEATED_OBJECTIVE_TERM_LP)
    assert milpsolve.main([str(tmp_path / "toy.lp"), str(tmp_path / "toy.sol")]) == 2
    err = _one_error_line(capsys.readouterr().err)
    assert "HiGHS reads an objective cost of -1 for 'a' where the LP grammar reads 1" in err
    assert not (tmp_path / "toy.sol").exists()


def _random_model(rng):
    """A model whose numbers write_lp writes exactly: binaries free or fixed,
    continuous columns in every bounds form, each column once in the
    objective, and rows with repeated and no terms."""
    model = MilpModel(name="random")
    names = rng.sample(["a", "b", "x1", "y_2", "z", "q.3", "w"], rng.randint(1, 6))
    for name in names:
        if rng.random() < 0.5:
            fixed = rng.choice([None, None, 0.0, 1.0])
            model.add_variable(name, "binary", fixed, fixed)
        else:
            model.add_variable(name, "continuous", *rng.choice(
                [(None, None), (-math.inf, math.inf), (0.0, 2.5), (-3.0, None), (1.5, 1.5),
                 (-math.inf, 4.0)]))
    numbers = [1.0, -1.0, 2.0, -0.5, 3.25, 1e-05, 120.0, -7.0]
    model.set_objective([(rng.choice(numbers), name) for name in names],
                        rng.choice([0.0, 4.0, -2.5]))
    for row in range(rng.randint(0, 4)):
        terms = [(rng.choice(numbers), rng.choice(names)) for _ in range(rng.randint(0, 4))]
        model.add_constraint(f"r{row}", terms, rng.choice(["<=", ">=", "="]),
                             rng.choice([0.0, 1.0, -2.0, 10.5]))
    return model


# words a mutation puts in: names, numbers and signs inside and outside the
# dialect, keywords, headers and operators
MUTATION_WORDS = ("a b zz _u é ²x Ⅰx x.y b-c inf -inf nanny free Bin st END 0 1 -1 2.5 -0 1e-12 "
                  "1e400 .5 5. 1_0 nan +3 + - <= >= = < : obj: r9: Minimize Subject To Bounds "
                  "Binary End General").split()


def _mutated(rng, text):
    """``text`` with one word replaced (by a word of its line, of the text or
    of MUTATION_WORDS), deleted, doubled, swapped with the next one or
    preceded by another word."""
    lines = [(line[:len(line) - len(line.lstrip())], line.split()) for line in text.split("\n")]
    i, j = rng.choice([(i, j) for i, (_, words) in enumerate(lines) for j in range(len(words))])
    words = lines[i][1]
    change = rng.choice(["replace", "replace", "delete", "double", "swap", "insert"])
    if change == "replace":
        words[j] = rng.choice(rng.choice([words, [w for _, line in lines for w in line],
                                          MUTATION_WORDS]))
    elif change == "delete":
        del words[j]
    elif change == "double":
        words.insert(j, words[j])
    elif change == "swap" and j + 1 < len(words):
        words[j], words[j + 1] = words[j + 1], words[j]
    elif change == "insert":
        words.insert(j, rng.choice(MUTATION_WORDS))
    return "\n".join(indent + " ".join(words) for indent, words in lines)


def _refused_by_highs(entries):
    """Whether HiGHS refuses a value of a model at read time: a lower bound
    at +infinity or an upper bound at -infinity (past its infinite_bound),
    or a matrix entry of its large_matrix_value or more."""
    options = milpsolve._highs_core().HighsOptions()
    inf, big = options.infinite_bound, options.large_matrix_value
    return (any(lo >= inf or hi <= -inf for (lo, hi), _ in entries["cols"].values())
            or any(lo >= inf or hi <= -inf for lo, hi in entries["rows"].values())
            or any(abs(value) >= big for value in entries["matrix"].values()))


@pytest.mark.parametrize(
    "body, message",
    [(" r: 1e15 x >= 1\n", "the entry 1e+15 of column 'x' in row 'r'"),
     (" r: 6e14 x + 4e14 x >= 1\n", "the entry 1e+15 of column 'x' in row 'r'"),
     (" r: x >= 1e20\n", "the lower bound 1e+20 of row 'r'"),
     (" r: x = -1e20\n", "the upper bound -1e+20 of row 'r'"),
     (" r: x >= 1\nBounds\n x = inf\n", "the lower bound inf of column 'x'"),
     (" r: x >= 1\nBounds\n -3 <= x <= -inf\n", "the upper bound -inf of column 'x'"),
     (" r: 999999999999999 x >= 1\n", None),
     (" r: x <= 9.9e19\n r2: x >= -9.9e19\nBounds\n -inf <= x <= 9.9e19\n", None)],
    ids=["large-entry", "summed-entry", "row-lower", "row-upper", "column-lower",
         "column-upper", "entry-below-limit", "bounds-inside-limit"],
)
def test_milpsolve_names_a_value_highs_refuses(capsys, tmp_path, body, message):
    # HiGHS's reader fails on such a value (1e400 is the model-error case below)
    text = f"Minimize\n obj: x\nSubject To\n{body}End\n"
    (tmp_path / "m.lp").write_text(text)
    core = milpsolve._highs_core()
    highs = core._Highs()
    highs.passOptions(milpsolve._options(core, None, None))
    refused = highs.readModel(str(tmp_path / "m.lp")) == core.HighsStatus.kError
    assert refused == _refused_by_highs(_parsed_entries(parse_lp(text))) == (message is not None)
    code = milpsolve.main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol")])
    if message is None:
        assert code == 0 and (tmp_path / "m.sol").read_text().startswith("# status ")
        return
    assert code == 2 and f"HiGHS refuses {message} (its " in _one_error_line(
        capsys.readouterr().err)
    assert not (tmp_path / "m.sol").exists()


def test_lp_grammar_reads_random_models_and_their_mutations_as_highs_does(capsys, tmp_path):
    # every mutation is rejected by parse_lp and by the child (exit 2), or
    # holds a value HiGHS refuses, which the child names (exit 2), or the
    # grammar and HiGHS read one model; they may differ only in the
    # objective, where HiGHS keeps the last cost of a repeated name and the
    # child's reading check exits 2
    rng = random.Random(26)
    options = milpsolve._highs_core().HighsOptions()
    limits = options.small_matrix_value, options.infinite_bound, options.large_matrix_value
    small = limits[0]
    model_path, solution_path = tmp_path / "m.lp", tmp_path / "m.sol"
    seen = {"rejected": 0, "refused": 0, "same": 0, "objective": 0}
    for _ in range(120):
        model = _random_model(rng)
        text = write_lp(model)
        assert parse_lp(text) == model, text
        for _ in range(10):
            mutated = _mutated(rng, text)
            model_path.write_text(mutated)
            solution_path.unlink(missing_ok=True)
            code = milpsolve.main([str(model_path), str(solution_path)])
            err = capsys.readouterr().err
            try:
                parsed = parse_lp(mutated)
            except BridgeError:
                assert code == 2 and _one_error_line(err), mutated
                seen["rejected"] += 1
                continue
            read = _parsed_entries(parsed)
            read["matrix"] = {key: v for key, v in read["matrix"].items() if abs(v) > small}
            if _refused_by_highs(read):
                assert code == 2 and "HiGHS refuses " in _one_error_line(err), mutated
                assert not solution_path.exists()
                seen["refused"] += 1
                continue
            summary = milpsolve.summarize(mutated, *limits)
            assert summary == (read["cols"].keys(), {v.name for v in parsed.variables
                                                     if v.kind == "binary"},
                               len(read["rows"]), len(read["matrix"]), summary.objective,
                               read["offset"]), mutated
            assert {name: summary.objective.get(name, 0.0) for name in read["cols"]} == read["costs"]
            highs = _highs_entries(model_path)
            if highs == read:
                assert code == 0 and solution_path.read_text().startswith("# status "), mutated
                seen["same"] += 1
                continue
            assert {**highs, "costs": None, "offset": None} == {**read, "costs": None, "offset": None}
            assert code == 2 and "HiGHS reads an objective" in _one_error_line(err), mutated
            assert not solution_path.exists()
            seen["objective"] += 1
    assert min(seen.values()) > 0, seen


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


def test_milpsolve_solves_without_the_objective_constant(monkeypatch, tmp_path):
    # HiGHS reads the constant as an offset; --gap and the gap line stay
    # relative to the objective without it, and # objective includes it
    core = milpsolve._highs_core()
    offsets = []

    class Recording(core._Highs):
        def run(self):
            offsets.append(self.getObjectiveOffset()[1])
            return super().run()

    monkeypatch.setattr(core, "_Highs", Recording)
    _, lines = _milpsolve_header(tmp_path, GOLDEN_TOY_LP)
    assert offsets == [0.0]
    assert lines[:2] == ["# status optimal", "# objective 4"]


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
                   for c in degree2_chains(net, groups.cluster_of))
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


def _dcopf_shaped_model(case):
    """A linear-cost DC dispatch LP on ``case``'s topology: a free angle
    column per bus (bus 0's fixed at 0), a ranged dispatch column per
    generator, and a balance row per bus."""
    net = case_net(case)
    gens = [b for b in net.buses if b.is_generator]
    model = MilpModel(name="dcopf")
    for b in gens:
        model.add_variable(f"pg_{b.index}", "continuous", 0.0, 2 * b.gen_mw + 50.0)
    for b in net.buses:
        model.add_variable(f"th_{b.index}", "continuous",
                           *((0.0, 0.0) if b.index == 0 else (-np.inf, np.inf)))
    for b in net.buses:
        terms = []
        for lid, other in net.incident[b.index]:
            coef = net.base_mva * net.line_by_id[lid].susceptance
            terms += [(coef, f"th_{b.index}"), (-coef, f"th_{other}")]
        if b.is_generator:
            terms.append((-1.0, f"pg_{b.index}"))
        model.add_constraint(f"bal_{b.index}", terms, "=", -b.load_mw)
    model.set_objective([(1.0 + i, f"pg_{b.index}") for i, b in enumerate(gens)])
    # a balance row names its bus once per incident line: repeated entries add up
    assert any(len({v for _, v in con.terms}) < len(con.terms) for con in model.constraints)
    return model


BRIDGE_MODELS = pytest.mark.parametrize(
    "case, k, method",
    [("net057", 5, "milp"), ("net118", 3, "ssr"), ("net118", None, "dcopf")],
    ids=["net057-5-milp", "net118-3-ssr", "net118-dcopf"],
)


def _bridge_model(case, k, method):
    if method == "dcopf":
        return _dcopf_shaped_model(case)
    model = _partition_model(case, k, method == "ssr")
    if method == "ssr":
        assert any(con.name.startswith("chain_") for con in model.constraints)
    return model


def _entries(cols, costs, offset, rows, matrix):
    """A model keyed by name: columns (bounds, integer?), costs, offset, row
    bounds and the nonzero matrix entries by (row, column); a row is keyed by
    its (position, name), as two rows may share a name."""
    return {"cols": cols, "costs": costs, "offset": offset, "rows": rows,
            "matrix": {key: value for key, value in matrix.items() if value != 0.0}}


def _parsed_entries(model):
    costs = dict.fromkeys((v.name for v in model.variables), 0.0)
    for coef, name in model.objective:
        costs[name] += coef
    matrix = {}
    for row, con in enumerate(model.constraints):
        for coef, name in con.terms:
            matrix[(row, con.name), name] = matrix.get(((row, con.name), name), 0.0) + coef
    bounds = {"<=": lambda rhs: (-np.inf, rhs), ">=": lambda rhs: (rhs, np.inf),
              "=": lambda rhs: (rhs, rhs)}
    return _entries(
        {v.name: (v.effective_bounds(), v.kind == "binary") for v in model.variables},
        costs, model.objective_constant,
        {(row, con.name): bounds[con.sense](con.rhs) for row, con in enumerate(model.constraints)},
        matrix)


def _highs_entries(path):
    core = milpsolve._highs_core()
    highs = core._Highs()
    options = core.HighsOptions()
    options.log_to_console = False
    highs.passOptions(options)
    assert highs.readModel(str(path)) != core.HighsStatus.kError
    lp = highs.getLp()
    cols, rows = list(lp.col_names_), list(enumerate(lp.row_names_))
    kinds = lp.integrality_ or [core.HighsVarType.kContinuous] * len(cols)
    integer = [kind == core.HighsVarType.kInteger for kind in kinds]
    matrix = {}
    a = lp.a_matrix_
    assert a.format_ == core.MatrixFormat.kColwise
    # each read of a matrix attribute copies the whole array
    start, index, value = list(a.start_), list(a.index_), list(map(float, a.value_))
    for j, col in enumerate(cols):
        for at in range(start[j], start[j + 1]):
            matrix[rows[index[at]], col] = value[at]
    return _entries(
        {col: ((float(lo), float(hi)), is_int)
         for col, lo, hi, is_int in zip(cols, lp.col_lower_, lp.col_upper_, integer)},
        {col: float(cost) for col, cost in zip(cols, lp.col_cost_)}, lp.offset_,
        {row: (float(lo), float(hi)) for row, lo, hi in zip(rows, lp.row_lower_, lp.row_upper_)},
        matrix)


@BRIDGE_MODELS
def test_highs_reads_write_lp_as_parse_lp_does(tmp_path, case, k, method):
    # the solver child hands HiGHS the file: both readers must see one model,
    # entry for entry, repeated terms summed (only the column order differs)
    text = write_lp(_bridge_model(case, k, method))
    (tmp_path / "m.lp").write_text(text)
    assert _highs_entries(tmp_path / "m.lp") == _parsed_entries(parse_lp(text))


def _assert_child_check_passes(tmp_path, text):
    """The solver child's reading check passes on ``text``, and HiGHS reads
    the model parse_lp reads."""
    core = milpsolve._highs_core()
    options = milpsolve._options(core, None, None)
    summary = milpsolve.summarize(text, options.small_matrix_value, options.infinite_bound,
                                  options.large_matrix_value)
    (tmp_path / "m.lp").write_text(text)
    highs = core._Highs()
    assert highs.passOptions(options) != core.HighsStatus.kError
    assert highs.readModel(str(tmp_path / "m.lp")) != core.HighsStatus.kError
    assert set(milpsolve._columns(highs, summary)) == summary.columns
    assert _highs_entries(tmp_path / "m.lp") == _parsed_entries(parse_lp(text))


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(path.stem for path in CASES_DIR.glob("*.m")))
def test_child_check_passes_on_every_bundled_lp(tmp_path, case):
    # the LP of every bundled (case, k, milp/ssr) cell, as the bridge writes it
    checked = 0
    for k in range(2, 6):
        for ssr in (False, True):
            try:
                model = _partition_model(case, k, ssr)
            except (NetworkValidationError, BudgetError):
                continue  # no LP: k exceeds the generators, or a Steiner tree the budget
            _assert_child_check_passes(tmp_path, write_lp(model))
            checked += 1
    assert checked >= 6


def test_child_check_passes_on_the_dcopf_shaped_lp(tmp_path):
    _assert_child_check_passes(tmp_path, write_lp(_dcopf_shaped_model("net118")))


@BRIDGE_MODELS
def test_milpsolve_answers_like_scipy_milp(tmp_path, case, k, method):
    model = parse_lp(write_lp(_bridge_model(case, k, method)))
    _, lines = _milpsolve_header(tmp_path, write_lp(model))
    want_status, want_x, _, _ = _scipy_milp(model)
    want = model.objective_value(dict(zip((v.name for v in model.variables), want_x)))
    assert lines[0] == f"# status {want_status}" and want_status == "optimal"
    assert lines[1].startswith("# objective ")
    assert float(lines[1].split()[2]) == pytest.approx(want, rel=1e-9)


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
        # HiGHS refuses an infinite coefficient (kModelError; scipy says
        # infeasible): the child names it and exits 2 without a status
        ("Minimize\n obj: x\nSubject To\n r: 1e400 x >= 1\nEnd\n", None),
        # presolve stops at kUnboundedOrInfeasible with no point, not at a
        # limit: scipy says timeout
        ("Minimize\n obj: - x + a\nSubject To\n r: x - a >= 0\nBinary\n a\nEnd\n",
         "error"),
    ],
    ids=["infeasible-milp", "unbounded-lp", "model-error", "unbounded-or-infeasible-milp"],
)
def test_milpsolve_status_words_without_a_point(capsys, tmp_path, lp_text, status):
    if status is None:
        (tmp_path / "m.lp").write_text(lp_text)
        assert milpsolve.main([str(tmp_path / "m.lp"), str(tmp_path / "m.sol")]) == 2
        assert "HiGHS refuses the entry inf of column 'x' in row 'r'" in _one_error_line(
            capsys.readouterr().err)
        assert not (tmp_path / "m.sol").exists()
        return
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


@pytest.mark.parametrize("kind", ["toy", "net118-dcopf"])
def test_milpsolve_process_prints_nothing_on_stdout(tmp_path, kind):
    # HiGHS prints a banner on reading a model before its options are set;
    # on the DC-OPF-shaped LP, whose repeated terms it sums, it also warns
    model = toy_model() if kind == "toy" else _dcopf_shaped_model("net118")
    (tmp_path / "m.lp").write_text(write_lp(model))
    proc = subprocess.run(
        [sys.executable, "-m", "gridtree.milpsolve", str(tmp_path / "m.lp"),
         str(tmp_path / "m.sol")],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "m.sol").read_text().startswith("# status optimal\n")


def test_milpsolve_reports_missing_highs_in_one_line(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(milpsolve, "_CORE", "scipy.optimize._highspy._missing")
    model_path = tmp_path / "toy.lp"
    model_path.write_text(write_lp(toy_model()))
    assert milpsolve.main([str(model_path), str(tmp_path / "toy.sol")]) == 2
    assert "_highspy._missing was not found" in _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "toy.sol").exists()


def test_milpsolve_child_imports_no_numpy_and_of_scipy_only_highs(tmp_path):
    # the solver child loads scipy's HiGHS binding by its file path and
    # nothing else of scipy, no numpy, and of the package only the LP layer
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
    assert [m for m in imported if m.split(".")[0] in ("numpy", "scipy")] == []
    # gridtree.milpsolve itself runs as __main__, so -X importtime does not list it
    assert {m for m in imported if m.split(".")[0] == "gridtree"} == {
        "gridtree", "gridtree.errors", "gridtree.lp"}
    assert solution_path.read_text().startswith("# status optimal\n")
    # the import-time log misses modules loaded by file path or through
    # gridtree's lazy __getattr__; sys.modules after main returns holds them
    code = f"""
import runpy, sys
sys.argv = ["gridtree-milpsolve", {str(model_path)!r}, {str(tmp_path / "again.sol")!r}]
try:
    runpy.run_module("gridtree.milpsolve", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("gridtree", "numpy", "scipy")))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert [m for m in loaded if m.split(".")[0] == "gridtree"] == [
        "gridtree", "gridtree.errors", "gridtree.lp"]
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
    assert [m for m in loaded if m.split(".")[0] == "scipy"
            and not (m + ".").startswith(milpsolve._CORE + ".")] == []
    assert (tmp_path / "again.sol").read_text() == solution_path.read_text()


def test_milpsolve_child_imports_no_dataclasses(tmp_path):
    # the LP grammar's summary is all the child keeps of the file: no
    # MilpModel, whose module no longer needs dataclasses either
    model_path, solution_path = tmp_path / "toy.lp", tmp_path / "toy.sol"
    model_path.write_text(GOLDEN_TOY_LP)
    code = f"""
import runpy, sys
sys.argv = ["gridtree-milpsolve", {str(model_path)!r}, {str(solution_path)!r}]
try:
    runpy.run_module("gridtree.milpsolve", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print("dataclasses" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert [line for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "dataclasses"] == []
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
