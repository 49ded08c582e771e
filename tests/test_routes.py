"""gridtree.solve: one call for every method and backend, timed once."""

import ast
import subprocess
import sys

import pytest

import gridtree
from gridtree import bnb, milp, oracle, routes, twostage
from gridtree.cli import main
from gridtree.coherency import slow_coherency
from gridtree.errors import BudgetError, GridTreeError, ModelBuildError
from gridtree.milp import SolverBridge, solution_to_values
from gridtree.routes import solve
from gridtree.solution import solution_to_json, validate_solution

from conftest import BRIDGE_CMD, CASES_DIR, case_net


def _cli(capsys, case, k, *argv):
    code = main(["solve", "--case", str(CASES_DIR / f"{case}.m"), "--k", str(k),
                 "--no-timing", *argv])
    return code, *capsys.readouterr()


def _same_as_the_cli(capsys, case, k, method, bridge=None, argv=()):
    net = case_net(case)
    groups = slow_coherency(net, k)
    code, out, err = _cli(capsys, case, k, "--method", method, *argv)
    if code != 0:
        # a failing solve fails the same way, with the CLI's error line as its text
        with pytest.raises(GridTreeError) as exc:
            gridtree.solve(net, groups, method, bridge=bridge)
        assert f"error: {exc.value}\n" == err
        return
    sol = gridtree.solve(net, groups, method, bridge=bridge)
    validate_solution(net, sol, groups)
    assert solution_to_json(net, sol, include_runtime=False) == out
    assert sol.runtime_s > 0.0


@pytest.mark.parametrize("method", routes.METHODS)
@pytest.mark.parametrize("case, k", [("demo9", 2), ("net030", 3)])
def test_solve_on_the_builtin_backend_writes_what_the_cli_writes(capsys, case, k, method):
    _same_as_the_cli(capsys, case, k, method)


@pytest.mark.parametrize("method", ["milp", "ssr"])
def test_solve_through_the_bridge_writes_what_the_cli_writes(capsys, method):
    bridge = SolverBridge(command=BRIDGE_CMD)
    _same_as_the_cli(capsys, "demo9", 2, method, bridge, ["--bridge-cmd", BRIDGE_CMD])


def test_a_builtin_stop_is_the_budget_error_the_cli_reports(capsys, monkeypatch):
    stops = []

    def spy(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except BudgetError as exc:
            stops.append(exc)
            raise

    monkeypatch.setattr(routes, "solve", spy)
    code, out, err = _cli(capsys, "net240", 5, "--method", "ssr", "--time-limit", "1")
    assert code == 5
    [stop] = stops
    assert err == f"error: {stop}\n"
    assert str(stop).startswith("time limit of 1 s reached before the optimum was proved")
    net = case_net("net240")
    validate_solution(net, stop.incumbent, slow_coherency(net, 5))
    assert f"(incumbent {stop.incumbent.disruption_mw:.2f} MW," in str(stop)
    assert solution_to_json(net, stop.incumbent, include_runtime=False) == out
    # stamped around the whole call, Steiner trees and the 1 s search included
    assert stop.incumbent.runtime_s >= 1.0


def test_a_bridge_stop_carries_its_validated_incumbent(tmp_path):
    net = case_net("demo9")
    groups = slow_coherency(net, 2)
    answer = gridtree.solve(net, groups)
    values = solution_to_values(net, answer)
    text = "# status feasible\n" + "".join(f"{n} {v!r}\n" for n, v in values.items())
    script = tmp_path / "fake.py"
    script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({text!r})\n")
    bridge = SolverBridge(command=f"python3 {script} {{model}} {{solution}}")
    with pytest.raises(BudgetError, match=r"status feasible") as exc:
        gridtree.solve(net, groups, "milp", bridge=bridge)
    sol = exc.value.incumbent
    validate_solution(net, sol, groups)
    assert (sol.partition, sol.disruption_mw) == (answer.partition, answer.disruption_mw)
    assert sol.runtime_s > 0.0


def test_an_unknown_method_is_a_model_build_error():
    net = case_net("demo9")
    with pytest.raises(ModelBuildError, match=r"unknown method 'bogus' \(one of two-stage, "):
        gridtree.solve(net, slow_coherency(net, 2), "bogus")


def test_the_routes_leave_runtime_to_solve():
    net = case_net("demo9")
    groups = slow_coherency(net, 2)
    sols = [
        twostage.two_stage(net, groups),
        oracle.enumerate_optimal(net, groups),
        bnb.solve_builtin(net, groups)[0],
        milp.solve_via_bridge(net, groups, SolverBridge(command=BRIDGE_CMD)),
    ]
    assert [sol.runtime_s for sol in sols] == [0.0] * 4


def test_import_gridtree_loads_no_routes_until_solve_is_used():
    code = """
import sys
import gridtree
assert "gridtree.routes" not in sys.modules and "numpy" not in sys.modules
assert gridtree.solve is sys.modules["gridtree.routes"].solve
assert gridtree.METHODS is gridtree.routes.METHODS
assert "solve" in gridtree.__all__ and "METHODS" in gridtree.__all__
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# exported for the acceptance suite: criterion 5 reads the localization
# report of the library's own check, which no command calls
_EXPORTS_ONLY_TESTS_CALL = {"check_localization"}


def _loads(node, enclosing=frozenset()):
    """Names loaded under ``node`` (``x`` and the ``x`` of ``obj.x``), leaving
    out those a definition loads of its own name, as recursion does."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(getattr(node, "ctx", None), ast.Load):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in enclosing:
            yield name
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, enclosing)


def test_every_package_export_has_a_caller_outside_tests():
    # definitions, __all__ strings and import lines are no loads; the package's
    # own export table in __init__.py is left out
    root = CASES_DIR.parent
    files = [path for path in sorted((root / "src" / "gridtree").glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((root / "tools").glob("*.py")) + sorted((root / "benchmark").glob("*.py"))
    loaded = set()
    for path in files:
        loaded.update(_loads(ast.parse(path.read_text(), filename=str(path))))
    uncalled = sorted(set(gridtree.__all__) - loaded - _EXPORTS_ONLY_TESTS_CALL)
    assert uncalled == []
    assert _EXPORTS_ONLY_TESTS_CALL <= set(gridtree.__all__) - loaded
