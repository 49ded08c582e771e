"""CLI verbs, exit codes, config precedence, and byte-reproducibility."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gridtree import cli, milpsolve
from gridtree.cli import main
from gridtree.milp import solution_to_values
from gridtree.solution import solution_from_json, validate_solution

from conftest import BRIDGE_CMD, CASES_DIR

DEMO = str(CASES_DIR / "demo9.m")
DEMO_TEXT = Path(DEMO).read_text()

TOY_CASE = """
mpc.baseMVA = 100;
mpc.bus = [
    1 2 0  0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 60 0 0 0 1 1 0 0 1 1.1 0.9;
    3 2 0  0 0 0 1 1 0 0 1 1.1 0.9;
    4 1 40 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 70 0 0 0 1 100 1 100 0;
    3 30 0 0 0 1 100 1 100 0;
];
mpc.branch = [
    1 2 0 0.1 0 0 0 0 0 0 1;
    2 3 0 0.1 0 0 0 0 0 0 1;
    3 4 0 0.1 0 0 0 0 0 0 1;
    1 4 0 0.1 0 0 0 0 0 0 1;
];
"""

# a 4-bus path case: any 2-split is a tree partition that switches nothing
PATH_CASE = """
mpc.baseMVA = 100;
mpc.bus = [
    1 2 0  0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 60 0 0 0 1 1 0 0 1 1.1 0.9;
    3 1 40 0 0 0 1 1 0 0 1 1.1 0.9;
    4 2 0  0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 70 0 0 0 1 100 1 100 0;
    4 30 0 0 0 1 100 1 100 0;
];
mpc.branch = [
    1 2 0 0.1 0 0 0 0 0 0 1;
    2 3 0 0.1 0 0 0 0 0 0 1;
    3 4 0 0.1 0 0 0 0 0 0 1;
];
"""


@pytest.fixture
def toy_case(tmp_path):
    path = tmp_path / "toy4.m"
    path.write_text(TOY_CASE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_verb(capsys, toy_case):
    code, out = run(capsys, "parse", "--case", toy_case)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["buses"]) == 4 and len(doc["lines"]) == 4


def test_flows_verb_balances(capsys, toy_case):
    code, out = run(capsys, "flows", "--case", toy_case)
    assert code == 0
    doc = json.loads(out)
    assert doc["slack"] == 0
    assert len(doc["flows_mw"]) == 4


def test_coherency_verb(capsys, toy_case):
    code, out = run(capsys, "coherency", "--case", toy_case, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert sorted(map(sorted, doc["groups"])) == [[1], [3]]


def test_coherency_reads_k_from_config(capsys, tmp_path):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k=3\n")
    code, out = run(capsys, "coherency", "--case", DEMO, "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3 and len(doc["groups"]) == 3


def test_solve_each_method(capsys, toy_case):
    for method in ("oracle", "milp", "ssr", "two-stage"):
        code, out = run(
            capsys, "solve", "--case", toy_case, "--k", "2", "--method", method
        )
        assert code == 0, f"{method} failed"
        doc = json.loads(out)
        assert doc["k"] == 2
        assert len(doc["bridges"]) == 1
        assert doc["disruption_mw"] >= 0.0


def test_solve_writes_file_and_exports_dot(capsys, toy_case, tmp_path):
    sol_path = tmp_path / "sol.json"
    code, _ = run(
        capsys, "solve", "--case", toy_case, "--k", "2", "--method", "oracle",
        "--out", str(sol_path),
    )
    assert code == 0 and sol_path.exists()
    code, dot = run(
        capsys, "export-dot", "--case", toy_case, "--solution", str(sol_path)
    )
    assert code == 0
    assert dot.startswith("graph network {")
    assert "style=dashed" in dot  # switched line present
    assert "penwidth=2.5" in dot  # retained bridge bold


def test_export_dot_without_solution(capsys, toy_case):
    code, dot = run(capsys, "export-dot", "--case", toy_case)
    assert code == 0
    assert dot.count("--") == 4


def test_steiner_verb(capsys, toy_case):
    code, out = run(capsys, "steiner", "--case", toy_case, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert all(set(t) == {"terminals", "nodes", "edges"} for t in doc["trees"])


def test_bench_csv_layout(capsys, toy_case):
    code, out = run(
        capsys, "bench", "--cases", toy_case, "--k-values", "2",
        "--methods", "two-stage,milp,ssr", "--no-timing",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,k,method,objective_mw,runtime_s,pct_vs_milp,status"
    assert len(lines) == 4
    milp_row = [l for l in lines if ",milp," in l][0]
    assert milp_row.split(",")[5] == "+0.00"
    for row in lines[1:]:
        assert row.split(",")[6] == "ok"


def test_bench_records_failures_and_continues(capsys, tmp_path, toy_case):
    # second case is unreadable: its rows carry an error status
    code, out = run(
        capsys, "bench", "--cases", f"{toy_case},{tmp_path}/missing.m",
        "--k-values", "2", "--methods", "milp", "--no-timing",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("ok")
    assert lines[2].endswith("CaseParseError")


def test_byte_identical_reruns(capsys, toy_case):
    args = ("solve", "--case", toy_case, "--k", "2", "--method", "milp", "--no-timing")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second

    bench_args = (
        "bench", "--cases", toy_case, "--k-values", "2",
        "--methods", "two-stage,milp", "--no-timing",
    )
    _, b1 = run(capsys, *bench_args)
    _, b2 = run(capsys, *bench_args)
    assert b1 == b2


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.m"
    bad.write_text("mpc.baseMVA = 100;\n")
    code, _ = run(capsys, "parse", "--case", str(bad))
    assert code == 2


def test_exit_code_missing_file(capsys):
    code, _ = run(capsys, "parse", "--case", "/nonexistent/case.m")
    assert code == 2


def test_exit_code_infeasible(capsys, tmp_path, toy_case):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"k": 2, "groups": [[1, 3], [2]]}))
    # bus 2 is not a generator: validation error (exit 3)
    code, _ = run(
        capsys, "solve", "--case", toy_case, "--k", "2", "--method", "milp",
        "--groups", str(groups),
    )
    assert code == 3


def test_groups_file_round_trips_through_solve(capsys, toy_case, tmp_path):
    groups_path = tmp_path / "groups.json"
    code, _ = run(
        capsys, "coherency", "--case", toy_case, "--k", "2", "--out", str(groups_path)
    )
    assert code == 0
    code, out = run(
        capsys, "solve", "--case", toy_case, "--k", "2", "--method", "oracle",
        "--groups", str(groups_path),
    )
    assert code == 0
    doc = json.loads(out)
    clusters = [set(c) for c in doc["clusters"]]
    assert any({1} <= c for c in clusters) and any({3} <= c for c in clusters)


def test_config_file_defaults_and_flag_precedence(capsys, toy_case, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case={toy_case}\nk=2\nmethod=oracle\n")
    code, out = run(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["method"] == "ORACLE"
    code, out = run(capsys, "solve", "--config", str(cfg), "--method", "two-stage")
    assert code == 0
    assert json.loads(out)["method"] == "TWO_STAGE"


def test_config_file_ignores_retired_seed_key(capsys, toy_case, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case={toy_case}\nk=2\nmethod=oracle\nseed=7\n")
    code, out = run(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["method"] == "ORACLE"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--case", DEMO, "--k", "2"],
        ["bench", "--cases", DEMO, "--k-values", "2", "--methods", "oracle"],
    ],
)
def test_seed_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--case", DEMO, "--k", "2"],
        ["solve", "--case", DEMO, "--k", "2", "--bridge-cmd", "true {model} {solution}"],
        ["bench", "--cases", DEMO, "--k-values", "2", "--methods", "oracle"],
    ],
    ids=["solve-builtin", "solve-bridge", "bench"],
)
def test_time_limit_flag_must_be_nonnegative(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--time-limit", value])
    assert exc.value.code == 2
    assert "--time-limit: needs a number of seconds >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5", "ten"])
def test_limit_flag_must_be_positive(capsys, value):
    # -5 exited 5 with "32 assignments exceed the enumeration limit -5"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", DEMO, "--k", "2", "--method", "oracle", "--limit", value])
    assert exc.value.code == 2
    assert f"--limit: needs a positive integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "template, message",
    [
        (
            "python3 -c \"import pathlib, sys; from gridtree.milpsolve import main; "
            "p = pathlib.Path(sys.argv[1]); p.write_text(p.read_text().replace('Binary', 'General')); "
            "sys.exit(main(sys.argv[1:]))\" {model} {solution}",
            "unknown LP section 'General'",
        ),
        ("python3 -m gridtree.milpsolve {model}.missing {solution}", "cannot read model file"),
        (
            "python3 -c \"import sys, gridtree.milpsolve as m; "
            "m._CORE = 'scipy.optimize._highspy._missing'; sys.exit(m.main(sys.argv[1:]))\" "
            "{model} {solution}",
            "_highspy._missing was not found",
        ),
    ],
    ids=["malformed-lp", "missing-model", "missing-highs"],
)
def test_milpsolve_error_line_ends_a_bridge_failure(capsys, template, message):
    assert main(["solve", "--case", DEMO, "--k", "2", "--bridge-cmd", template]) == 6
    err = capsys.readouterr().err
    assert "solver exited with 2: gridtree-milpsolve: error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, timeout", [(["--time-limit", "7"], "7.0"), ([], "600.0")])
def test_time_limit_is_the_bridge_timeout(capsys, tmp_path, flags, timeout):
    seen = tmp_path / "seen.txt"
    script = tmp_path / "fake.py"
    script.write_text(
        "import sys\n"
        f"open({str(seen)!r}, 'w').write(sys.argv[3])\n"
        "open(sys.argv[2], 'w').write('# status infeasible\\n')\n"
    )
    cmd = f"python3 {script} {{model}} {{solution}} {{timeout}}"
    assert main(["solve", "--case", DEMO, "--k", "2", "--bridge-cmd", cmd, *flags]) == 4
    assert seen.read_text() == timeout


@pytest.mark.parametrize("limit", ["inf", "1e308", "1e10"])
def test_huge_time_limit_runs_the_bridge_without_a_kill_deadline(capsys, limit):
    # a subprocess timeout at or above threading.TIMEOUT_MAX (about 9.2e9 s)
    # overflows, so the solver child runs with no deadline instead
    argv = ["solve", "--case", DEMO, "--k", "2", "--no-timing",
            "--bridge-cmd", BRIDGE_CMD + " --time-limit {timeout}"]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)["disruption_mw"]
    assert main([*argv, "--time-limit", limit]) == 0
    assert json.loads(capsys.readouterr().out)["disruption_mw"] == want


def test_bridge_env_is_the_default_bridge_and_the_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("GRIDTREE_BRIDGE_CMD", "false {model} {solution}")
    argv = ["solve", "--case", DEMO, "--k", "2", "--method", "milp"]
    assert main(argv) == 6
    assert main([*argv, "--bridge-cmd", BRIDGE_CMD]) == 0


def test_bridge_timeout_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", DEMO, "--k", "2", "--bridge-timeout", "5"])
    assert exc.value.code == 2


# a stop at the time limit exits 5 on every backend and writes the unproved
# answer it holds, if any; only a proved answer exits 0

def test_builtin_stop_writes_its_unproved_incumbent_and_exits_5(capsys):
    case = str(CASES_DIR / "net240.m")
    argv = ["solve", "--case", case, "--k", "5", "--method", "ssr", "--no-timing"]
    assert main([*argv, "--time-limit", "1"]) == 5
    out, err = capsys.readouterr()
    assert err.startswith("error: time limit of 1 s reached") and err.count("\n") == 1
    net, _ = cli._flowed_network(cli.RunConfig(case=case))
    sol = solution_from_json(net, out)
    validate_solution(net, sol)
    # 420.61 MW is the proved optimum; the incumbent at 1 s depends on machine speed
    assert sol.disruption_mw >= 420.61 - 1e-6


def _demo_answer_and_solver(capsys, tmp_path, status):
    """demo9 k=2's proved answer, and a fake solver that stops with ``status``
    holding that answer's values."""
    assert main(["solve", "--case", DEMO, "--k", "2", "--no-timing"]) == 0
    answer = capsys.readouterr().out
    net, _ = cli._flowed_network(cli.RunConfig(case=DEMO))
    values = solution_to_values(net, solution_from_json(net, answer))
    text = f"# status {status}\n" + "".join(f"{n} {v!r}\n" for n, v in values.items())
    script = tmp_path / "fake.py"
    script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({text!r})\n")
    return answer, f"python3 {script} {{model}} {{solution}}"


@pytest.mark.parametrize("status, writes", [("feasible", True), ("timeout", False)])
def test_bridge_stop_writes_its_incumbent_and_exits_5(capsys, tmp_path, status, writes):
    answer, solver = _demo_answer_and_solver(capsys, tmp_path, status)
    argv = ["solve", "--case", DEMO, "--k", "2", "--no-timing", "--bridge-cmd", solver]
    assert main(argv) == 5
    out, err = capsys.readouterr()
    assert out == (answer if writes else "")
    assert err == f"error: solver stopped at its limit before proving optimality (status {status})\n"


def test_bench_row_of_a_budget_stop_reads_unproved(capsys, tmp_path):
    answer, solver = _demo_answer_and_solver(capsys, tmp_path, "feasible")
    mw = json.loads(answer)["disruption_mw"]
    assert main(["bench", "--cases", DEMO, "--k-values", "2", "--methods", "milp",
                 "--no-timing", "--bridge-cmd", solver]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"demo9,2,milp,{mw:.2f},0.00,+0.00,unproved"


def test_a_killed_solver_child_is_a_bridge_failure(capsys, monkeypatch):
    def expire(cmd, timeout, **_kwargs):
        raise subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(subprocess, "run", expire)
    argv = ["solve", "--case", DEMO, "--k", "2", "--time-limit", "5", "--bridge-cmd", BRIDGE_CMD]
    assert main(argv) == 6
    assert capsys.readouterr() == ("", "error: solver killed 30 s past its 5 s limit: python3\n")


def _help_text(entry, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        entry([*argv, "--help"])
    return out.getvalue()


def test_readme_flags_exist():
    # every --flag the README shows must be accepted by a gridtree verb or milpsolve
    verbs = re.search(r"\{([\w,-]+)\}", _help_text(main, [])).group(1).split(",")
    helps = [_help_text(milpsolve.main, [])] + [_help_text(main, [verb]) for verb in verbs]
    known = set(re.findall(r"--[a-z][\w-]*", "".join(helps)))
    readme = (CASES_DIR.parent / "README.md").read_text()
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme)) - known == set()


def test_bench_k_values_must_be_integers(capsys):
    # and --methods must name known methods: both are usage errors
    for k_values, methods, flag in [("2,x", "oracle", "--k-values"),
                                    ("2", "milp,bogus", "--methods")]:
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--cases", DEMO, "--k-values", k_values, "--methods", methods])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [("k", "abc"), ("slack", "1.5"), ("method", "bogus"), ("limit", "0"), ("time_limit", "-1")],
)
def test_flag_and_config_key_read_alike(capsys, tmp_path, name, value):
    # one reader per option: the flag and the config key fail with its message
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--case", DEMO, flag, value])
    assert exc.value.code == 2
    reader_message = capsys.readouterr().err.split(f"argument {flag}: ", 1)[1].strip()
    assert reader_message.startswith("needs ") and repr(value) in reader_message
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{name}={value}\n")
    assert main(["solve", "--case", DEMO, "--config", str(cfg)]) == 2
    assert f"line 1: config key {name} {reader_message}" in capsys.readouterr().err


def test_demo_case_solves(capsys):
    code, out = run(capsys, "solve", "--case", DEMO, "--k", "2", "--method", "milp")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "MILP"
    assert len(doc["clusters"]) == 2


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        ({}, ["solve", "--k", "2", "--slack", "999"], 3, "unknown bus id 999"),
        ({"g.json": '{"groups": [[2, 7], [3, 5]]}'}, ["solve", "--groups", "g.json"], 2, "'k'"),
        (
            {"g.json": '{"k": 2, "groups": [[2, 77777], [3, 5]]}'},
            ["solve", "--groups", "g.json"], 3, "unknown bus id 77777",
        ),
        ({"g.json": "{not json"}, ["solve", "--groups", "g.json"], 2, "not valid JSON"),
        (
            {"g.json": '{"k": 2, "groups": 5}'},
            ["solve", "--groups", "g.json"], 2, "'groups' must be a list of lists",
        ),
        ({"s.json": "[1, 2"}, ["export-dot", "--solution", "s.json"], 2, "not valid JSON"),
        (
            {"s.json": json.dumps({
                "method": "MILP", "k": 2, "clusters": [[1, 2], [3]],
                "switched": [[1, 2, 3]], "bridges": [], "disruption_mw": 0.0,
            })},
            ["export-dot", "--solution", "s.json"], 2, "'switched' must be a list of",
        ),
        ({"c.cfg": "method=two-stage\nk=abc\n"}, ["solve", "--config", "c.cfg"], 2, "line 2"),
        (
            {"c.cfg": "method=two-stage\ntime_limit=-1\n"}, ["solve", "--config", "c.cfg"],
            2, "line 2: config key time_limit needs a number of seconds >= 0",
        ),
        (
            {"c.cfg": "time_limit=nan\nmethod=two-stage\n"}, ["solve", "--config", "c.cfg"],
            2, "line 1: config key time_limit needs a number of seconds >= 0",
        ),
        (
            {"c.cfg": "method=oracle\nlimit=-5\n"}, ["solve", "--config", "c.cfg"],
            2, "line 2: config key limit needs a positive integer, got '-5'",
        ),
        (
            {"c.cfg": "limit=0\nmethod=oracle\n"}, ["solve", "--config", "c.cfg"],
            2, "line 1: config key limit needs a positive integer, got '0'",
        ),
        (
            {"c.cfg": "method=two-stage\nno_timing=maybe\n"}, ["solve", "--config", "c.cfg"],
            2, "line 2: config key no_timing needs 1/true/yes or 0/false/no, got 'maybe'",
        ),
        (
            {"c.cfg": "method=bogus\n"}, ["solve", "--config", "c.cfg"],
            2, "line 1: config key method needs one of two-stage, milp, ssr, oracle, got 'bogus'",
        ),
        (
            {"c.cfg": "k=abc\n"}, ["solve", "--config", "c.cfg", "--k", "2"],
            2, "line 1: config key k needs an integer, got 'abc'",
        ),
        (
            {}, ["parse", "--out", "/nonexistent/dir/x.json"],
            2, "cannot write output file '/nonexistent/dir/x.json': No such file or directory",
        ),
        (
            {"s.json": json.dumps({
                "method": "MILP", "k": 2, "clusters": [[1, 2, 3, 5, 7, 8, 9], [4, 6, 1]],
                "switched": [[1, 4]], "bridges": [[1, 6]], "disruption_mw": 15.9,
            })},
            ["export-dot", "--solution", "s.json"], 3, "bus 1 assigned twice",
        ),
        (
            {"s.json": json.dumps({
                "method": "MILP", "k": 3, "clusters": [[1, 2, 3, 5, 7, 8, 9], [4, 6]],
                "switched": [[1, 4]], "bridges": [[1, 6]], "disruption_mw": 15.9,
            })},
            ["export-dot", "--solution", "s.json"], 3, "k=3 but 2 clusters",
        ),
        (
            {"s.json": json.dumps({
                "method": "ORACLE", "k": 2, "clusters": [[1, 2, 3, 5, 7, 8, 9], [4, 6]],
                "switched": [], "bridges": [[1, 6]], "disruption_mw": 15.9,
            })},
            ["export-dot", "--solution", "s.json"], 3, "do not equal the cross edges",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t2\t1\t159.2\t", "\t2.5\t1\t159.2\t")},
            ["parse", "--case", "c.m"], 2, "line 6: BUS_I must be an integer bus id, got 2.5",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t4\t38.0\t", "\t4.25\t38.0\t")},
            ["parse", "--case", "c.m"], 2, "line 17: GEN_BUS must be an integer bus id, got 4.25",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t2\t8\t0\t", "\t2.7\t8\t0\t")},
            ["parse", "--case", "c.m"], 2, "line 30: F_BUS must be an integer bus id, got 2.7",
        ),
        (
            {"c.m": DEMO_TEXT.replace("mpc.baseMVA = 100;", "mpc.baseMVA = NaN;")},
            ["parse", "--case", "c.m"], 2, "line 3: baseMVA must be finite, got nan",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t2\t1\t159.2\t", "\t2\t1\tnan\t")},
            ["solve", "--case", "c.m"], 2, "line 6: PD must be finite, got nan",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t4\t38.0\t", "\t4\t-Inf\t")},
            ["parse", "--case", "c.m"], 2, "line 17: PG must be finite, got -inf",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t0.051149\t", "\tInf\t")},
            ["solve", "--case", "c.m"], 2, "line 30: BR_X must be finite, got inf",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t0.051149\t0\t0\t", "\t0.051149\t0\tnan\t")},
            ["parse", "--case", "c.m"], 2, "line 30: RATE_A must be finite, got nan",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t0.051149\t0\t0\t0\t0\t0\t0\t1;",
                                      "\t0.051149\t0\t0\t0\t0\t0\t0\tnan;")},
            ["parse", "--case", "c.m"], 2, "line 30: BR_STATUS must be finite, got nan",
        ),
        (
            {"c.m": DEMO_TEXT.replace("mpc.baseMVA = 100;", "mpc.baseMVA = 1e-300;")},
            ["solve", "--case", "c.m"], 3, "values too extreme for a DC solve",
        ),
        (
            {"c.m": DEMO_TEXT.replace("\t1\t1\t14.5\t", "\t1\t1\t1e61\t")},
            ["solve", "--case", "c.m"], 3, "values too extreme for a DC solve",
        ),
    ],
    ids=["unknown-slack", "groups-no-k", "groups-unknown-bus", "groups-not-json",
         "groups-not-lists", "solution-not-json", "solution-bad-pair", "config-bad-int",
         "config-negative-time-limit", "config-nan-time-limit",
         "config-negative-limit", "config-zero-limit", "config-bad-bool",
         "config-bad-method", "config-bad-int-under-flag", "out-unwritable",
         "solution-bus-twice", "solution-k-mismatch", "solution-bad-switched",
         "case-fractional-bus-id", "case-fractional-gen-bus", "case-fractional-branch-bus",
         "case-nan-base-mva", "case-nan-pd", "case-inf-pg", "case-inf-br-x", "case-nan-rate-a",
         "case-nan-br-status", "case-tiny-base-mva", "case-huge-pd"],
)
def test_bad_outside_input_exit_codes(capsys, tmp_path, files, argv, code, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    # rows that bring their own case keep it; the rest solve demo9
    assert main(argv if "--case" in argv else [*argv, "--case", DEMO]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["parse"], ["flows"], ["coherency", "--k", "2"], ["solve", "--k", "2"],
    ["steiner", "--k", "2"], ["export-dot"],
    ["bench", "--cases", DEMO, "--k-values", "2", "--methods", "milp"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_rejected_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*_args):
        pytest.fail("work started before --out was checked")

    monkeypatch.setattr(cli, "_load_network", no_work)
    monkeypatch.setattr(cli, "_solve_with_config", no_work)
    out = tmp_path / "missing" / "x.csv"
    case = [] if argv[0] == "bench" else ["--case", DEMO]
    assert main([*argv, *case, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write output file {str(out)!r}: No such file or directory\n"


def test_out_probe_leaves_no_file_behind_on_failure(capsys, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", "--case", DEMO, "--k", "5", "--out", str(out)]) == 3
    assert not out.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    assert main(["solve", "--case", DEMO, "--k", "5", "--out", str(kept)]) == 3
    assert kept.read_text() == "old\n"


@pytest.mark.parametrize("method", ["milp", "ssr", "oracle", "two-stage"])
def test_cli_prints_zero_disruption_as_float(capsys, tmp_path, method):
    case = tmp_path / "path4.m"
    case.write_text(PATH_CASE)
    assert main(["solve", "--case", str(case), "--k", "2", "--method", method,
                 "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert '"disruption_mw": 0.0,' in out
    assert json.loads(out)["switched"] == []


# `solve --no-timing` for demo9/net030/net057 x k=2..5 x {milp, ssr,
# two-stage} (built-in B&B) and two-stage on the larger cases: case, k,
# method, exit code and SHA-256 of stdout
PINNED_SOLVE_OUTPUTS = """
demo9 2 milp 0 fcbeb99acce73202e2c6487b7cb89cf48236a6d2a76f293651b8c3c6f3be176c
demo9 2 ssr 0 6795f02228dd04220538efd6ef21b18c4a39dd079d246461dd5ec94158eee629
demo9 2 two-stage 0 f36601451c84e76463fd12f301949043349b723689753052d53b9fc746aee616
demo9 3 milp 0 23669faa8da1d509e05d5697fa1b81d1fcb34418a2e4f02c4bb66f5ef2b74a56
demo9 3 ssr 0 94cc891cf766970fc7f41a7b64da81dcd1095b79fdd68787448980eec57eae9a
demo9 3 two-stage 0 2c3723a3125c8e3d5a8bbe0bdd44818cef408edddfd5ef76c30525228258e43c
demo9 4 milp 0 aa29fe4057f1cc804e61cc5ad6635bdfe4f593da18807f0d44790338b588e5bf
demo9 4 ssr 0 1224c73ea0ded21284446e0e2e81b77d70bb0c47b3cb59f9362344725f681629
demo9 4 two-stage 0 7627fb97fd6563190bdfaa99daf3ea759de31129724418041368ef6dbef0970a
demo9 5 milp 3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
demo9 5 ssr 3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
demo9 5 two-stage 3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net030 2 milp 0 31c8379569a436391f96ff8b4076c8248064a3a5a9aa75f465ba7f0f8a43462b
net030 2 ssr 0 ccede077949b9217a3271d2bbacc85a13fc0687159e8a5e9883bfae2fb87efac
net030 2 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net030 3 milp 0 0b49b7b08862cbf20c5a56919fb9c28cd3d4a8292a4f8ff761b93482371c2f93
net030 3 ssr 0 8bcb73ef7328bca0bb01f9309ed394e81e3bb56cf99501831961dff643322b83
net030 3 two-stage 0 e5fce1fd276b6f9bc756e0afcf26ddcb16854d0532160a3173b6dcc298ea2f2a
net030 4 milp 0 c9e7a3ddc11df36dff1b6806e92bef9991615cb1b8a13aa0223f5e5b254a3ba2
net030 4 ssr 0 d4bb55dea79a9ca7b573e6723ca7e1c95b11fa26ab0935b4baf4547d0ee2e880
net030 4 two-stage 0 f3ed6a3e1af1583354da91a219459b2bef742bc6da36d15c44192867ecdd5d35
net030 5 milp 0 d083384288a87211980c3af9084c76735085671d4324bf76e13d5546baf37e38
net030 5 ssr 0 f473ac5c9265edf0a0cc7b55504570940e29e0f85c2f62a0f1c8aa82cc40dba8
net030 5 two-stage 0 73c115e4085cbf4a83ad7174675c7bf33878e8c83925a791b71fae82c812d253
net057 2 milp 0 07118e09373d9625e2f5ccff48e854498552acc123c86db5e68ba396ec0705a2
net057 2 ssr 0 d2ea82eaea0643d8eeb200fa0963b11565e98424f183f88d02fa1d71327b6033
net057 2 two-stage 0 bf368bcfb60ea935e86fe4e44e3a1e895635a3a4c6e03551007f3d8e435a63e2
net057 3 milp 0 5f133f38d553d1e6aa79719df8555a74b58e6129abb4c7b0263397b0603ad298
net057 3 ssr 0 52f549fa0043fe7151e83a01855e9bd4a7843e3f903724b464409df21c33f256
net057 3 two-stage 0 fb64b0d60f0746350d5e35184f3bc10305728555703f064d5be4f5c05c60763c
net057 4 milp 0 0d6ba0a6468b42bea15bf9022ac1f7877293e6e43bfaf0faf3248762b69d0b7e
net057 4 ssr 0 db3943ee24594e89ea7192241f87a9965d639c30b5f4bc14651e7f310ed0232a
net057 4 two-stage 0 f7228e622aae40d23ec7ee79bfe624ba35fcaecfd2d9fd593d2493a8b8d6f65d
net057 5 milp 0 39cd14726d84eacb6835585f1574becffa7c8e9ac26a822dc3b3e4b20fbc85de
net057 5 ssr 0 96994a73d7823735665e0f33f17d3ef6af021cddb61e6e0351a9202c49b2010a
net057 5 two-stage 0 526dfa30a0b576daf979f83f0ce5a83fddebb118d3a1877c7852964bebff40e0
net118 2 two-stage 0 04c4f49850d7e746d26669de7490b2fd5322ae7bdca4dd14af9fe11d1a22b855
net118 3 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net118 4 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net118 5 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net240 2 two-stage 0 db103613bf6707a0c03a82c425a92440d6e28e063e5140b26b069f91309c3dc1
net240 3 two-stage 0 511f7a0b6959782beee7b4de4ddf3c251351ef487c06515b5bf7a1366bb3b532
net240 4 two-stage 0 fe5178ac5392404e46fedee55572ac3a4b2ba26019e9ec09e6f21e7e1aed2ad8
net240 5 two-stage 0 499ce614b70e50b0a37a3a605b9f12bf5fad2554fb1e2839f86f3e279fa8b36f
net300 2 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net300 3 two-stage 0 ade457561ce3b6daabebbea5769ed206bbdb88457855b45969374a087a76fcd9
net300 4 two-stage 0 d15be782fe5068aff0747c79e25a55d9469e9bb5ad858b6d8e9046ecd61ccfeb
net300 5 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
"""


def test_solve_outputs_are_pinned():
    for row in PINNED_SOLVE_OUTPUTS.split("\n")[1:-1]:
        case, k, method, code, digest = row.split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = main(["solve", "--case", str(CASES_DIR / f"{case}.m"), "--k", k,
                        "--method", method, "--no-timing"])
        assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (
            int(code), digest), row


# every verb that runs in the calling process; solve takes the built-in routes
SCIPY_FREE_ARGV = [
    ["parse"], ["flows"], ["coherency", "--k", "2"], ["steiner", "--k", "2"], ["export-dot"],
    *(["solve", "--k", "2", "--method", m, "--no-timing"]
      for m in ("milp", "ssr", "two-stage", "oracle")),
]
SCIPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import gridtree.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.modules["scipy"] = None  # any later scipy import raises ImportError
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([gridtree.cli.main(argv), out.getvalue()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def test_verbs_run_without_scipy(capsys):
    # scipy (HiGHS) belongs to the gridtree.milpsolve solver child alone
    argvs = [[*argv, "--case", DEMO] for argv in SCIPY_FREE_ARGV]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert blocked["loaded"] == [] and len(blocked["runs"]) == len(argvs)
    for argv, (code, out) in zip(argvs, blocked["runs"]):
        assert (code, out) == (main(argv), capsys.readouterr().out), argv
