"""CLI verbs, exit codes, config precedence, and byte-reproducibility."""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from gridtree import cli, milpsolve
from gridtree.cli import main

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
    ],
    ids=["malformed-lp", "missing-model"],
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
    ],
    ids=["unknown-slack", "groups-no-k", "groups-unknown-bus", "groups-not-json",
         "groups-not-lists", "solution-not-json", "solution-bad-pair", "config-bad-int",
         "config-negative-time-limit", "config-nan-time-limit",
         "config-negative-limit", "config-zero-limit", "config-bad-bool",
         "config-bad-method", "config-bad-int-under-flag", "out-unwritable",
         "solution-bus-twice", "solution-k-mismatch", "solution-bad-switched",
         "case-fractional-bus-id", "case-fractional-gen-bus", "case-fractional-branch-bus",
         "case-nan-base-mva", "case-nan-pd", "case-inf-pg", "case-inf-br-x", "case-nan-rate-a",
         "case-nan-br-status"],
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
# two-stage} (built-in B&B) and two-stage on the larger cases, taken before
# stage 2 was merged into one definition: case, k, method, exit code and
# SHA-256 of stdout
PINNED_SOLVE_OUTPUTS = """
demo9 2 milp 0 5fe5fc3612ed4e782997481a0678ef543b686487fe72089be4abef6cb2a1fca0
demo9 2 ssr 0 60acde959f54e2b23ad45762622fbac7b98955093b1fbfe4199a48153194df8b
demo9 2 two-stage 0 9434fa7bf69d09694392404dfddc22f94f2dee9d145125ff6400331cf7dc3d37
demo9 3 milp 0 f81f08de8b6864705776cf0d8ee72fde9e1c934a822b80b984caf6ccbf6d47ea
demo9 3 ssr 0 021bad93911e6782b521bad9db060e0bb2b4562b5d068312c6b5fa9d3f58539f
demo9 3 two-stage 0 c0a4dfabd2b493988abc06a6ffa4375b9d1f9ca9bbd0a95e0134ac1235e31b65
demo9 4 milp 0 9c7d7aaf8fbfdfd3acfbafca0df6dc0bbc88b53481f86d2be0c1e296edb7ce22
demo9 4 ssr 0 abfc09a9f30ed5db2cc926758a12a59a29592498da1348b03e54be377da79b01
demo9 4 two-stage 0 1b81d93e3f43f69418fa7eb4bf3114b1a8e5634434ff18d8a2e1675bf4cf7125
demo9 5 milp 3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
demo9 5 ssr 3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
demo9 5 two-stage 3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net030 2 milp 0 306ee801e32d33b6c8be3a4d05bee613b7c7f2cd45380dc901f2d6aa2dd82269
net030 2 ssr 0 dc4606edb148f197e7e7ab822758f4ae4e8ec96bfad9ee1a2e240ebb399a053a
net030 2 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net030 3 milp 0 60549b6a670cc936e344f9a25f1c9305b6be7ce8e0eab54eb0f255ebe1e5a3cb
net030 3 ssr 0 42464b02e69314ad48f3d58db9a10f8b30b16ba0e3d39cb357876bb2b89dabfc
net030 3 two-stage 0 e5fce1fd276b6f9bc756e0afcf26ddcb16854d0532160a3173b6dcc298ea2f2a
net030 4 milp 0 c5ce1bf85c5e442be57a69817375b53aa4abb731dfe7ad9b2e76b0959c6f3a29
net030 4 ssr 0 d8ca15c8ea11c1dc89936031adc8da9cb0a7f66e1964c1f8607c7b448161545e
net030 4 two-stage 0 f3ed6a3e1af1583354da91a219459b2bef742bc6da36d15c44192867ecdd5d35
net030 5 milp 0 465f9dd334fa01f8d439542958e4d5fd0cda5ea072d2efd5b9ec9980237060c1
net030 5 ssr 0 9806543b366f1ebc030430148fee5fdef383a23124757620e62fc4d5d4890c01
net030 5 two-stage 0 7775d7ba60d982fa9479d85053ce6e639fa88ec20b47b3b0853dee975513b368
net057 2 milp 0 7a22643c0c371a8b3964ffd67b9258c75ae76b465861ad3eb5c5bb85a0e53736
net057 2 ssr 0 2b12e9b49793bfb2597eafadbddc3bb74656588250857fd3064d94ed93d6f949
net057 2 two-stage 0 18dd852838d9f6982d534b482474f29555e1ad2b04d05620b06963b128835904
net057 3 milp 0 cf9901d424141a1dbc9180af8b14571186448508fafbab8d33d17c679a45d786
net057 3 ssr 0 f6c9d488187e54339eb8398208a8ec8e3119cc665662b8c10698272f0b5a9131
net057 3 two-stage 0 a58f164b69aca912e98ab4f4c602ff7f3e535b58b5f45ff5503a709881e58b56
net057 4 milp 0 816f6a863c37c4d250d2872e6b0fde92200120e1122197ba8979e23e5ba33ea2
net057 4 ssr 0 1fa7d2956509c3b3d03810ac611ad4b5e3d931b3fbc4637a029e61e2a359d491
net057 4 two-stage 0 1e614ec28864b93de3634891c532989d4e63f8b15a791acc0e2f5a3be45ffe4d
net057 5 milp 0 0547e67528fd8d79aea75c513457852fed738fb1a52ed1b2a0cd90029c6b3e29
net057 5 ssr 0 de2b4e731ca1b087be9356d012bfd6dcf848462605b89c15d092c0392351aea7
net057 5 two-stage 0 e194da4cc49168c9e2441e244823833d6ae632eaef9956f587037d4dc168cc88
net118 2 two-stage 0 372cde57efd2d4ad930d80ffc095e75388853e0a2f7626f9ffc4fa429c9913b6
net118 3 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net118 4 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net118 5 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net240 2 two-stage 0 99640a91e9ac1d1e68b04f0ecf8960710a78f0f403f22a608e0c1beb22cbfd2c
net240 3 two-stage 0 d2c18ada7655c73ef3ed3d321143287fef1ad3bd05b3f3d48a898e094a672d93
net240 4 two-stage 0 b70ba8e96efd8b2a7608d0049f7fbced0f10215030cf72f541bf788311f8eba9
net240 5 two-stage 0 856c75cf07956e627ccaec33846d8074c3323294bad65414f5c1f3473454b54f
net300 2 two-stage 4 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
net300 3 two-stage 0 456fe26a28087826067a4d57cf673239ff4af5f001c0725346afc0b2d1815649
net300 4 two-stage 0 72bf3f87b9d2e2f058d9888888c71e31eae743011ac99b969f2153dd35b662f6
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
