"""CLI verbs, exit codes, config precedence, and byte-reproducibility."""

import json
from pathlib import Path

import pytest

from gridtree.cli import main

from conftest import CASES_DIR

DEMO = str(CASES_DIR / "demo9.m")

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
        ({"s.json": "[1, 2"}, ["export-dot", "--solution", "s.json"], 2, "not valid JSON"),
        ({"c.cfg": "method=two-stage\nk=abc\n"}, ["solve", "--config", "c.cfg"], 2, "line 2"),
    ],
    ids=["unknown-slack", "groups-no-k", "groups-unknown-bus", "groups-not-json",
         "solution-not-json", "config-bad-int"],
)
def test_bad_outside_input_exit_codes(capsys, tmp_path, files, argv, code, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main([*argv, "--case", DEMO]) == code
    assert message in capsys.readouterr().err
