"""Command-line front end and benchmark harness.

Verbs: parse, flows, coherency, solve, steiner, bench, export-dot.
Option precedence is flags > config file (flat key=value lines) >
defaults.  Exit codes distinguish parse errors (2), validation errors
(3), infeasibility (4), budget exhaustion (5), bridge failures (6) and
model/configuration problems (7).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import bnb, coherency, dcflow, milp, oracle, render, steiner, twostage
from .errors import (
    BridgeError,
    BudgetError,
    CaseParseError,
    GridTreeError,
    InfeasibleError,
    ModelBuildError,
    NetworkValidationError,
    UnsupportedOperation,
)
from .network import Network, network_to_json, parse_case
from .solution import (
    METHOD_MILP,
    METHOD_SSR,
    _pair,
    solution_from_json,
    solution_to_json,
    validate_solution,
)

BRIDGE_ENV = "GRIDTREE_BRIDGE_CMD"
METHODS = ("two-stage", "milp", "ssr", "oracle")

_EXIT_CODES = (
    (CaseParseError, 2),
    (NetworkValidationError, 3),
    (InfeasibleError, 4),
    (BudgetError, 5),
    (BridgeError, 6),
    (UnsupportedOperation, 7),
    (ModelBuildError, 7),
    (GridTreeError, 1),
)


_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _reader(wants: str, convert, ok=lambda value: True):
    """An option's reader, text -> value.

    It is the flag's argparse ``type=`` and also reads the config key of
    the same name, so the two cannot disagree.
    """
    def read(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, KeyError):
            pass
        raise argparse.ArgumentTypeError(f"needs {wants}, got {text!r}")
    return read


_int = _reader("an integer", int)
_positive_int = _reader("a positive integer", int, lambda n: n > 0)
_seconds = _reader("a number of seconds >= 0", float, lambda s: s >= 0)  # false for NaN
_method = _reader(f"one of {', '.join(METHODS)}", str, lambda m: m in METHODS)
_switch = _reader("1/true/yes or 0/false/no", lambda text: _SWITCH[text.lower()])


def _list_of(read):
    """Reader of a comma-separated list whose items go through ``read``."""
    return lambda text: [read(x) for x in text.split(",") if x]


@dataclass
class RunConfig:
    case: Optional[str] = None
    k: int = 2
    method: str = "milp"
    groups: Optional[str] = None
    slack: Optional[int] = None  # external bus id
    bridge_cmd: Optional[str] = None
    out: Optional[str] = None
    no_timing: bool = False
    limit: int = oracle.DEFAULT_LIMIT
    time_limit: Optional[float] = None  # None: no B&B limit, the bridge's 600 s


# RunConfig field -> the reader of its config key (and of its flag, if typed)
_READERS = {
    "case": str, "k": _int, "method": _method, "groups": str, "slack": _int,
    "bridge_cmd": str, "out": str, "no_timing": _switch, "limit": _positive_int,
    "time_limit": _seconds,
}


def _merged_config(args: argparse.Namespace) -> RunConfig:
    """Flags > config file (key=value lines; other keys ignored) > defaults."""
    cfg = RunConfig()
    path = getattr(args, "config", None)
    lines = _read_text(path, "config file").splitlines() if path else []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CaseParseError(f"config line is not key=value: {raw!r}", line_no=line_no)
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in _READERS:
            try:
                setattr(cfg, key, _READERS[key](val.strip()))
            except argparse.ArgumentTypeError as exc:
                raise CaseParseError(f"config key {key} {exc}", line_no=line_no)
    for name in _READERS:
        flag = getattr(args, name, None)
        if flag is not None and flag is not False:
            setattr(cfg, name, flag)
    if cfg.out:
        _probe_out(cfg.out)
    return cfg


def _unwritable(out: str, exc: OSError) -> CaseParseError:
    return CaseParseError(f"cannot write output file {out!r}: {exc.strerror or exc}")


def _probe_out(out: str) -> None:
    """Fail before any work if ``out`` cannot be written; leaves no new file."""
    existed = os.path.exists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise _unwritable(out, exc)
    if not existed:
        os.remove(out)


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise _unwritable(out, exc)


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CaseParseError(f"cannot read {what} {path!r}: {exc.strerror or exc}")


def _load_network(case_path) -> Network:
    if not case_path:
        raise ModelBuildError("no case file given (use --case or a config entry)")
    return parse_case(_read_text(case_path, "case file"))


def _flowed_network(cfg: RunConfig):
    net = _load_network(cfg.case)
    slack = net.index_of(cfg.slack) if cfg.slack is not None else 0
    flows = dcflow.solve_dc(net, slack, dcflow.balanced_injections(net))
    return dcflow.with_flows(net, flows), flows


def _load_groups(net, cfg: RunConfig):
    if cfg.groups:
        return coherency.groups_from_json(net, _read_text(cfg.groups, "groups file"))
    return coherency.slow_coherency(net, cfg.k)


def _bridge(cfg: RunConfig) -> Optional[milp.SolverBridge]:
    cmd = cfg.bridge_cmd or os.environ.get(BRIDGE_ENV)
    if not cmd:
        return None
    if cfg.time_limit is None:
        return milp.SolverBridge(command=cmd)
    return milp.SolverBridge(command=cmd, timeout_s=cfg.time_limit)


def _solve_with_config(cfg: RunConfig):
    net, _ = _flowed_network(cfg)
    groups = _load_groups(net, cfg)
    bridge = _bridge(cfg)

    if cfg.method == "two-stage":
        return net, twostage.two_stage(net, groups)
    if cfg.method == "oracle":
        return net, oracle.enumerate_optimal(net, groups, limit=cfg.limit)

    fixings = None
    method_tag = METHOD_MILP
    started = time.perf_counter()
    if cfg.method == "ssr":
        trees = [steiner.steiner_tree(net, g) for g in groups.groups]
        fixings = steiner.build_fixings(net, trees)
        method_tag = METHOD_SSR
    if bridge is not None:
        sol = milp.solve_via_bridge(net, groups, bridge, ssr=fixings, method=method_tag)
    else:
        sol, _stats = bnb.solve_builtin(
            net, groups, ssr=fixings, time_limit_s=cfg.time_limit, method=method_tag
        )
    # SSR runtime includes the Steiner precomputation
    sol = dataclasses.replace(sol, runtime_s=time.perf_counter() - started)
    return net, sol


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    cfg = _merged_config(args)
    net = _load_network(cfg.case)
    _emit(network_to_json(net), cfg.out)
    return 0


def cmd_flows(args) -> int:
    cfg = _merged_config(args)
    _, flows = _flowed_network(cfg)
    _emit(flows.to_json(), cfg.out)
    return 0


def cmd_coherency(args) -> int:
    cfg = _merged_config(args)
    net = _load_network(cfg.case)
    groups = coherency.slow_coherency(net, cfg.k)
    _emit(coherency.groups_to_json(net, groups), cfg.out)
    return 0


def cmd_solve(args) -> int:
    cfg = _merged_config(args)
    net, sol = _solve_with_config(cfg)
    _emit(solution_to_json(net, sol, include_runtime=not cfg.no_timing), cfg.out)
    return 0


def cmd_steiner(args) -> int:
    cfg = _merged_config(args)
    net, _ = _flowed_network(cfg)
    groups = _load_groups(net, cfg)
    trees = [steiner.steiner_tree(net, g) for g in groups.groups]
    doc = {
        "k": groups.k,
        "trees": [
            {
                "terminals": sorted(net.buses[i].id for i in t.terminals),
                "nodes": sorted(net.buses[i].id for i in t.nodes),
                "edges": sorted(_pair(net, e) for e in t.edges),
            }
            for t in trees
        ],
    }
    _emit(json.dumps(doc, indent=2) + "\n", cfg.out)
    return 0


def cmd_bench(args) -> int:
    cfg = _merged_config(args)
    cases = [c for c in args.cases.split(",") if c]
    rows = []
    objective: dict[tuple[str, int, str], float] = {}
    for case in cases:
        for k in args.k_values:
            for method in args.methods:
                cell = dataclasses.replace(cfg, case=case, k=k, method=method)
                name = Path(case).stem
                try:
                    _net, sol = _solve_with_config(cell)
                    objective[(name, k, method)] = sol.disruption_mw
                    rows.append(
                        [name, k, method, sol.disruption_mw, sol.runtime_s, "ok"]
                    )
                except GridTreeError as exc:
                    rows.append([name, k, method, None, None, type(exc).__name__])

    lines = ["case,k,method,objective_mw,runtime_s,pct_vs_milp,status"]
    for name, k, method, obj, runtime, status in rows:
        base = objective.get((name, k, "milp"))
        if obj is None:
            pct_txt, obj_txt, rt_txt = "", "", ""
        else:
            obj_txt = f"{obj:.2f}"
            rt_txt = "0.00" if cfg.no_timing else f"{runtime:.2f}"
            pct_txt = (
                f"{100.0 * (obj - base) / base:+.2f}"
                if base not in (None, 0.0)
                else ("+0.00" if method == "milp" else "")
            )
        lines.append(f"{name},{k},{method},{obj_txt},{rt_txt},{pct_txt},{status}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_export_dot(args) -> int:
    cfg = _merged_config(args)
    sol_path = args.solution
    if sol_path:
        net, _ = _flowed_network(cfg)
        sol = solution_from_json(net, _read_text(sol_path, "solution file"))
        validate_solution(net, sol)
        text = render.to_dot(net, sol)
    else:
        net = _load_network(cfg.case)
        text = render.to_dot(net)
    _emit(text, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--slack", type=_int, help="slack bus external id (default: first bus)")
    p.add_argument("--no-timing", action="store_true", help="zero runtime fields in outputs")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--case", help="MATPOWER-subset case file (flag or config key)")
    _add_output_flags(p)


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--bridge-cmd", dest="bridge_cmd", help="external solver command template")
    p.add_argument("--time-limit", dest="time_limit", type=_seconds,
                   help="solver budget (s): built-in B&B limit, or the bridge's {timeout} (600 unset)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridtree",
        description="Tree partitioning of power networks with minimal flow disruption.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse a case file and dump network JSON")
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("flows", help="solve the DC power flow")
    _add_common(p)
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("coherency", help="compute slow-coherency generator groups")
    _add_common(p)
    p.add_argument("--k", type=_int)
    p.set_defaults(func=cmd_coherency)

    p = sub.add_parser("solve", help="compute a tree partition")
    _add_common(p)
    p.add_argument("--k", type=_int)
    p.add_argument("--method", type=_method, help=f"{', '.join(METHODS)} (default milp)")
    p.add_argument("--groups", help="groups JSON file (skips slow coherency)")
    p.add_argument("--limit", type=_positive_int, help="oracle enumeration limit")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("steiner", help="Steiner trees connecting each coherent group")
    _add_common(p)
    p.add_argument("--k", type=_int)
    p.add_argument("--groups", help="groups JSON file")
    p.set_defaults(func=cmd_steiner)

    p = sub.add_parser("bench", help="benchmark methods across cases (CSV)")
    p.add_argument("--cases", required=True, help="comma-separated case files")
    p.add_argument("--k-values", dest="k_values", type=_list_of(_int), required=True,
                   help="comma-separated k values")
    p.add_argument("--methods", type=_list_of(_method), required=True,
                   help="comma-separated methods")
    _add_output_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-dot", help="render a network or solution as DOT")
    _add_common(p)
    p.add_argument("--solution", help="solution JSON produced by solve")
    p.set_defaults(func=cmd_export_dot)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridTreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
