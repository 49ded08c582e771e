"""Command-line front end and benchmark harness.

Verbs: parse, flows, coherency, solve, steiner, bench, export-dot.
Each option is declared once, as a ``RunConfig`` field naming its
reader, default and help; ``_VERBS`` names the options each verb's
parser takes.  Option precedence is flags > config file (flat
key=value lines) > defaults; no option is read from the environment.
Exit codes distinguish parse errors (2), validation errors (3),
infeasibility (4), budget exhaustion (5), bridge failures (6) and
model/configuration problems (7).  ``solve`` and
``bench`` load the case and the groups, then call ``gridtree.solve``
(``routes.solve``), which owns the method routes, the backend and
``runtime_s``.  A solve that stops at its time limit holding an
unproved answer writes that answer, then exits 5.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from . import coherency, dcflow, milp, oracle, render, routes, steiner
from .errors import (
    BridgeError,
    BudgetError,
    CaseParseError,
    GridTreeError,
    InfeasibleError,
    ModelBuildError,
    NetworkValidationError,
)
from .network import Network, network_to_json, parse_case
from .solution import _pair, solution_from_json, solution_to_json, validate_solution

_EXIT_CODES = (
    (CaseParseError, 2),
    (NetworkValidationError, 3),
    (InfeasibleError, 4),
    (BudgetError, 5),
    (BridgeError, 6),
    (ModelBuildError, 7),
    (GridTreeError, 1),
)


_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _reader(wants: str, convert, ok=lambda value: True):
    """An option's reader, text -> value, failing with one message."""
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
_method = _reader(f"one of {', '.join(routes.METHODS)}", str, lambda m: m in routes.METHODS)
_switch = _reader("1/true/yes or 0/false/no", lambda text: _SWITCH[text.lower()])


def _list_of(read):
    """Reader of a comma-separated list whose items go through ``read``."""
    return lambda text: [read(x) for x in text.split(",") if x]


def _option(default, read, help: str):
    """A RunConfig field that is also an option: ``read`` is the argparse
    ``type=`` of its flag (``--time-limit`` for ``time_limit``) and the
    reader of its config key, so the two accept the same values and fail
    with the same message.  A ``_switch`` option's flag takes no value."""
    return field(default=default, metadata={"read": read, "help": help})


@dataclass
class RunConfig:
    case: Optional[str] = _option(None, str, "MATPOWER-subset case file (flag or config key)")
    k: int = _option(2, _int, "number of clusters, one per coherent generator group (default 2)")
    method: str = _option("milp", _method, f"{', '.join(routes.METHODS)} (default milp)")
    groups: Optional[str] = _option(None, str, "groups JSON file (skips slow coherency)")
    slack: Optional[int] = _option(None, _int, "slack bus external id (default: first bus)")
    bridge_cmd: Optional[str] = _option(None, str, "external solver command template")
    out: Optional[str] = _option(None, str, "output path (default stdout)")
    no_timing: bool = _option(False, _switch, "zero runtime fields in outputs")
    limit: int = _option(oracle.DEFAULT_LIMIT, _positive_int, "oracle enumeration limit")
    time_limit: float = _option(
        600.0, _seconds, "solver budget (s, default 600): the built-in B&B's limit or the "
        "bridge's {timeout}; a stop there exits 5, writing any unproved answer")


_OPTIONS = {f.name: f.metadata for f in fields(RunConfig)}


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
        if key in _OPTIONS:
            try:
                setattr(cfg, key, _OPTIONS[key]["read"](val.strip()))
            except argparse.ArgumentTypeError as exc:
                raise CaseParseError(f"config key {key} {exc}", line_no=line_no)
    for name in _OPTIONS:
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


def _load_network(cfg: RunConfig) -> Network:
    """The parsed case; an unknown ``--slack`` bus fails here, on every verb."""
    if not cfg.case:
        raise ModelBuildError("no case file given (use --case or a config entry)")
    net = parse_case(_read_text(cfg.case, "case file"))
    if cfg.slack is not None:
        net.index_of(cfg.slack)
    return net


def _flowed_network(cfg: RunConfig):
    net = _load_network(cfg)
    slack = net.index_of(cfg.slack) if cfg.slack is not None else 0
    flows = dcflow.solve_dc(net, slack, dcflow.balanced_injections(net))
    return dcflow.with_flows(net, flows), flows


def _load_groups(net, cfg: RunConfig):
    if cfg.groups:
        return coherency.groups_from_json(net, _read_text(cfg.groups, "groups file"))
    return coherency.slow_coherency(net, cfg.k)


def _solve(net, groups, cfg: RunConfig):
    """(solution, stop): ``stop`` is the BudgetError of a solve that ran
    out of time holding an unproved solution, else None."""
    bridge = (milp.SolverBridge(command=cfg.bridge_cmd, timeout_s=cfg.time_limit)
              if cfg.bridge_cmd else None)
    try:
        return routes.solve(net, groups, cfg.method, bridge, cfg.time_limit, cfg.limit), None
    except BudgetError as stop:
        if stop.incumbent is None:
            raise
        return stop.incumbent, stop


def _solve_with_config(cfg: RunConfig):
    """(net, solution, stop) for the configured case; see ``_solve``."""
    net, _ = _flowed_network(cfg)
    return (net, *_solve(net, _load_groups(net, cfg), cfg))


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_parse(cfg: RunConfig, args) -> int:
    net = _load_network(cfg)
    _emit(network_to_json(net), cfg.out)
    return 0


def cmd_flows(cfg: RunConfig, args) -> int:
    _, flows = _flowed_network(cfg)
    _emit(flows.to_json(), cfg.out)
    return 0


def cmd_coherency(cfg: RunConfig, args) -> int:
    net = _load_network(cfg)
    groups = coherency.slow_coherency(net, cfg.k)
    _emit(coherency.groups_to_json(net, groups), cfg.out)
    return 0


def cmd_solve(cfg: RunConfig, args) -> int:
    net, sol, stop = _solve_with_config(cfg)
    _emit(solution_to_json(net, sol, include_runtime=not cfg.no_timing), cfg.out)
    if stop is not None:
        raise stop
    return 0


def cmd_steiner(cfg: RunConfig, args) -> int:
    net = _load_network(cfg)
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


def cmd_bench(cfg: RunConfig, args) -> int:
    cases = [c for c in args.cases.split(",") if c]
    rows = []
    objective: dict[tuple[str, int, str], float] = {}

    def failed(name, k_values, exc):
        rows.extend([name, k, method, None, None, type(exc).__name__]
                    for k in k_values for method in args.methods)

    # one parse and DC flow per case and one grouping per (case, k), never
    # a groups file: one file fits one case and k.  A failure there fails
    # every row it feeds.
    for case in cases:
        name = Path(case).stem
        try:
            net, _ = _flowed_network(replace(cfg, case=case))
        except GridTreeError as exc:
            failed(name, args.k_values, exc)
            continue
        for k in args.k_values:
            try:
                groups = coherency.slow_coherency(net, k)
            except GridTreeError as exc:
                failed(name, [k], exc)
                continue
            for method in args.methods:
                try:
                    sol, stop = _solve(net, groups, replace(cfg, method=method))
                    objective[(name, k, method)] = sol.disruption_mw
                    rows.append([name, k, method, sol.disruption_mw, sol.runtime_s,
                                 "ok" if stop is None else "unproved"])
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


def cmd_export_dot(cfg: RunConfig, args) -> int:
    sol_path = args.solution
    if sol_path:
        net, _ = _flowed_network(cfg)
        sol = solution_from_json(net, _read_text(sol_path, "solution file"))
        validate_solution(net, sol)
        text = render.to_dot(net, sol)
    else:
        net = _load_network(cfg)
        text = render.to_dot(net)
    _emit(text, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# RunConfig options on every verb, whether or not it reads them
_EVERY_VERB = ("out", "slack", "no_timing")
_SOLVER = ("bridge_cmd", "time_limit")

# verb -> (function, help line, its RunConfig options, its own flags)
_VERBS = {
    "parse": (cmd_parse, "parse a case file and dump network JSON", ("case",), {}),
    "flows": (cmd_flows, "solve the DC power flow", ("case",), {}),
    "coherency": (cmd_coherency, "compute slow-coherency generator groups", ("case", "k"), {}),
    "solve": (cmd_solve, "compute a tree partition",
              ("case", "k", "method", "groups", "limit", *_SOLVER), {}),
    "steiner": (cmd_steiner, "Steiner trees connecting each coherent group",
                ("case", "k", "groups"), {}),
    "bench": (cmd_bench, "benchmark methods across cases (CSV)", _SOLVER, {
        "--cases": dict(required=True, help="comma-separated case files"),
        "--k-values": dict(type=_list_of(_int), required=True, help="comma-separated k values"),
        "--methods": dict(type=_list_of(_method), required=True, help="comma-separated methods"),
    }),
    "export-dot": (cmd_export_dot, "render a network or solution as DOT", ("case",),
                   {"--solution": dict(help="solution JSON produced by solve")}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridtree",
        description="Tree partitioning of power networks with minimal flow disruption.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (func, help_line, options, own_flags) in _VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key=value config file")
        for name in (*options, *_EVERY_VERB):
            read = _OPTIONS[name]["read"]
            takes = {"action": "store_true"} if read is _switch else {"type": read}
            p.add_argument("--" + name.replace("_", "-"), help=_OPTIONS[name]["help"], **takes)
        for flag, kwargs in own_flags.items():
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_merged_config(args), args)
    except GridTreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
