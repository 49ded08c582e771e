"""Integer-programming model of the tree partitioning problem.

The model is a solver-agnostic IR with binary bus-assignment variables,
internal-edge and active-cross-edge indicators, line activity, and a
single-commodity flow that enforces connectivity of the post-switching
network.  It can be exported to CPLEX-LP text, parsed back, and solved
through an external-solver bridge; decoded solutions are always
re-validated before they are returned.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from .coherency import CoherencyGroups
from .errors import (
    BridgeError,
    InfeasibleError,
    ModelBuildError,
    NetworkValidationError,
    SolverTimeout,
)
from .network import Network, Partition, cross_edges, disruption
from .solution import METHOD_MILP, TreePartitionSolution, validate_solution
from .steiner import SteinerFixings, collect_bus_fixings

__all__ = [
    "Variable",
    "Constraint",
    "MilpModel",
    "SolverBridge",
    "build_model",
    "write_lp",
    "export_lp",
    "parse_lp",
    "run_bridge",
    "solve_via_bridge",
    "decode_values",
    "solution_to_values",
]


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "binary" | "continuous"
    lb: Optional[float] = None
    ub: Optional[float] = None

    def effective_bounds(self) -> tuple[float, float]:
        if self.kind == "binary":
            return (0.0 if self.lb is None else self.lb, 1.0 if self.ub is None else self.ub)
        return (
            0.0 if self.lb is None else self.lb,
            math.inf if self.ub is None else self.ub,
        )


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=" | ">=" | "="
    rhs: float


class MilpModel:
    """Linear objective + linear constraints over named variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self._by_name: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.objective: tuple[tuple[float, str], ...] = ()
        self.objective_constant: float = 0.0

    def add_variable(self, name, kind, lb=None, ub=None):
        if name in self._by_name:
            raise ModelBuildError(f"duplicate variable {name}")
        var = Variable(name, kind, lb, ub)
        self.variables.append(var)
        self._by_name[name] = var
        return var

    def variable(self, name: str) -> Variable:
        return self._by_name[name]

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def add_constraint(self, name, terms, sense, rhs):
        if sense not in ("<=", ">=", "="):
            raise ModelBuildError(f"bad sense {sense!r}")
        for _, var in terms:
            if var not in self._by_name:
                raise ModelBuildError(f"constraint {name} uses unknown variable {var}")
        self.constraints.append(Constraint(name, tuple(terms), sense, float(rhs)))

    def set_objective(self, terms, constant=0.0):
        self.objective = tuple(terms)
        self.objective_constant = float(constant)

    def binary_count(self) -> int:
        return sum(1 for v in self.variables if v.kind == "binary")

    def continuous_count(self) -> int:
        return sum(1 for v in self.variables if v.kind == "continuous")

    def objective_value(self, values: Mapping[str, float]) -> float:
        return self.objective_constant + sum(
            c * values.get(v, 0.0) for c, v in self.objective
        )

    def constraint_violations(self, values: Mapping[str, float], tol: float = 1e-6):
        """Names of constraints (and bound violations) not satisfied."""
        bad = []
        for con in self.constraints:
            lhs = sum(c * values.get(v, 0.0) for c, v in con.terms)
            if con.sense == "<=" and lhs > con.rhs + tol:
                bad.append(con.name)
            elif con.sense == ">=" and lhs < con.rhs - tol:
                bad.append(con.name)
            elif con.sense == "=" and abs(lhs - con.rhs) > tol:
                bad.append(con.name)
        for var in self.variables:
            lb, ub = var.effective_bounds()
            val = values.get(var.name, 0.0)
            if val < lb - tol or val > ub + tol:
                bad.append(f"bounds:{var.name}")
        return bad

    def _canonical(self):
        return (
            sorted((v.name, v.kind, v.effective_bounds()) for v in self.variables),
            sorted(
                (c.name, tuple(sorted((v, coef) for coef, v in c.terms)), c.sense, c.rhs)
                for c in self.constraints
            ),
            tuple(sorted((v, c) for c, v in self.objective)),
            self.objective_constant,
        )

    def __eq__(self, other):
        return isinstance(other, MilpModel) and self._canonical() == other._canonical()


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def _xname(i, r):
    return f"x_{i}_{r}"


def _lname(prefix, ln, r=None):
    if r is None:
        return f"{prefix}_{ln.from_bus}_{ln.to_bus}"
    return f"{prefix}_{ln.from_bus}_{ln.to_bus}_{r}"


def build_model(
    net: Network,
    groups: CoherencyGroups,
    ssr: Optional[SteinerFixings] = None,
) -> MilpModel:
    """Tree partitioning MILP over the network's absolute flows.

    Bus 0 (dense index) acts as the commodity source shipping n-1 units;
    coupling the commodity to line activity forces the post-switching
    network to stay connected while exactly k-1 cross edges remain
    active.  Coherency groups and optional Steiner-tree fixings are
    applied as variable bounds.
    """
    n, k = net.n, groups.k

    bus_fixed = collect_bus_fixings(net, groups, ssr)

    edge_fixed: dict[int, int] = dict(ssr.edge_fix) if ssr is not None else {}
    for lid, r in edge_fixed.items():
        ln = net.line_by_id[lid]
        for end in (ln.from_bus, ln.to_bus):
            if bus_fixed.get(end) != r:
                raise ModelBuildError(
                    f"line {lid} fixed to cluster {r} but bus {end} is not"
                )

    model = MilpModel(name="treepartition")
    for i in range(n):
        for r in range(1, k + 1):
            fixed = bus_fixed.get(i)
            if fixed is None:
                model.add_variable(_xname(i, r), "binary")
            else:
                one = 1.0 if fixed == r else 0.0
                model.add_variable(_xname(i, r), "binary", one, one)
    for ln in net.lines:
        for r in range(1, k + 1):
            if edge_fixed.get(ln.id) == r:
                model.add_variable(_lname("y", ln, r), "binary", 1.0, 1.0)
            else:
                model.add_variable(_lname("y", ln, r), "binary")
    for ln in net.lines:
        model.add_variable(_lname("z", ln), "binary")
    for ln in net.lines:
        model.add_variable(_lname("w", ln), "binary")
    for ln in net.lines:
        model.add_variable(_lname("q", ln), "continuous", -(n - 1), n - 1)

    # each bus in exactly one cluster
    for i in range(n):
        model.add_constraint(
            f"part_{i}", [(1.0, _xname(i, r)) for r in range(1, k + 1)], "=", 1.0
        )
    # y_ijr = x_ir AND x_jr, linearized
    for ln in net.lines:
        for r in range(1, k + 1):
            y = _lname("y", ln, r)
            xi, xj = _xname(ln.from_bus, r), _xname(ln.to_bus, r)
            model.add_constraint(f"{y}_ub1", [(1.0, y), (-1.0, xi)], "<=", 0.0)
            model.add_constraint(f"{y}_ub2", [(1.0, y), (-1.0, xj)], "<=", 0.0)
            model.add_constraint(
                f"{y}_lb", [(1.0, y), (-1.0, xi), (-1.0, xj)], ">=", -1.0
            )
    # internal edges stay active; cross edges are active only as bridges
    for ln in net.lines:
        terms = [(1.0, _lname("y", ln, r)) for r in range(1, k + 1)]
        terms += [(1.0, _lname("w", ln)), (-1.0, _lname("z", ln))]
        model.add_constraint(_lname("act", ln), terms, "=", 0.0)
    # exactly k-1 active cross edges
    model.add_constraint(
        "tree", [(1.0, _lname("w", ln)) for ln in net.lines], "=", float(k - 1)
    )
    # single commodity flow from bus 0 keeps the active network connected
    for i in range(n):
        terms = []
        for lid, _other in net.incident[i]:
            ln = net.line_by_id[lid]
            terms.append((1.0 if ln.from_bus == i else -1.0, _lname("q", ln)))
        if i == 0:
            model.add_constraint("src", terms, "=", float(n - 1))
        else:
            model.add_constraint(f"dem_{i}", terms, "=", -1.0)
    # inactive lines carry no commodity
    for ln in net.lines:
        q, z = _lname("q", ln), _lname("z", ln)
        model.add_constraint(
            _lname("cap_hi", ln), [(1.0, q), (-(n - 1.0), z)], "<=", 0.0
        )
        model.add_constraint(
            _lname("cap_lo", ln), [(1.0, q), (n - 1.0, z)], ">=", 0.0
        )

    # minimize switched |flow|: constant sum(|f|) minus sum(|f| z)
    total = sum(abs(ln.flow_mw) for ln in net.lines)
    model.set_objective(
        [(-abs(ln.flow_mw), _lname("z", ln)) for ln in net.lines], constant=total
    )
    return model


# ---------------------------------------------------------------------------
# Decode / encode variable assignments
# ---------------------------------------------------------------------------

def decode_values(
    net: Network,
    groups: CoherencyGroups,
    values: Mapping[str, float],
    method: str = METHOD_MILP,
    runtime_s: float = 0.0,
) -> TreePartitionSolution:
    """Turn solver variable values into a validated solution."""
    assignment = []
    for i in range(net.n):
        hits = [r for r in range(1, groups.k + 1) if values.get(_xname(i, r), 0.0) > 0.5]
        if len(hits) != 1:
            raise NetworkValidationError(f"bus {i} assigned to {len(hits)} clusters")
        assignment.append(hits[0])
    partition = Partition(tuple(assignment), groups.k)
    switched = frozenset(
        ln.id for ln in net.lines if values.get(_lname("z", ln), 0.0) < 0.5
    )
    retained = frozenset(set(cross_edges(net, partition)) - switched)
    sol = TreePartitionSolution(
        partition=partition,
        switched=switched,
        retained_bridges=retained,
        disruption_mw=disruption(net, switched),
        method=method,
        runtime_s=runtime_s,
    )
    validate_solution(net, sol, groups)
    return sol


def solution_to_values(net: Network, sol: TreePartitionSolution) -> dict[str, float]:
    """Full variable assignment (including commodity flows) for a solution.

    Commodity is routed over a BFS tree of the active lines, so the result
    satisfies the flow constraints whenever the solution is valid.
    """
    values: dict[str, float] = {}
    assign = sol.partition.assignment
    for i in range(net.n):
        for r in range(1, sol.partition.k + 1):
            values[_xname(i, r)] = 1.0 if assign[i] == r else 0.0
    active = {ln.id for ln in net.lines} - sol.switched
    for ln in net.lines:
        internal = assign[ln.from_bus] == assign[ln.to_bus]
        for r in range(1, sol.partition.k + 1):
            values[_lname("y", ln, r)] = (
                1.0 if internal and assign[ln.from_bus] == r else 0.0
            )
        values[_lname("z", ln)] = 1.0 if ln.id in active else 0.0
        values[_lname("w", ln)] = 1.0 if (ln.id in active and not internal) else 0.0
        values[_lname("q", ln)] = 0.0

    # BFS tree over active lines rooted at the commodity source
    parent_line: dict[int, int] = {}
    order = [0]
    seen = {0}
    for bus in order:
        for lid, other in net.incident[bus]:
            if lid in active and other not in seen:
                seen.add(other)
                parent_line[other] = lid
                order.append(other)
    if len(seen) != net.n:
        raise NetworkValidationError("active lines do not connect the network")
    subtree = {i: 1 for i in range(net.n)}
    for bus in reversed(order[1:]):
        ln = net.line_by_id[parent_line[bus]]
        parent = ln.other(bus)
        subtree[parent] += subtree[bus]
        flow = float(subtree[bus])  # units consumed below this bus
        values[_lname("q", ln)] = flow if ln.to_bus == bus else -flow
    return values


# ---------------------------------------------------------------------------
# CPLEX-LP text
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _expr(terms, constant=0.0) -> str:
    parts = []
    for coef, name in sorted(terms, key=lambda t: t[1]):
        mag = abs(coef)
        body = name if mag == 1.0 else f"{_fmt(mag)} {name}"
        if not parts:
            parts.append(body if coef >= 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if coef >= 0 else f"- {body}")
    if constant:
        piece = _fmt(abs(constant))
        if not parts:
            parts.append(piece if constant > 0 else f"- {piece}")
        else:
            parts.append(f"+ {piece}" if constant > 0 else f"- {piece}")
    if not parts:
        parts.append("0")
    return " ".join(parts)


def _wrap(text: str, indent: str = "   ", width: int = 72) -> list[str]:
    words = text.split()
    lines, cur = [], ""
    for w in words:
        if cur and len(cur) + len(w) + 1 > width:
            lines.append(indent + cur)
            cur = w
        else:
            cur = f"{cur} {w}" if cur else w
    if cur:
        lines.append(indent + cur)
    return lines


def write_lp(model: MilpModel) -> str:
    """Render the model as CPLEX-LP text.

    Coefficients carry 12 significant digits, so parse_lp(write_lp(m))
    equals m exactly when its coefficients are representable at that
    precision; for arbitrary doubles the export-parse-export cycle is
    idempotent instead (identical text on the second pass).
    """
    out = [f"\\ {model.name}", "Minimize"]
    out += _wrap("obj: " + _expr(model.objective, model.objective_constant), indent=" ")
    out.append("Subject To")
    for con in model.constraints:
        out += _wrap(f"{con.name}: {_expr(con.terms)} {con.sense} {_fmt(con.rhs)}", indent=" ")
    bounds = []
    for var in sorted(model.variables, key=lambda v: v.name):
        if var.kind == "binary":
            if var.lb is not None and var.lb == var.ub:
                bounds.append(f" {var.name} = {_fmt(var.lb)}")
            continue
        lb, ub = var.effective_bounds()
        if lb == 0.0 and ub == math.inf:
            continue
        if lb == ub:
            bounds.append(f" {var.name} = {_fmt(lb)}")
        elif lb == -math.inf and ub == math.inf:
            bounds.append(f" {var.name} free")
        else:
            lo = "-inf" if lb == -math.inf else _fmt(lb)
            hi = "inf" if ub == math.inf else _fmt(ub)
            bounds.append(f" {lo} <= {var.name} <= {hi}")
    if bounds:
        out.append("Bounds")
        out += bounds
    binaries = sorted(v.name for v in model.variables if v.kind == "binary")
    if binaries:
        out.append("Binary")
        out += _wrap(" ".join(binaries), indent=" ")
    out.append("End")
    return "\n".join(out) + "\n"


def export_lp(model: MilpModel, path) -> None:
    Path(path).write_text(write_lp(model))


_TOKEN = re.compile(r"(<=|>=|=|\+|-|:|[A-Za-z_][A-Za-z0-9_.]*|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)")
_SECTIONS = {
    "minimize": "objective",
    "min": "objective",
    "subject": "constraints",
    "st": "constraints",
    "bounds": "bounds",
    "binary": "binary",
    "binaries": "binary",
    "bin": "binary",
    "end": "end",
    "general": "general",
}


def parse_lp(text: str) -> MilpModel:
    """Parse the LP subset produced by write_lp back into a model."""
    model = MilpModel(name="parsed")
    lines = []
    for raw in text.splitlines():
        body = raw.split("\\")[0].rstrip()
        if body.strip():
            lines.append(body)

    # re-join into logical sections
    section = None
    chunks: dict[str, list[str]] = {"objective": [], "constraints": [], "bounds": [], "binary": []}
    for ln in lines:
        head = ln.strip().split()
        key = head[0].lower() if head else ""
        if key in _SECTIONS:
            tag = _SECTIONS[key]
            if tag == "end":
                break
            if tag == "general":
                raise BridgeError("general integer variables are not supported")
            section = tag
            rest = ln.strip()[len(head[0]):].strip()
            if section == "constraints" and rest.lower().startswith("to"):
                rest = rest[2:].strip()
            if rest:
                chunks[section].append(rest)
            continue
        if section is None:
            raise BridgeError(f"unexpected text before sections: {ln!r}")
        chunks[section].append(ln.strip())

    binary_names = set()
    for ln in chunks["binary"]:
        binary_names.update(ln.split())

    seen_vars: dict[str, dict] = {}

    def touch(name):
        if name not in seen_vars:
            seen_vars[name] = {"lb": None, "ub": None, "fixed": None, "free": False}

    def parse_expr(tokens):
        """Linear expression -> (terms, constant); consumes all tokens."""
        terms, constant = [], 0.0
        sign, coef, pending = 1.0, None, False
        for tok in tokens:
            if tok == "+" or tok == "-":
                if pending and coef is not None:
                    constant += sign * coef
                sign, coef, pending = (1.0 if tok == "+" else -1.0), None, True
            elif re.fullmatch(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?", tok):
                if pending and coef is not None:
                    constant += sign * coef
                coef = float(tok)
                pending = True
            else:
                touch(tok)
                terms.append(((coef if coef is not None else 1.0) * sign, tok))
                sign, coef, pending = 1.0, None, False
        if pending and coef is not None:
            constant += sign * coef
        return terms, constant

    # objective
    obj_text = " ".join(chunks["objective"])
    tokens = _TOKEN.findall(obj_text)
    if tokens and len(tokens) > 1 and tokens[1] == ":":
        tokens = tokens[2:]
    obj_terms, obj_const = parse_expr(tokens)

    # constraints: split logical constraints by detecting "name :" starts
    con_text = " ".join(chunks["constraints"])
    con_tokens = _TOKEN.findall(con_text)
    pieces: list[list[str]] = []
    i = 0
    while i < len(con_tokens):
        if i + 1 < len(con_tokens) and con_tokens[i + 1] == ":":
            pieces.append([con_tokens[i], ":"])
            i += 2
        else:
            if not pieces:
                pieces.append([f"c{len(pieces)}", ":"])
            pieces[-1].append(con_tokens[i])
            i += 1
    parsed_cons = []
    for piece in pieces:
        name = piece[0]
        body = piece[2:]
        sense_pos = [j for j, t in enumerate(body) if t in ("<=", ">=", "=")]
        if len(sense_pos) != 1:
            raise BridgeError(f"constraint {name}: expected one relational operator")
        j = sense_pos[0]
        lhs_terms, lhs_const = parse_expr(body[:j])
        rhs_terms, rhs_const = parse_expr(body[j + 1:])
        if rhs_terms:
            raise BridgeError(f"constraint {name}: variables on the right-hand side")
        parsed_cons.append((name, lhs_terms, body[j], rhs_const - lhs_const))

    # bounds
    for ln in chunks["bounds"]:
        tokens = ln.split()
        lowered = [t.lower() for t in tokens]
        if len(tokens) == 2 and lowered[1] == "free":
            touch(tokens[0])
            seen_vars[tokens[0]]["free"] = True
        elif len(tokens) == 3 and tokens[1] == "=":
            touch(tokens[0])
            val = float(tokens[2])
            seen_vars[tokens[0]]["lb"] = val
            seen_vars[tokens[0]]["ub"] = val
        elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
            touch(tokens[2])
            lo = -math.inf if lowered[0] in ("-inf", "-infinity") else float(tokens[0])
            hi = math.inf if lowered[4] in ("inf", "infinity", "+inf") else float(tokens[4])
            seen_vars[tokens[2]]["lb"] = lo
            seen_vars[tokens[2]]["ub"] = hi
        elif len(tokens) == 3 and tokens[1] in ("<=", ">="):
            touch(tokens[0])
            if tokens[1] == "<=":
                seen_vars[tokens[0]]["ub"] = float(tokens[2])
            else:
                seen_vars[tokens[0]]["lb"] = float(tokens[2])
        else:
            raise BridgeError(f"unsupported bounds line: {ln!r}")

    for name in binary_names:
        touch(name)

    for name in sorted(seen_vars):
        info = seen_vars[name]
        kind = "binary" if name in binary_names else "continuous"
        lb, ub = info["lb"], info["ub"]
        if info["free"]:
            lb, ub = -math.inf, math.inf
        if kind == "binary" and lb is None and ub is None:
            model.add_variable(name, kind)
        else:
            model.add_variable(name, kind, lb, ub)

    for name, terms, sense, rhs in parsed_cons:
        model.add_constraint(name, terms, sense, rhs)
    model.set_objective(obj_terms, obj_const)
    return model


# ---------------------------------------------------------------------------
# External solver bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverBridge:
    """Command template invoking an external solver on an LP file.

    The template must contain ``{model}`` and ``{solution}`` placeholders;
    ``{timeout}`` is substituted when present.
    """

    command: str
    timeout_s: float = 600.0

    def __post_init__(self):
        if "{model}" not in self.command or "{solution}" not in self.command:
            raise ModelBuildError("bridge command needs {model} and {solution} placeholders")

    def render(self, model_path: str, solution_path: str) -> list[str]:
        cmd = (
            self.command.replace("{model}", model_path)
            .replace("{solution}", solution_path)
            .replace("{timeout}", str(self.timeout_s))
        )
        return shlex.split(cmd)


def run_bridge(model: MilpModel, bridge: SolverBridge) -> tuple[dict[str, float], str]:
    """Export, invoke the solver, and read back (values, status).

    Status lines in the solution file look like ``# status optimal``;
    value lines are ``name value``.  Unknown variable names are ignored
    and missing binaries default to zero at decode time.
    """
    with tempfile.TemporaryDirectory(prefix="gridtree_") as tmp:
        model_path = str(Path(tmp) / "model.lp")
        solution_path = str(Path(tmp) / "model.sol")
        export_lp(model, model_path)
        cmd = bridge.render(model_path, solution_path)
        try:
            # grace period past the solver's own limit before a hard kill
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=bridge.timeout_s + 30.0
            )
        except subprocess.TimeoutExpired:
            raise SolverTimeout(f"solver exceeded {bridge.timeout_s}s: {cmd[0]}")
        except OSError as exc:
            raise BridgeError(f"cannot run solver {cmd[0]!r}: {exc}")
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            raise BridgeError(f"solver exited with {proc.returncode}: {tail}")
        sol_file = Path(solution_path)
        if not sol_file.exists():
            raise BridgeError("solver wrote no solution file")
        values: dict[str, float] = {}
        status = "unknown"
        for raw in sol_file.read_text().splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#") or line.startswith("\\"):
                m = re.search(r"status\s+(\w+)", line)
                if m:
                    status = m.group(1).lower()
                continue
            parts = line.split()
            if len(parts) != 2:
                continue
            name, val = parts
            if model.has_variable(name):
                try:
                    values[name] = float(val)
                except ValueError:
                    raise BridgeError(f"bad value for {name}: {val!r}")
    if status == "infeasible":
        raise InfeasibleError("external solver reported the model infeasible")
    if status == "unbounded":
        raise BridgeError("external solver reported the model unbounded")
    if status in ("timeout", "unknown") and not values:
        raise SolverTimeout("external solver returned no usable solution")
    return values, status


def solve_via_bridge(
    net: Network,
    groups: CoherencyGroups,
    bridge: SolverBridge,
    ssr: Optional[SteinerFixings] = None,
    method: str = METHOD_MILP,
) -> TreePartitionSolution:
    """Build the model, solve it externally, and validate the decode."""
    start = time.perf_counter()
    model = build_model(net, groups, ssr=ssr)
    values, status = run_bridge(model, bridge)
    if status != "optimal":
        raise SolverTimeout(f"solver stopped with status {status!r} before proving optimality")
    elapsed = time.perf_counter() - start
    try:
        return decode_values(net, groups, values, method=method, runtime_s=elapsed)
    except NetworkValidationError as exc:
        raise BridgeError(f"solver returned an invalid solution: {exc}")
