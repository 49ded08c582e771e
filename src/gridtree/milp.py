"""Integer-programming model of the tree partitioning problem.

The model, built in the solver-agnostic IR of ``gridtree.lp``, has binary
bus-assignment variables, internal-edge and active-cross-edge indicators,
line activity, and a single-commodity flow that enforces connectivity of
the post-switching network.  It is exported to CPLEX-LP text and solved
through an external-solver bridge; decoded solutions are always
re-validated before they are returned.

``build_model`` is the formulation itself.  The bridge solves it with
one row more per degree-2 chain line that a minimum partition never
cuts (``add_chain_rows``); the rows cut off feasible partitions but no
optimal value.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from .coherency import CoherencyGroups
from .errors import (
    BridgeError,
    BudgetError,
    InfeasibleError,
    ModelBuildError,
    NetworkValidationError,
)
from .lp import MilpModel, write_lp
from .network import Network, Partition, degree2_chains
from .solution import METHOD_MILP, TreePartitionSolution, partition_solution, validate_solution
from .steiner import SteinerFixings, collect_bus_fixings

__all__ = [
    "MilpModel",
    "SolverBridge",
    "build_model",
    "add_chain_rows",
    "write_lp",
    "run_bridge",
    "solve_via_bridge",
    "decode_values",
    "solution_to_values",
]


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
        fixed = bus_fixed.get(i)
        for r in range(1, k + 1):
            value = None if fixed is None else float(fixed == r)
            model.add_variable(_xname(i, r), "binary", value, value)
    for ln in net.lines:
        for r in range(1, k + 1):
            value = 1.0 if edge_fixed.get(ln.id) == r else None
            model.add_variable(_lname("y", ln, r), "binary", value, value)
        model.add_variable(_lname("z", ln), "binary")
        model.add_variable(_lname("w", ln), "binary")
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


def add_chain_rows(
    model: MilpModel,
    net: Network,
    groups: CoherencyGroups,
    ssr: Optional[SteinerFixings] = None,
) -> None:
    """Append ``chain_<from>_<to>: sum_r y_<from>_<to>_r = 1`` for every
    line of a degree-2 chain of free buses except the chain's cut line.

    The chains are the ones the built-in B&B contracts
    (``network.degree2_chains`` outside the bus fixings).  Every cluster
    holds its coherent group, which lies outside the chain, so each chain
    bus shares its cluster with one of the chain's ends and the chain is
    cut at most once.  Moving that cut to ``Chain.cut_line`` (the least
    |flow|, ties to the lower id) never raises the value, so the rows
    keep every optimal value while HiGHS no longer branches over where
    a chain is cut.  Among tied optima the one left may differ from the
    one the B&B picks.
    """
    k = groups.k
    for chain in degree2_chains(net, collect_bus_fixings(net, groups, ssr)):
        cut = chain.cut_line(net).id
        for lid in chain.lines:
            if lid != cut:
                ln = net.line_by_id[lid]
                model.add_constraint(
                    _lname("chain", ln),
                    [(1.0, _lname("y", ln, r)) for r in range(1, k + 1)], "=", 1.0,
                )


# ---------------------------------------------------------------------------
# Decode / encode variable assignments
# ---------------------------------------------------------------------------

def decode_values(
    net: Network,
    groups: CoherencyGroups,
    values: Mapping[str, float],
    method: str = METHOD_MILP,
) -> TreePartitionSolution:
    """Turn the solver's ``x`` values into a validated solution.

    Only the partition is read; its bridges and switched lines come from
    the same stage-2 rule every other route uses.
    """
    assignment = []
    for i in range(net.n):
        hits = [r for r in range(1, groups.k + 1) if values.get(_xname(i, r), 0.0) > 0.5]
        if len(hits) != 1:
            raise NetworkValidationError(f"bus {i} assigned to {len(hits)} clusters")
        assignment.append(hits[0])
    sol = partition_solution(net, Partition(tuple(assignment), groups.k), method)
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
# External solver bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverBridge:
    """Command template invoking an external solver on an LP file.

    The template must contain ``{model}`` and ``{solution}`` placeholders;
    ``{timeout}`` is substituted when present.  The template is split into
    words first and the placeholders are filled inside each word, so paths
    with spaces stay one argument.
    """

    command: str
    timeout_s: float = 600.0

    def __post_init__(self):
        if "{model}" not in self.command or "{solution}" not in self.command:
            raise ModelBuildError("bridge command needs {model} and {solution} placeholders")

    def render(self, model_path: str, solution_path: str) -> list[str]:
        return [
            word.replace("{model}", model_path)
            .replace("{solution}", solution_path)
            .replace("{timeout}", str(self.timeout_s))
            for word in shlex.split(self.command)
        ]


def run_bridge(model: MilpModel, bridge: SolverBridge) -> dict[str, float]:
    """Export, invoke the solver, and read back the values of a proved optimum.

    The solution file holds a ``# status <word>`` line and ``name value``
    lines; unknown variable names are ignored and missing binaries default
    to zero at decode time.  Only ``optimal`` is an answer: ``infeasible``
    raises InfeasibleError; a stop at the solver's limit raises
    BudgetError, carrying the values as its incumbent for ``feasible`` and
    none for ``timeout``; ``unbounded``, any other word or none, and a
    solver killed 30 s past its limit raise BridgeError.
    """
    with tempfile.TemporaryDirectory(prefix="gridtree_") as tmp:
        model_path = str(Path(tmp) / "model.lp")
        solution_path = str(Path(tmp) / "model.sol")
        Path(model_path).write_text(write_lp(model))
        cmd = bridge.render(model_path, solution_path)
        # grace period past the solver's own limit before a hard kill; a
        # deadline the OS timers cannot hold means no kill at all
        deadline = bridge.timeout_s + 30.0
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=deadline if deadline < threading.TIMEOUT_MAX else None,
            )
        except subprocess.TimeoutExpired:
            raise BridgeError(f"solver killed 30 s past its {bridge.timeout_s:g} s limit: {cmd[0]}")
        except OSError as exc:
            raise BridgeError(f"cannot run solver {cmd[0]!r}: {exc}")
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            raise BridgeError(f"solver exited with {proc.returncode}: {tail}")
        sol_file = Path(solution_path)
        if not sol_file.exists():
            raise BridgeError("solver wrote no solution file")
        values: dict[str, float] = {}
        status = None
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
    if status == "optimal":
        return values
    if status == "infeasible":
        raise InfeasibleError("external solver reported the model infeasible")
    if status in ("feasible", "timeout"):
        raise BudgetError(
            f"solver stopped at its limit before proving optimality (status {status})",
            incumbent=values if status == "feasible" else None,
        )
    if status == "unbounded":
        raise BridgeError("external solver reported the model unbounded")
    raise BridgeError(f"solver gave no answer (status {status or 'missing'})")


def solve_via_bridge(
    net: Network,
    groups: CoherencyGroups,
    bridge: SolverBridge,
    ssr: Optional[SteinerFixings] = None,
    method: str = METHOD_MILP,
) -> TreePartitionSolution:
    """Build the model plus its chain rows, solve it externally, and
    validate the decode.

    A stop at the solver's limit raises BudgetError, whose incumbent is
    the decoded and validated point the solver held, or None when it held
    none or its values decode to no valid partition.
    """
    model = build_model(net, groups, ssr=ssr)
    add_chain_rows(model, net, groups, ssr)
    try:
        values = run_bridge(model, bridge)
    except BudgetError as stop:
        try:
            if stop.incumbent is not None:
                stop.incumbent = decode_values(net, groups, stop.incumbent, method=method)
        except NetworkValidationError:
            stop.incumbent = None
        raise
    try:
        return decode_values(net, groups, values, method=method)
    except NetworkValidationError as exc:
        raise BridgeError(f"solver returned an invalid solution: {exc}")
