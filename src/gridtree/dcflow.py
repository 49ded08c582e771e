"""DC power flow, the flow-disruption metric, and failure localization.

Flows follow the linearized model: per-unit flow on a line equals its
susceptance times the angle difference of its endpoints.  Solves use a
deterministic dense LU factorization (LAPACK, through NumPy); any
injection imbalance is absorbed at the slack bus.  ``disruption`` is
``network.disruption``, re-exported here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InfeasibleError,
    NetworkValidationError,
    UnsupportedOperation,
)
from .network import Network, apply_switching, disruption, is_connected

BALANCE_TOL_PU = 1e-8

__all__ = [
    "FlowSolution",
    "GenCost",
    "LocalizationReport",
    "laplacian",
    "solve_dc",
    "with_flows",
    "balanced_injections",
    "disruption",
    "check_localization",
    "solve_dcopf_via_bridge",
]


@dataclass(frozen=True)
class FlowSolution:
    """Bus angles (radians, slack pinned to 0) and per-line MW flows."""

    theta: tuple[float, ...]
    flows_mw: tuple[float, ...]
    slack_bus: int

    def to_json(self) -> str:
        doc = {
            "slack": self.slack_bus,
            "theta": list(self.theta),
            "flows_mw": list(self.flows_mw),
        }
        return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class GenCost:
    """Linear dispatch cost and limits for one generator bus (external id)."""

    bus_id: int
    cost_per_mw: float
    pmin: float = 0.0
    pmax: Optional[float] = None


def _injection_vector(net: Network) -> np.ndarray:
    return np.array([b.injection_mw for b in net.buses], dtype=float)


def laplacian(net: Network) -> np.ndarray:
    """Susceptance-weighted bus Laplacian (per unit), dense."""
    rows, cols, vals = [], [], []
    for ln in net.lines:
        i, j, b = ln.from_bus, ln.to_bus, ln.susceptance
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [b, b, -b, -b]
    lap = np.zeros((net.n, net.n))
    np.add.at(lap, (rows, cols), vals)
    return lap


def _line_flows(net: Network, theta: np.ndarray) -> np.ndarray:
    """MW flow on each line for bus angles ``theta`` (radians)."""
    return np.array(
        [net.base_mva * ln.susceptance * (theta[ln.from_bus] - theta[ln.to_bus]) for ln in net.lines]
    )


def _net_injections(net: Network, flows: Sequence[float]) -> np.ndarray:
    """MW leaving each bus through its lines for the given line flows."""
    out = np.zeros(net.n)
    for ln, f in zip(net.lines, flows):
        out[ln.from_bus] += f
        out[ln.to_bus] -= f
    return out


def balanced_injections(net: Network) -> np.ndarray:
    """Case-file dispatch rescaled so total generation equals total load."""
    gen = np.array([b.gen_mw for b in net.buses], dtype=float)
    load = np.array([b.load_mw for b in net.buses], dtype=float)
    total_gen, total_load = gen.sum(), load.sum()
    if total_gen <= 0 or total_load <= 0:
        return gen - load
    return gen * (total_load / total_gen) - load


def solve_dc(
    net: Network,
    slack: int = 0,
    injections_mw: Optional[Sequence[float]] = None,
) -> FlowSolution:
    """Solve the DC power flow with the given slack bus.

    The slack row and column are removed before the dense factorization,
    which pins the slack angle to zero and absorbs any net injection
    imbalance there.  Raises NetworkValidationError if the network is
    disconnected, or if the per-bus balance residual exceeds 1e-8 p.u.,
    which happens when per-unit values are too extreme for double
    precision.
    """
    n = net.n
    if not 0 <= slack < n:
        raise NetworkValidationError(f"slack bus {slack} out of range")
    if not is_connected(net):
        raise NetworkValidationError("cannot solve DC flow on a disconnected network")

    if injections_mw is None:
        p = _injection_vector(net)
    else:
        p = np.asarray(injections_mw, dtype=float)
        if p.shape != (n,):
            raise NetworkValidationError(
                f"injection vector has shape {p.shape}, expected ({n},)"
            )
    p = p / net.base_mva

    theta = np.zeros(n)
    if n > 1:
        keep = np.arange(n) != slack
        reduced = laplacian(net)[np.ix_(keep, keep)]
        try:
            theta[keep] = np.linalg.solve(reduced, p[keep])
        except np.linalg.LinAlgError as exc:  # singular factorization
            raise NetworkValidationError(f"DC flow system is singular: {exc}")
        if not np.all(np.isfinite(theta)):
            raise NetworkValidationError("DC flow system is singular")

    flows = _line_flows(net, theta)

    # flow conservation at every non-slack bus
    residual = np.abs(_net_injections(net, flows) / net.base_mva - p)
    residual[slack] = 0.0
    worst = float(residual.max()) if n > 1 else 0.0
    if worst > BALANCE_TOL_PU:
        raise NetworkValidationError(
            f"values too extreme for a DC solve: balance residual {worst:.3e} p.u. "
            f"exceeds {BALANCE_TOL_PU}"
        )

    return FlowSolution(
        theta=tuple(float(t) for t in theta),
        flows_mw=tuple(float(f) for f in flows),
        slack_bus=slack,
    )


def with_flows(net: Network, sol: FlowSolution) -> Network:
    """New network whose lines carry the solved MW flows."""
    if len(sol.flows_mw) != net.m:
        raise NetworkValidationError("flow vector does not match line count")
    lines = tuple(
        replace(ln, flow_mw=f) for ln, f in zip(net.lines, sol.flows_mw)
    )
    return replace(net, lines=lines)


@dataclass(frozen=True)
class LocalizationReport:
    outcome: str  # "pass" | "fail" | "islanding"
    line_id: int
    cluster: int
    max_outside_delta_mw: Optional[float]
    tol_mw: float


def check_localization(net, solution, line_id: int, tol: float = 1e-6) -> LocalizationReport:
    """Check that an internal-line outage stays inside its cluster.

    Removes ``line_id`` from the post-switching network and re-solves the
    DC flow; the check passes when no line outside the failed line's
    cluster changes flow by ``tol`` MW or more.  A removal that splits the
    network is reported as "islanding" and not evaluated.
    """
    post = apply_switching(net, solution.switched)
    line = post.line_by_id.get(line_id)
    if line is None:
        raise NetworkValidationError(f"line {line_id} not in post-switching network")
    assign = solution.partition.assignment
    ra, rb = assign[line.from_bus], assign[line.to_bus]

    removed = apply_switching(post, [line_id])
    if not is_connected(removed):
        # retained bridges and internal cut-edges land here
        return LocalizationReport("islanding", line_id, ra if ra == rb else 0, None, tol)
    if ra != rb:
        raise NetworkValidationError(
            f"line {line_id} is a non-separating cross edge; the partition "
            "is not a tree partition of the post-switching network"
        )

    base = solve_dc(post)
    after = solve_dc(removed)
    base_by_id = {ln.id: f for ln, f in zip(post.lines, base.flows_mw)}
    worst = 0.0
    for ln, f in zip(removed.lines, after.flows_mw):
        inside = assign[ln.from_bus] == ra and assign[ln.to_bus] == ra
        if inside:
            continue
        worst = max(worst, abs(f - base_by_id[ln.id]))
    outcome = "pass" if worst < tol else "fail"
    return LocalizationReport(outcome, line_id, ra, worst, tol)


def solve_dcopf_via_bridge(net: Network, costs: Sequence[GenCost], bridge) -> FlowSolution:
    """Linear-cost DC optimal dispatch solved through the external bridge.

    Buses without a cost entry keep their case-file generation as a fixed
    injection.  Returns a dispatch-consistent flow solution.
    """
    from . import milp  # local import: milp -> coherency -> dcflow is an import cycle

    if bridge is None:
        raise UnsupportedOperation("DC-OPF requires a configured solver bridge")

    slack = 0
    idx = {c.bus_id: net.index_of(c.bus_id) for c in costs}
    for c in costs:
        if not net.buses[idx[c.bus_id]].is_generator:
            raise NetworkValidationError(f"bus {c.bus_id} is not a generator bus")

    model = milp.MilpModel(name="dcopf")
    for c in costs:
        model.add_variable(f"pg_{c.bus_id}", "continuous", c.pmin, c.pmax)
    for b in net.buses:
        if b.index == slack:
            model.add_variable(f"th_{b.index}", "continuous", 0.0, 0.0)
        else:
            model.add_variable(f"th_{b.index}", "continuous", -np.inf, np.inf)

    dispatchable = {idx[c.bus_id]: c for c in costs}
    for b in net.buses:
        terms = []
        for lid, other in net.incident[b.index]:
            ln = net.line_by_id[lid]
            coef = net.base_mva * ln.susceptance
            terms.append((coef, f"th_{b.index}"))
            terms.append((-coef, f"th_{other}"))
        fixed_gen = 0.0 if b.index in dispatchable else b.gen_mw
        if b.index in dispatchable:
            terms.append((-1.0, f"pg_{b.id}"))
        model.add_constraint(f"bal_{b.index}", terms, "=", fixed_gen - b.load_mw)

    for ln in net.lines:
        if ln.capacity_mw is None:
            continue
        coef = net.base_mva * ln.susceptance
        terms = [(coef, f"th_{ln.from_bus}"), (-coef, f"th_{ln.to_bus}")]
        model.add_constraint(f"cap_hi_{ln.id}", terms, "<=", ln.capacity_mw)
        model.add_constraint(f"cap_lo_{ln.id}", terms, ">=", -ln.capacity_mw)

    model.set_objective([(c.cost_per_mw, f"pg_{c.bus_id}") for c in costs])

    values = milp.run_bridge(model, bridge)
    theta = np.array([values.get(f"th_{i}", 0.0) for i in range(net.n)])
    flows = _line_flows(net, theta)

    # dispatch consistency: implied injections must match dispatch minus load
    implied = _net_injections(net, flows)
    for b in net.buses:
        gen = values.get(f"pg_{b.id}", 0.0) if b.index in dispatchable else b.gen_mw
        if abs(implied[b.index] - (gen - b.load_mw)) > 1e-6 * max(1.0, net.base_mva):
            raise InfeasibleError(
                f"bridge OPF solution violates balance at bus {b.id}"
            )

    return FlowSolution(
        theta=tuple(float(t) for t in theta),
        flows_mw=tuple(float(f) for f in flows),
        slack_bus=slack,
    )
