"""DC power flow and failure localization.

Flows follow the linearized model: per-unit flow on a line equals its
susceptance times the angle difference of its endpoints.  Solves use a
deterministic dense LU factorization (LAPACK, through NumPy); any
injection imbalance is absorbed at the slack bus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NetworkValidationError
from .network import Line, Network, apply_switching, is_connected

BALANCE_TOL_PU = 1e-8
LOCALIZATION_TOL_MW = 1e-6

__all__ = [
    "FlowSolution",
    "LocalizationReport",
    "laplacian",
    "solve_dc",
    "with_flows",
    "balanced_injections",
    "check_localization",
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


def _line_arrays(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each line's from bus, to bus and susceptance, in line order."""
    lines = net.lines
    f = np.array([ln.from_bus for ln in lines], dtype=np.intp)
    t = np.array([ln.to_bus for ln in lines], dtype=np.intp)
    sus = np.array([ln.susceptance for ln in lines], dtype=float)
    return f, t, sus


def _ends_sum(n: int, f, t, at_f, at_t) -> np.ndarray:
    """Per bus, the sum of ``at_f`` over the lines leaving it and ``at_t``
    over the lines entering it.  Line i's ends are entries 2i and 2i+1,
    so each sum runs in line order."""
    ends = np.column_stack((f, t)).ravel()
    return np.bincount(ends, np.column_stack((at_f, at_t)).ravel(), minlength=n)


def _laplacian(n: int, f: np.ndarray, t: np.ndarray, sus: np.ndarray) -> np.ndarray:
    lap = np.zeros((n, n))
    lap.flat[:: n + 1] = _ends_sum(n, f, t, sus, sus)
    lap[f, t] = -sus
    lap[t, f] = -sus
    return lap


def laplacian(net: Network) -> np.ndarray:
    """Susceptance-weighted bus Laplacian (per unit), dense.

    Each diagonal entry sums its lines' susceptances in line order; a
    Network has no parallel lines, so each off-diagonal entry is one
    line's negated susceptance.
    """
    return _laplacian(net.n, *_line_arrays(net))


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
    disconnected, if an injection is not finite, or if the per-bus
    balance residual exceeds 1e-8 p.u., which happens when per-unit
    values are too extreme for double precision.
    """
    n = net.n
    if not 0 <= slack < n:
        raise NetworkValidationError(f"slack bus {slack} out of range")
    if not is_connected(net):
        raise NetworkValidationError("cannot solve DC flow on a disconnected network")

    if injections_mw is None:
        p = np.array([b.injection_mw for b in net.buses], dtype=float)
    else:
        p = np.asarray(injections_mw, dtype=float)
        if p.shape != (n,):
            raise NetworkValidationError(
                f"injection vector has shape {p.shape}, expected ({n},)"
            )
        bad = np.flatnonzero(~np.isfinite(p))
        if bad.size:
            i = int(bad[0])
            raise NetworkValidationError(
                f"injection at bus {net.buses[i].id} must be finite, got {float(p[i])!r}"
            )
    p = p / net.base_mva
    f, t, sus = _line_arrays(net)

    theta = np.zeros(n)
    if n > 1:
        keep = np.arange(n) != slack
        reduced = _laplacian(n, f, t, sus)[np.ix_(keep, keep)]
        try:
            theta[keep] = np.linalg.solve(reduced, p[keep])
        except np.linalg.LinAlgError as exc:  # singular factorization
            raise NetworkValidationError(f"DC flow system is singular: {exc}")
        if not np.all(np.isfinite(theta)):
            raise NetworkValidationError("DC flow system is singular")

    flows = net.base_mva * sus * (theta[f] - theta[t])

    # flow conservation at every non-slack bus: MW leaving each bus through its lines
    residual = np.abs(_ends_sum(n, f, t, flows, -flows) / net.base_mva - p)
    residual[slack] = 0.0
    worst = float(residual.max()) if n > 1 else 0.0
    if worst > BALANCE_TOL_PU:
        raise NetworkValidationError(
            f"values too extreme for a DC solve: balance residual {worst:.3e} p.u. "
            f"exceeds {BALANCE_TOL_PU}"
        )

    return FlowSolution(
        theta=tuple(theta.tolist()),
        flows_mw=tuple(flows.tolist()),
        slack_bus=slack,
    )


def with_flows(net: Network, sol: FlowSolution) -> Network:
    """New network whose lines carry the solved MW flows.

    It shares ``net``'s validated topology and its cached views:
    ``incident``, the id index and connectivity.
    """
    if len(sol.flows_mw) != net.m:
        raise NetworkValidationError("flow vector does not match line count")
    return net._reflowed(tuple(
        Line(ln.id, ln.from_bus, ln.to_bus, ln.susceptance, f, ln.capacity_mw)
        for ln, f in zip(net.lines, sol.flows_mw)
    ))


@dataclass(frozen=True)
class LocalizationReport:
    outcome: str  # "pass" | "fail" | "islanding"
    line_id: int
    cluster: int
    max_outside_delta_mw: Optional[float]


def check_localization(net, solution, line_id: int) -> LocalizationReport:
    """Check that an internal-line outage stays inside its cluster.

    Removes ``line_id`` from the post-switching network and re-solves the
    DC flow; the check passes when no line outside the failed line's
    cluster changes flow by ``LOCALIZATION_TOL_MW`` or more.  A removal
    that splits the network is reported as "islanding" and not evaluated.
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
        return LocalizationReport("islanding", line_id, ra if ra == rb else 0, None)
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
    outcome = "pass" if worst < LOCALIZATION_TOL_MW else "fail"
    return LocalizationReport(outcome, line_id, ra, worst)
