"""Bundled LP/MILP solver command for the external-solver bridge.

Reads the LP dialect that ``gridtree.milp.write_lp`` writes: the sections
Minimize, Subject To, Bounds, Binary and End, and bounds lines of the forms
``name = v``, ``lo <= name <= hi`` and ``name free``.  Any other LP file is
rejected; it belongs to an external solver.  The model is solved with
HiGHS (through scipy), and the solution file gets a ``# status ...`` line,
an ``# objective ...`` line when there is a point, ``# nodes ...`` (the
branch-and-bound node count) and ``# gap ...`` (the relative MIP gap)
lines when HiGHS reports them, and ``name value`` lines.  An unreadable
model, an LP outside the dialect or an unwritable solution file ends
with one ``gridtree-milpsolve: error: ...`` line on stderr and exit code
2.  Any solver with the same file interface can replace it in a bridge
command template:

    python3 -m gridtree.milpsolve {model} {solution} --time-limit {timeout}
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import BridgeError
from .milp import parse_lp


def _solve(model, time_limit, gap):
    index = {v.name: i for i, v in enumerate(model.variables)}
    nvar = len(index)

    cost = np.zeros(nvar)
    for coef, name in model.objective:
        cost[index[name]] += coef

    integrality = np.array(
        [1 if v.kind == "binary" else 0 for v in model.variables]
    )
    lb = np.empty(nvar)
    ub = np.empty(nvar)
    for i, v in enumerate(model.variables):
        lb[i], ub[i] = v.effective_bounds()

    rows, cols, vals = [], [], []
    c_lo, c_hi = [], []
    for ci, con in enumerate(model.constraints):
        for coef, name in con.terms:
            rows.append(ci)
            cols.append(index[name])
            vals.append(coef)
        c_lo.append(-np.inf if con.sense == "<=" else con.rhs)
        c_hi.append(np.inf if con.sense == ">=" else con.rhs)
    a = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(model.constraints), nvar)
    )

    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if gap is not None:
        options["mip_rel_gap"] = gap

    return milp(
        c=cost,
        constraints=LinearConstraint(a, np.array(c_lo), np.array(c_hi)),
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )


def _fail(message: str) -> int:
    """Report bad input or output as one stderr line; the exit code is 2."""
    sys.stderr.write(f"gridtree-milpsolve: error: {message}\n")
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gridtree-milpsolve",
        description="Solve an LP file in the dialect gridtree's write_lp writes "
        "(Minimize, Subject To, Bounds, Binary, End) with HiGHS and write name/value lines.",
    )
    ap.add_argument("model", help="input LP file, as gridtree.milp.write_lp writes it")
    ap.add_argument("solution", help="output solution file")
    ap.add_argument("--time-limit", type=float, default=None)
    ap.add_argument("--gap", type=float, default=None,
                    help="relative MIP gap; 0 asks for a proved optimum (default: HiGHS's own)")
    args = ap.parse_args(argv)
    if args.gap is not None and not args.gap >= 0:
        ap.error(f"--gap must be >= 0, got {args.gap!r}")
    if args.time_limit is not None and not args.time_limit >= 0:
        ap.error(f"--time-limit must be >= 0, got {args.time_limit!r}")

    try:
        model = parse_lp(Path(args.model).read_text())
    except BridgeError as exc:
        return _fail(f"{args.model}: {exc}")
    except OSError as exc:
        return _fail(f"cannot read model file {args.model!r}: {exc.strerror or exc}")
    result = _solve(model, args.time_limit, args.gap)

    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        result.status, "timeout" if result.x is None else "feasible"
    )
    out = [f"# status {status}"]
    values = {}
    if result.x is not None:
        values = dict(zip((v.name for v in model.variables), result.x.tolist()))
        out.append(f"# objective {model.objective_value(values):.12g}")
    nodes, gap = (getattr(result, key, None) for key in ("mip_node_count", "mip_gap"))
    if nodes is not None:
        out.append(f"# nodes {int(nodes)}")
    if gap is not None:
        out.append(f"# gap {gap:.12g}")
    out += [f"{name} {val:.17g}" for name, val in values.items()]
    try:
        Path(args.solution).write_text("\n".join(out) + "\n")
    except OSError as exc:
        return _fail(f"cannot write solution file {args.solution!r}: {exc.strerror or exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
