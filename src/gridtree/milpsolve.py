"""Bundled LP/MILP solver command for the external-solver bridge.

Reads a CPLEX-LP model file, solves it with HiGHS (through scipy), and
writes a solution file of ``name value`` lines preceded by a
``# status ...`` comment.  Any solver with the same file interface can
replace it in a bridge command template:

    python3 -m gridtree.milpsolve {model} {solution} --time-limit {timeout}
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .milp import parse_lp


def _solve(model, time_limit, gap):
    names = [v.name for v in model.variables]
    index = {name: i for i, name in enumerate(names)}
    nvar = len(names)

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
        if con.sense == "<=":
            c_lo.append(-np.inf)
            c_hi.append(con.rhs)
        elif con.sense == ">=":
            c_lo.append(con.rhs)
            c_hi.append(np.inf)
        else:
            c_lo.append(con.rhs)
            c_hi.append(con.rhs)
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
    ), names


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gridtree-milpsolve",
        description="Solve a CPLEX-LP file with HiGHS and write name/value lines.",
    )
    ap.add_argument("model", help="input LP file")
    ap.add_argument("solution", help="output solution file")
    ap.add_argument("--time-limit", type=float, default=None)
    ap.add_argument("--gap", type=float, default=None,
                    help="relative MIP gap; 0 asks for a proved optimum (default: HiGHS's own)")
    args = ap.parse_args(argv)
    if args.gap is not None and not args.gap >= 0:
        ap.error(f"--gap must be >= 0, got {args.gap!r}")
    if args.time_limit is not None and not args.time_limit >= 0:
        ap.error(f"--time-limit must be >= 0, got {args.time_limit!r}")

    model = parse_lp(Path(args.model).read_text())
    result, names = _solve(model, args.time_limit, args.gap)

    if result.status == 0:
        status = "optimal"
    elif result.status == 2:
        status = "infeasible"
    elif result.status == 3:
        status = "unbounded"
    elif result.x is not None:
        status = "feasible"
    else:
        status = "timeout"

    out = [f"# status {status}"]
    if result.x is not None:
        index = {name: i for i, name in enumerate(names)}
        objective = model.objective_constant + float(
            sum(c * result.x[index[v]] for c, v in model.objective)
        )
        out.append(f"# objective {objective:.12g}")
        for name, val in zip(names, result.x):
            out.append(f"{name} {val:.17g}")
    Path(args.solution).write_text("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
