"""Bundled LP/MILP solver command for the external-solver bridge.

Reads the LP dialect that ``gridtree.lp.write_lp`` writes: the sections
Minimize, Subject To, Bounds, Binary and End, and bounds lines of the forms
``name = v``, ``lo <= name <= hi`` and ``name free``.  Any other LP file is
rejected; it belongs to an external solver.  The model is solved with
HiGHS through the Python binding that scipy bundles
(``scipy/optimize/_highspy/_core``, scipy >= 1.15).  The binding is loaded
by its file path, so this process imports numpy and HiGHS but not
``scipy.optimize`` or ``scipy.sparse``; it gets the same matrix and
options as ``scipy.optimize.milp`` would.  Of the package it loads only
``gridtree`` (whose exports resolve lazily), ``gridtree.errors`` and
``gridtree.lp``; numpy stays because the binding imports it for any
value assigned to a ``HighsLp`` array field.  The solution file gets a
``# status ...`` line (``optimal``, ``infeasible`` or ``unbounded``;
``feasible`` or ``timeout`` for a stop at a HiGHS limit with or without a
point; ``error`` for anything else, such as a model HiGHS rejects), an
``# objective ...`` line when there is a point,
``# nodes ...`` (the branch-and-bound node count) and ``# gap ...`` (the
relative MIP gap) lines when HiGHS reports them, and ``name value`` lines.
An unreadable model, an LP outside the dialect, an unwritable solution
file or a scipy without the HiGHS binding ends with one
``gridtree-milpsolve: error: ...`` line on stderr and exit code 2.  Any
solver with the same file interface can replace it in a bridge command
template:

    python3 -m gridtree.milpsolve {model} {solution} --time-limit {timeout}
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .errors import BridgeError
from .lp import parse_lp

# the module name scipy gives its HiGHS binding; the file lies at the same path
_CORE = "scipy.optimize._highspy._core"

# HighsModelStatus -> status word.  A stop at one of HiGHS's limits reads
# "feasible" with a point and "timeout" without one; any other status, such
# as a model HiGHS rejects or kUnboundedOrInfeasible, reads "error"
_WORDS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded"}
_LIMITS = ("kTimeLimit", "kIterationLimit", "kSolutionLimit")


def _highs_core():
    """scipy's HiGHS binding, loaded by its file path.

    A binding that ``import scipy.optimize`` already loaded is reused, and
    a later ``import scipy.optimize`` reuses this one: the extension is
    initialised once per process.
    """
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    package, *parts = _CORE.split(".")
    spec = importlib.util.find_spec(package)
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, *parts[:-1], parts[-1] + suffix)
            if path.is_file():
                core_spec = importlib.util.spec_from_file_location(_CORE, path)
                core = sys.modules[_CORE] = importlib.util.module_from_spec(core_spec)
                try:
                    core_spec.loader.exec_module(core)
                except ImportError as exc:
                    del sys.modules[_CORE]
                    raise BridgeError(f"cannot load HiGHS from {path}: {exc}") from None
                return core
    raise BridgeError(f"scipy's HiGHS binding {_CORE} was not found (needs scipy>=1.15)")


def _options(core, time_limit, gap):
    """The HiGHS options scipy.optimize.milp sets for the same arguments."""
    options = core.HighsOptions()
    options.log_to_console = False
    if time_limit is not None:
        options.time_limit = time_limit
    if gap is not None:
        options.mip_rel_gap = gap
    return options


def _lp(core, model):
    """The model as a HighsLp, its matrix column-wise like scipy's CSC."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    nvar, nrow = len(index), len(model.constraints)

    cost = np.zeros(nvar)
    for coef, name in model.objective:
        cost[index[name]] += coef

    rows, cols, vals = [], [], []
    for ci, con in enumerate(model.constraints):
        for coef, name in con.terms:
            rows.append(ci)
            cols.append(index[name])
            vals.append(coef)
    rows = np.array(rows, dtype=np.int32)
    cols = np.array(cols, dtype=np.int32)
    # by (column, row); a repeated entry adds up in input order, as in
    # scipy's COO -> CSR -> CSC conversion
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    values = np.bincount(np.cumsum(first) - 1, weights=np.array(vals)[order])

    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nvar
    lp.num_row_ = lp.a_matrix_.num_row_ = nrow
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols[first], np.arange(nvar + 1)).astype(np.int32)
    lp.a_matrix_.index_ = rows[first]
    lp.a_matrix_.value_ = values
    lp.col_cost_ = cost
    bounds = np.array([v.effective_bounds() for v in model.variables], dtype=float)
    lp.col_lower_, lp.col_upper_ = bounds.reshape(nvar, 2).T
    lp.row_lower_ = np.array(
        [-np.inf if con.sense == "<=" else con.rhs for con in model.constraints], dtype=float
    )
    lp.row_upper_ = np.array(
        [np.inf if con.sense == ">=" else con.rhs for con in model.constraints], dtype=float
    )
    kind = {"binary": core.HighsVarType.kInteger}
    lp.integrality_ = [kind.get(v.kind, core.HighsVarType.kContinuous) for v in model.variables]
    return lp


def _solve(core, model, time_limit, gap):
    """Solve as scipy.optimize.milp does: (status word, x, nodes, gap),
    except that a status that is neither an answer nor a limit reads "error".

    x is None when HiGHS holds no point; nodes and gap are None unless the
    model has binaries and there is a point.
    """
    error = core.HighsStatus.kError
    highs = core._Highs()
    if (highs.passOptions(_options(core, time_limit, gap)) == error
            or highs.passModel(_lp(core, model)) == error):
        return "error", None, None, None
    ran = highs.run() != error
    status = highs.getModelStatus()
    info = highs.getInfo()
    is_mip = model.binary_count() > 0
    stopped = status.name in _LIMITS
    has_point = ran and (
        status == core.HighsModelStatus.kOptimal
        or (is_mip and stopped and info.objective_function_value != core.kHighsInf)
    )
    if stopped:
        word = "feasible" if has_point else "timeout"
    else:
        word = _WORDS.get(status.name, "error")
    if not has_point:
        return word, None, None, None
    x = np.array(highs.getSolution().col_value)
    if not is_mip:
        return word, x, None, None
    return word, x, info.mip_node_count, info.mip_gap


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
    ap.add_argument("model", help="input LP file, as gridtree.lp.write_lp writes it")
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
    try:
        core = _highs_core()
    except BridgeError as exc:
        return _fail(str(exc))
    status, x, nodes, gap = _solve(core, model, args.time_limit, args.gap)

    out = [f"# status {status}"]
    values = {}
    if x is not None:
        values = dict(zip((v.name for v in model.variables), x.tolist()))
        out.append(f"# objective {model.objective_value(values):.12g}")
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
