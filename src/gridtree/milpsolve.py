"""Bundled LP/MILP solver command for the external-solver bridge.

Reads the LP dialect that ``gridtree.lp.write_lp`` writes: the sections
Minimize, Subject To, Bounds, Binary and End, and bounds lines of the forms
``name = v``, ``lo <= name <= hi`` and ``name free``; no name is an LP
keyword (``free``, ``st``, ...) or starts like a number (``inf``, ``nan``).
Any other LP file is rejected; it belongs to an external solver.  HiGHS,
from the Python binding scipy bundles (``scipy/optimize/_highspy/_core``,
scipy >= 1.15) loaded by its file path, reads the file with its own LP
reader, after ``parse_lp``, and must read the same column names, rows and
nonzeros; it numbers the columns by first appearance.  So the process
imports no numpy, ``scipy.optimize`` or ``scipy.sparse``, and of the
package only ``gridtree`` (whose exports resolve lazily), ``gridtree.errors``
and ``gridtree.lp``.  A file not named ``*.lp`` is read from a private
``.lp`` copy.  HiGHS solves without the objective's constant, as with
``scipy.optimize.milp``, so ``--gap`` is relative to the rest.  The
solution file gets a ``# status ...`` line (``optimal``, ``infeasible`` or
``unbounded``; ``feasible`` or ``timeout`` for a stop at a HiGHS limit with
or without a point; ``error`` for anything else, such as a model HiGHS
rejects), an ``# objective ...`` line when there is a point, ``# nodes``
and ``# gap`` (the relative MIP gap) lines when HiGHS reports them, and
``name value`` lines; stdout stays empty.  An unreadable model, an LP
outside the dialect or that HiGHS reads otherwise, a ``.lp`` copy that
cannot be written, an unwritable solution file or a scipy without the
HiGHS binding ends with one
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
from contextlib import contextmanager
from pathlib import Path

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


@contextmanager
def _lp_path(path, text):
    """``path``, or a private copy of its ``text`` if its name does not
    end in ``.lp``: HiGHS picks its reader by the extension."""
    if path.endswith(".lp"):
        yield path
        return
    import tempfile  # here alone: the bridge names its model file model.lp

    with tempfile.TemporaryDirectory(prefix="gridtree-milpsolve-") as tmp:
        Path(tmp, "model.lp").write_text(text)
        yield str(Path(tmp, "model.lp"))


def _columns(highs, model, small):
    """HiGHS's column names, in its order, after a check that they are
    parse_lp's and that HiGHS read as many rows and nonzeros (repeated
    terms summed, sums up to ``small`` dropped); BridgeError if not."""
    lp = highs.getLp()  # a copy, freed before the solve
    nonzeros = 0
    for con in model.constraints:
        row = {}
        for coef, name in con.terms:
            row[name] = row.get(name, 0.0) + coef
        nonzeros += sum(abs(coef) > small for coef in row.values())
    read = (lp.num_col_, lp.num_row_, highs.getNumNz())
    parsed = (len(model.variables), len(model.constraints), nonzeros)
    if read != parsed:
        raise BridgeError("HiGHS reads {} columns, {} rows and {} nonzeros where "
                          "parse_lp reads {}, {} and {}".format(*read, *parsed))
    names = lp.col_names_
    other = set(names).difference(v.name for v in model.variables)
    if other:
        raise BridgeError(f"HiGHS reads a column {min(other)!r} that parse_lp does not")
    return names


def _solve(core, path, model, time_limit, gap):
    """Solve the ``*.lp`` file at ``path``, which parse_lp read as
    ``model``, as scipy.optimize.milp would: (status word, values by
    ``model.variables`` name, nodes, gap), except that a status that is
    neither an answer nor a limit reads "error".  values is None when
    HiGHS holds no point; nodes and gap are None unless the model has
    binaries and there is a point.
    """
    error = core.HighsStatus.kError
    highs = core._Highs()
    options = _options(core, time_limit, gap)
    # options first: reading with HiGHS's default options prints a banner on stdout
    if highs.passOptions(options) == error or highs.readModel(path) == error:
        return "error", None, None, None
    columns = _columns(highs, model, options.small_matrix_value)
    # as scipy.optimize.milp sees it: mip_rel_gap and the gap HiGHS reports
    # are relative to the objective without its constant
    highs.changeObjectiveOffset(0.0)
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
    point = dict(zip(columns, highs.getSolution().col_value))
    values = {v.name: point[v.name] for v in model.variables}
    if not is_mip:
        return word, values, None, None
    return word, values, info.mip_node_count, info.mip_gap


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
        text = Path(args.model).read_text()
        model = parse_lp(text)
    except BridgeError as exc:
        return _fail(f"{args.model}: {exc}")
    except OSError as exc:
        return _fail(f"cannot read model file {args.model!r}: {exc.strerror or exc}")
    try:
        core = _highs_core()
    except BridgeError as exc:
        return _fail(str(exc))
    try:
        with _lp_path(args.model, text) as path:
            status, values, nodes, gap = _solve(core, path, model, args.time_limit, args.gap)
    except BridgeError as exc:
        return _fail(f"{args.model}: {exc}")
    except OSError as exc:
        return _fail(f"cannot copy model file {args.model!r} to a .lp file: {exc.strerror or exc}")

    out = [f"# status {status}"]
    if values is not None:
        out.append(f"# objective {model.objective_value(values):.12g}")
    if nodes is not None:
        out.append(f"# nodes {int(nodes)}")
    if gap is not None:
        out.append(f"# gap {gap:.12g}")
    out += [f"{name} {val:.17g}" for name, val in (values or {}).items()]
    try:
        Path(args.solution).write_text("\n".join(out) + "\n")
    except OSError as exc:
        return _fail(f"cannot write solution file {args.solution!r}: {exc.strerror or exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
