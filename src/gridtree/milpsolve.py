"""Bundled LP/MILP solver command for the external-solver bridge.

Reads only the LP dialect ``gridtree.lp.write_lp`` writes, by the grammar of
``gridtree.lp.read_lp``: the sections Minimize, Subject To, Bounds, Binary and
End, and names that LP readers read as no keyword (``free``, ``st``, ...) and
no number (``inf``, ``nan``); any other LP file belongs to an external solver.
The reading is kept only in counts (``summarize``).  HiGHS, from the Python
binding scipy bundles (``scipy/optimize/_highspy/_core``, scipy >= 1.15) loaded
by its file path, then reads the file itself and must read the same column
names, as many rows and nonzeros, and the same objective costs and constant; it
keeps the last cost of a name the objective repeats, where the grammar sums
them.  So the process imports no numpy, ``dataclasses``, ``scipy.optimize`` or
``scipy.sparse``, and of the package only ``gridtree``, ``gridtree.errors`` and
``gridtree.lp``.  A file not named ``*.lp`` is read from a private ``.lp``
copy.  HiGHS solves without the objective's constant, as
``scipy.optimize.milp`` does, so ``--gap`` is relative to the rest.  The
solution file gets a ``# status ...`` line (``optimal``, ``infeasible`` or
``unbounded``; ``feasible`` or ``timeout`` for a stop at a HiGHS limit with or
without a point; ``error`` otherwise, such as kUnboundedOrInfeasible), an
``# objective ...`` line when there is a point, ``# nodes`` and ``# gap`` (the
relative MIP gap) lines when HiGHS reports them, and ``name value`` lines;
stdout stays empty.  A model that cannot be read, is outside the dialect, holds
a value HiGHS refuses (an infinite bound or a huge entry) or that HiGHS reads
otherwise, a ``.lp`` copy or solution file that cannot be written, or a scipy
without the HiGHS binding ends with one ``gridtree-milpsolve: error: ...`` line
on stderr and exit code 2.  Any solver with the same file interface can replace
it in a bridge command template:

    python3 -m gridtree.milpsolve {model} {solution} --time-limit {timeout}
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .errors import BridgeError
from .lp import read_lp, read_terms

# the module name scipy gives its HiGHS binding; the file lies at the same path
_CORE = "scipy.optimize._highspy._core"

# HighsModelStatus -> status word.  A stop at one of HiGHS's limits reads
# "feasible" with a point and "timeout" without one; any other status, such
# as a model HiGHS rejects or kUnboundedOrInfeasible, reads "error"
_WORDS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kUnbounded": "unbounded"}
_LIMITS = ("kTimeLimit", "kIterationLimit", "kSolutionLimit")
_SIGNS = frozenset("+-")


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
def _lp_path(path):
    """``path``, or a private copy of it if its name does not end in
    ``.lp``: HiGHS picks its reader by the extension."""
    if path.endswith(".lp"):
        yield path
        return
    import tempfile  # here alone: the bridge names its model file model.lp

    with tempfile.TemporaryDirectory(prefix="gridtree-milpsolve-") as tmp:
        Path(tmp, "model.lp").write_bytes(Path(path).read_bytes())
        yield str(Path(tmp, "model.lp"))


class Summary(NamedTuple):
    """The LP grammar's reading of a model file, in counts, a name's
    repeated terms summed in a row and in the objective."""
    columns: frozenset  # names
    binaries: frozenset
    rows: int
    nonzeros: int  # row entries that sum to more than HiGHS's small_matrix_value
    objective: dict  # cost by name, in file order
    constant: float


def _summed(terms) -> dict:
    summed = {}
    for coef, name in terms:
        summed[name] = summed.get(name, 0.0) + coef
    return summed


def summarize(text: str, small: float, infinite: float, large: float) -> Summary:
    """``read_lp``'s reading of ``text`` as a Summary, with row entries up to
    ``small`` dropped; it builds no model and keeps no row once read.  A value
    HiGHS refuses to read is a BridgeError naming it: a lower bound of
    ``infinite`` or more, an upper bound of ``-infinite`` or less, or a
    (summed) row entry of magnitude ``large`` or more."""
    (terms, constant), rows, bounds, binaries = read_lp(text)
    for name, (lo, hi) in bounds.items():
        if lo >= infinite or hi <= -infinite:
            which, value = ("lower", lo) if lo >= infinite else ("upper", hi)
            raise _refused(f"the {which} bound {value:.12g} of column {name!r}",
                           "infinite_bound", infinite)
    objective = _summed(terms)
    columns = binaries | bounds.keys() | objective.keys()
    count = nonzeros = 0
    unit = small < 1 < large  # an entry of 1 is kept and read
    for count, (row, expression, _, sense, rhs) in enumerate(rows, 1):
        value = float(rhs)
        if (value >= infinite and sense != "<=") or (value <= -infinite and sense != ">="):
            raise _refused(f"the {'lower' if value > 0 else 'upper'} bound {value:.12g} "
                           f"of row {row!r}", "infinite_bound", infinite)
        # the words of terms the grammar matched alternate sign and name,
        # unless a term has a coefficient
        words = expression.split()
        odd = len(words) % 2
        names = words[1 - odd::2]
        if unit and _SIGNS.issuperset(words[odd::2]) and len(set(names)) == len(names):
            nonzeros += len(names)
        else:
            names = _summed(read_terms(expression))
            for name, coef in names.items():
                if abs(coef) >= large:
                    raise _refused(f"the entry {coef:.12g} of column {name!r} in row {row!r}",
                                   "large_matrix_value", large)
                nonzeros += abs(coef) > small
        columns.update(names)
    return Summary(frozenset(columns), frozenset(binaries), count, nonzeros, objective, constant)


def _refused(what: str, option: str, limit: float) -> BridgeError:
    return BridgeError(f"HiGHS refuses {what} (its {option} is {limit:.12g})")


def _columns(highs, summary):
    """HiGHS's column names, in its order, after a check that HiGHS read the
    summary's columns, rows, nonzeros, objective costs and constant;
    BridgeError if not."""
    lp = highs.getLp()  # a copy, freed before the solve
    read = (lp.num_col_, lp.num_row_, highs.getNumNz())
    want = (len(summary.columns), summary.rows, summary.nonzeros)
    if read != want:
        raise BridgeError("HiGHS reads {} columns, {} rows and {} nonzeros where "
                          "the LP grammar reads {}, {} and {}".format(*read, *want))
    names = lp.col_names_
    other = set(names).difference(summary.columns)
    if other:
        raise BridgeError(f"HiGHS reads a column {min(other)!r} that the LP grammar does not")
    # getCol, not lp.col_cost_, which is a numpy array; HiGHS keeps the last
    # cost of a name the objective repeats where the grammar sums them
    for j, name in enumerate(names):
        cost, want = highs.getCol(j)[1], summary.objective.get(name, 0.0)
        if cost != want:
            raise BridgeError(f"HiGHS reads an objective cost of {cost:.12g} for {name!r} "
                              f"where the LP grammar reads {want:.12g}")
    if lp.offset_ != summary.constant:
        raise BridgeError(f"HiGHS reads an objective constant of {lp.offset_:.12g} where "
                          f"the LP grammar reads {summary.constant:.12g}")
    return names


def _solve(core, path, summary, options):
    """Solve the ``*.lp`` file at ``path``, which the LP grammar read as
    ``summary``, with ``options`` as scipy.optimize.milp would: (status
    word, values by column name, sorted, nodes, gap), except that a status
    that is neither an answer nor a limit reads "error".  values is None
    when HiGHS holds no point; nodes and gap are None unless the model has
    binaries and there is a point.
    """
    error = core.HighsStatus.kError
    highs = core._Highs()
    # options first: reading with HiGHS's default options prints a banner on stdout
    if highs.passOptions(options) == error or highs.readModel(path) == error:
        return "error", None, None, None
    columns = _columns(highs, summary)
    # as scipy.optimize.milp sees it: mip_rel_gap and the gap HiGHS reports
    # are relative to the objective without its constant
    highs.changeObjectiveOffset(0.0)
    ran = highs.run() != error
    status = highs.getModelStatus()
    info = highs.getInfo()
    is_mip = bool(summary.binaries)
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
    values = {name: point[name] for name in sorted(summary.columns)}
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
        core = _highs_core()
    except BridgeError as exc:
        return _fail(str(exc))
    options = _options(core, args.time_limit, args.gap)
    try:
        summary = summarize(Path(args.model).read_text(), options.small_matrix_value,
                            options.infinite_bound, options.large_matrix_value)
    except BridgeError as exc:
        return _fail(f"{args.model}: {exc}")
    except OSError as exc:
        return _fail(f"cannot read model file {args.model!r}: {exc.strerror or exc}")
    try:
        with _lp_path(args.model) as path:
            status, values, nodes, gap = _solve(core, path, summary, options)
    except BridgeError as exc:
        return _fail(f"{args.model}: {exc}")
    except OSError as exc:
        return _fail(f"cannot copy model file {args.model!r} to a .lp file: {exc.strerror or exc}")

    out = [f"# status {status}"]
    if values is not None:
        objective = sum(cost * values[name] for name, cost in summary.objective.items())
        out.append(f"# objective {summary.constant + objective:.12g}")
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
