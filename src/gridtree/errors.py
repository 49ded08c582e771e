"""Exception hierarchy shared across the toolkit.

The CLI maps each class to a distinct exit code, so solver and parser
failures stay distinguishable in scripted benchmark runs.
"""


class GridTreeError(Exception):
    """Base class for all toolkit errors."""


class CaseParseError(GridTreeError):
    """Malformed case file. Carries the 1-based line number when known."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NetworkValidationError(GridTreeError):
    """Structural invariant violated (disconnected net, duplicate ids, ...)."""


class InfeasibleError(GridTreeError):
    """No feasible tree partition exists under the given constraints."""


class BudgetError(GridTreeError):
    """A budget ran out before the search finished or proved its answer.

    ``incumbent`` is the best answer found before the stop, or None: a
    solution from ``gridtree.solve`` or ``solve_via_bridge``, the solver's
    raw values from ``run_bridge``.  It is never proved optimal.
    """

    def __init__(self, message, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


class ModelBuildError(GridTreeError):
    """Conflicting or inconsistent fixings while building the integer model."""


class BridgeError(GridTreeError):
    """External solver failure: bad exit, killed past its deadline, or
    output that is no answer (a missing or unknown status, bad values)."""
