"""``solve``: every method on either backend, ``runtime_s`` stamped once."""

from __future__ import annotations

import dataclasses
import time

from . import bnb, milp, oracle, steiner, twostage
from .errors import BudgetError, ModelBuildError
from .solution import METHOD_MILP, METHOD_SSR

__all__ = ["METHODS", "solve"]

METHODS = ("two-stage", "milp", "ssr", "oracle")


def solve(net, groups, method="milp", bridge=None, time_limit_s=None, limit=oracle.DEFAULT_LIMIT):
    """The validated ``method`` solution, its ``runtime_s`` spanning the call.

    milp and ssr run through ``bridge`` if given, else on the built-in B&B
    within ``time_limit_s``; ssr first fixes one Steiner tree per group.
    A stop at the time limit raises BudgetError; its incumbent, if any, is
    the unproved solution, stamped the same way.
    """
    if method not in METHODS:
        raise ModelBuildError(f"unknown method {method!r} (one of {', '.join(METHODS)})")
    started = time.perf_counter()

    def stamped(sol):
        return dataclasses.replace(sol, runtime_s=time.perf_counter() - started)

    try:
        return stamped(_route(net, groups, method, bridge, time_limit_s, limit))
    except BudgetError as stop:
        if stop.incumbent is not None:
            stop.incumbent = stamped(stop.incumbent)
        raise


def _route(net, groups, method, bridge, time_limit_s, limit):
    if method == "two-stage":
        return twostage.two_stage(net, groups)
    if method == "oracle":
        return oracle.enumerate_optimal(net, groups, limit=limit)
    fixings, tag = None, METHOD_MILP
    if method == "ssr":
        trees = [steiner.steiner_tree(net, g) for g in groups.groups]
        fixings, tag = steiner.build_fixings(net, trees), METHOD_SSR
    if bridge is not None:
        return milp.solve_via_bridge(net, groups, bridge, ssr=fixings, method=tag)
    sol, stats = bnb.solve_builtin(net, groups, ssr=fixings, time_limit_s=time_limit_s, method=tag)
    if not stats.proved_optimal:
        raise BudgetError(
            f"time limit of {time_limit_s:g} s reached before the optimum was proved "
            f"(incumbent {stats.incumbent_mw:.2f} MW, bound {stats.best_bound:.2f} MW)",
            incumbent=sol,
        )
    return sol
