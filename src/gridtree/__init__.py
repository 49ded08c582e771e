"""Tree partitioning of power transmission networks.

Computes optimal and heuristic tree partitions minimizing power flow
disruption subject to generator coherency: a two-stage spectral
baseline, an exact integer-programming route (built-in branch-and-bound
or an external solver bridge), Steiner-tree search-space reduction, and
a brute-force oracle for verification.

The names in ``__all__`` and the submodules they come from resolve on
first access (PEP 562), so ``import gridtree`` loads no numpy and the
``gridtree.milpsolve`` solver child loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports from the package
_SOURCES = {
    "bnb": ("BnBStats", "solve_builtin"),
    "coherency": ("CoherencyGroups", "slow_coherency"),
    "dcflow": ("FlowSolution", "GenCost", "balanced_injections", "check_localization",
               "disruption", "solve_dc", "solve_dcopf_via_bridge", "with_flows"),
    "errors": ("BridgeError", "BudgetError", "CaseParseError", "GridTreeError",
               "InfeasibleError", "ModelBuildError", "NetworkValidationError",
               "UnsupportedOperation"),
    "lp": ("MilpModel", "parse_lp"),
    "milp": ("SolverBridge", "build_model", "export_lp", "solve_via_bridge"),
    "network": ("Bus", "Line", "Network", "Partition", "ReducedGraph", "apply_switching",
                "bridges", "cross_edges", "is_tree_partition", "merge_parallel", "parse_case",
                "reduced_graph", "serialize_case"),
    "oracle": ("enumerate_optimal",),
    "routes": ("METHODS", "solve"),
    "solution": ("TreePartitionSolution", "solution_to_json", "validate_solution"),
    "steiner": ("SteinerFixings", "SteinerTree", "build_fixings", "steiner_tree"),
    "twostage": ("constrained_spectral_partition", "max_weight_spanning_tree", "two_stage"),
}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SOURCES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
