"""Tree partitioning of power transmission networks.

Computes optimal and heuristic tree partitions minimizing power flow
disruption subject to generator coherency: a two-stage spectral
baseline, an exact integer-programming route (built-in branch-and-bound
or an external solver bridge), Steiner-tree search-space reduction, and
a brute-force oracle for verification.
"""

from .bnb import BnBStats, solve_builtin
from .coherency import CoherencyGroups, slow_coherency
from .dcflow import (
    FlowSolution,
    GenCost,
    balanced_injections,
    check_localization,
    disruption,
    solve_dc,
    solve_dcopf_via_bridge,
    with_flows,
)
from .errors import (
    BridgeError,
    BudgetError,
    CaseParseError,
    GridTreeError,
    InfeasibleError,
    ModelBuildError,
    NetworkValidationError,
    UnsupportedOperation,
)
from .milp import MilpModel, SolverBridge, build_model, export_lp, parse_lp, solve_via_bridge
from .network import (
    Bus,
    Line,
    Network,
    Partition,
    ReducedGraph,
    apply_switching,
    bridges,
    cross_edges,
    is_tree_partition,
    merge_parallel,
    parse_case,
    reduced_graph,
    serialize_case,
)
from .oracle import enumerate_optimal
from .solution import TreePartitionSolution, solution_to_json, validate_solution
from .steiner import SteinerFixings, SteinerTree, build_fixings, steiner_tree
from .twostage import constrained_spectral_partition, max_weight_spanning_tree, two_stage

__version__ = "0.1.0"
