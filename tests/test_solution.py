"""validate_solution: each broken invariant is reported with its own text."""

import json
import math

import pytest

from gridtree.coherency import CoherencyGroups
from gridtree.errors import CaseParseError, NetworkValidationError
from gridtree.network import Partition
from gridtree.solution import (
    TreePartitionSolution,
    solution_from_json,
    solution_to_json,
    validate_solution,
)

from conftest import build_net

# cycle 0-1-2-3-0 (lines 0..3) with |flows| 5, 1, 2, 4
CYCLE = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)], flows=[5.0, 1.0, 2.0, 4.0])


def solution(assignment, switched, retained, disruption_mw):
    return TreePartitionSolution(
        partition=Partition(assignment, max(assignment)),
        switched=frozenset(switched),
        retained_bridges=frozenset(retained),
        disruption_mw=disruption_mw,
        method="MILP",
    )


def test_a_tree_partition_passes():
    validate_solution(CYCLE, solution((1, 1, 2, 2), [1], [3], 1.0))


@pytest.mark.parametrize("assignment, switched, retained, disruption_mw, message", [
    ((1, 1, 2, 2), [1, 3], [3], 5.0, "switched and retained line sets overlap"),
    ((1, 1, 2, 2), [1], [], 1.0, r"switched \+ retained lines do not equal the cross edges"),
    # {0, 1} | {2, 3} joined by two lines is not a tree partition of the cycle
    ((1, 1, 2, 2), [], [1, 3], 0.0, "expected 1 retained bridges, got 2"),
    # {0, 2} | {1, 3}: whichever line is kept, the other three cut the cycle apart
    ((1, 2, 1, 2), [1, 2, 3], [0], 7.0, "post-switching network is disconnected"),
    ((1, 1, 2, 2), [1], [3], 1.5, r"reported disruption 1\.5 != recomputed 1\.0"),
    # NaN compares unequal to everything, and so fails the tolerance
    ((1, 1, 2, 2), [1], [3], float("nan"), r"reported disruption nan != recomputed 1\.0"),
], ids=["overlap", "not-the-cross-edges", "non-tree", "disconnected", "disruption",
        "disruption-nan"])
def test_each_broken_invariant_has_its_own_error(
        assignment, switched, retained, disruption_mw, message):
    with pytest.raises(NetworkValidationError, match=f"^{message}$"):
        validate_solution(CYCLE, solution(assignment, switched, retained, disruption_mw))


def test_a_coherent_bus_outside_its_cluster_is_named():
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([1])), k=2)
    with pytest.raises(NetworkValidationError, match="^coherent generator bus 1 left cluster 2$"):
        validate_solution(CYCLE, solution((1, 1, 2, 2), [1], [3], 1.0), groups)


@pytest.mark.parametrize("entry, value", [
    ("method", "bogus"), ("method", "milp"), ("runtime_s", float("nan")), ("runtime_s", "slow"),
    ("runtime_s", -1.0), ("runtime_s", float("inf")), ("runtime_s", True), ("runtime_s", None),
], ids=["method-bogus", "method-lower-case", "runtime-nan", "runtime-text", "runtime-negative",
        "runtime-infinite", "runtime-bool", "runtime-null"])
def test_a_solution_file_names_a_method_or_runtime_of_the_wrong_shape(entry, value):
    doc = json.loads(solution_to_json(CYCLE, solution((1, 1, 2, 2), [1], [3], 1.0)))
    doc[entry] = value
    described = ("one of TWO_STAGE, MILP, SSR, ORACLE" if entry == "method"
                 else "a finite number >= 0")
    message = f"^solution file entry '{entry}' must be {described}$"
    with pytest.raises(CaseParseError, match=message):
        solution_from_json(CYCLE, json.dumps(doc))


@pytest.mark.parametrize("runtime", [0, 2.5, None])
def test_a_solution_file_may_leave_out_its_runtime(runtime):
    doc = json.loads(solution_to_json(CYCLE, solution((1, 1, 2, 2), [1], [3], 1.0)))
    if runtime is None:
        del doc["runtime_s"]
    else:
        doc["runtime_s"] = runtime
    sol = solution_from_json(CYCLE, json.dumps(doc))
    assert sol.method == "MILP" and sol.runtime_s == (runtime or 0.0)
    assert not math.isnan(sol.runtime_s)
