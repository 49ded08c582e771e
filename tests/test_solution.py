"""validate_solution: each broken invariant is reported with its own text."""

import pytest

from gridtree.coherency import CoherencyGroups
from gridtree.errors import NetworkValidationError
from gridtree.network import Partition
from gridtree.solution import TreePartitionSolution, validate_solution

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
