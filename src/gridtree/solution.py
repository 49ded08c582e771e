"""Shared tree-partition solution type, validation, and JSON schema.

Every solver returns the same structure and every emitted solution is
re-validated against the full set of invariants before it is trusted:
the retained cross edges must form the k-1 new bridges of a connected
post-switching network in which the partition is a tree partition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import CaseParseError, NetworkValidationError
from .network import (
    Network,
    Partition,
    ReducedGraph,
    connected_without,
    disruption,
    json_object,
    max_weight_spanning_tree,
    reduced_graph,
)

DISRUPTION_TOL_MW = 1e-6

METHOD_TWO_STAGE = "TWO_STAGE"
METHOD_MILP = "MILP"
METHOD_SSR = "SSR"
METHOD_ORACLE = "ORACLE"
_METHODS = (METHOD_TWO_STAGE, METHOD_MILP, METHOD_SSR, METHOD_ORACLE)

__all__ = [
    "TreePartitionSolution",
    "partition_solution",
    "validate_solution",
    "solution_to_json",
    "solution_from_json",
    "METHOD_TWO_STAGE",
    "METHOD_MILP",
    "METHOD_SSR",
    "METHOD_ORACLE",
]


@dataclass(frozen=True)
class TreePartitionSolution:
    partition: Partition
    switched: frozenset[int]
    retained_bridges: frozenset[int]
    disruption_mw: float
    method: str
    runtime_s: float = 0.0


def partition_solution(net: Network, partition: Partition, method: str) -> TreePartitionSolution:
    """The stage-2 answer for a fixed partition, not yet validated.

    Keeps the maximum-weight spanning tree of the reduced graph as the
    k-1 bridges and switches every other cross line off.
    """
    retained, switched = max_weight_spanning_tree(reduced_graph(net, partition))
    return TreePartitionSolution(
        partition=partition,
        switched=switched,
        retained_bridges=retained,
        disruption_mw=disruption(net, switched),
        method=method,
    )


def validate_solution(net: Network, sol: TreePartitionSolution, groups=None):
    """Raise NetworkValidationError unless every solution invariant holds.

    The post-switching network is walked on ``net`` itself, skipping the
    switched lines.
    """
    p = sol.partition
    rg = reduced_graph(net, p)
    cross = {e.line_id for e in rg.edges}
    if sol.switched & sol.retained_bridges:
        raise NetworkValidationError("switched and retained line sets overlap")
    if sol.switched | sol.retained_bridges != cross:
        raise NetworkValidationError("switched + retained lines do not equal the cross edges")
    if len(sol.retained_bridges) != p.k - 1:
        raise NetworkValidationError(
            f"expected {p.k - 1} retained bridges, got {len(sol.retained_bridges)}"
        )
    if not connected_without(net, sol.switched):
        raise NetworkValidationError("post-switching network is disconnected")
    kept = ReducedGraph(p.k, tuple(e for e in rg.edges if e.line_id not in sol.switched))
    if not kept.is_tree():
        raise NetworkValidationError("partition is not a tree partition after switching")
    if groups is not None:
        for bus, r in groups.cluster_of.items():
            if p.assignment[bus] != r:
                raise NetworkValidationError(f"coherent generator bus {bus} left cluster {r}")
    actual = disruption(net, sol.switched)
    if not abs(actual - sol.disruption_mw) <= DISRUPTION_TOL_MW:  # NaN fails too
        raise NetworkValidationError(
            f"reported disruption {sol.disruption_mw} != recomputed {actual}"
        )


def _pair(net: Network, line_id: int) -> list[int]:
    ln = net.line_by_id[line_id]
    a = net.buses[ln.from_bus].id
    b = net.buses[ln.to_bus].id
    return [min(a, b), max(a, b)]


def solution_to_json(net: Network, sol: TreePartitionSolution, include_runtime: bool = True) -> str:
    doc = {
        "method": sol.method,
        "k": sol.partition.k,
        "clusters": [
            sorted(net.buses[i].id for i in members)
            for members in sol.partition.clusters()
        ],
        "switched": sorted(_pair(net, lid) for lid in sol.switched),
        "bridges": sorted(_pair(net, lid) for lid in sol.retained_bridges),
        "disruption_mw": sol.disruption_mw,
        "runtime_s": sol.runtime_s if include_runtime else 0.0,
    }
    return json.dumps(doc, indent=2) + "\n"


def solution_from_json(net: Network, text: str) -> TreePartitionSolution:
    doc = json_object(
        text,
        "solution file",
        {
            "clusters": "id lists",
            "k": "int",
            "switched": "id pairs",
            "bridges": "id pairs",
            "disruption_mw": "number",
            "method": "text",
        },
    )
    pair_to_line = {tuple(_pair(net, ln.id)): ln.id for ln in net.lines}

    def line_ids(pairs):
        out = set()
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key not in pair_to_line:
                raise NetworkValidationError(f"no line between buses {a} and {b}")
            out.add(pair_to_line[key])
        return frozenset(out)

    if doc["method"] not in _METHODS:
        raise CaseParseError(f"solution file entry 'method' must be one of {', '.join(_METHODS)}")
    runtime_s = doc.get("runtime_s", 0.0)
    if type(runtime_s) not in (int, float) or not 0 <= runtime_s < math.inf:
        raise CaseParseError("solution file entry 'runtime_s' must be a finite number >= 0")
    clusters = doc["clusters"]
    if doc["k"] != len(clusters):
        raise NetworkValidationError(f"k={doc['k']} but {len(clusters)} clusters listed")
    assignment = [0] * net.n
    for r, members in enumerate(clusters, start=1):
        for bus_id in members:
            i = net.index_of(bus_id)
            if assignment[i]:
                raise NetworkValidationError(f"bus {bus_id} assigned twice")
            assignment[i] = r
    if not all(assignment):
        raise NetworkValidationError("partition does not cover all buses")
    return TreePartitionSolution(
        partition=Partition(tuple(assignment), len(clusters)),
        switched=line_ids(doc["switched"]),
        retained_bridges=line_ids(doc["bridges"]),
        disruption_mw=doc["disruption_mw"],
        method=doc["method"],
        runtime_s=runtime_s,
    )
