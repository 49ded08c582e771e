"""Graphviz DOT export of networks and tree-partition solutions.

Clusters become node fill colors, switched lines dashed red edges, and
retained bridges bold edges.  Output ordering is fixed (buses by index,
lines by id) so renders are byte-reproducible.
"""

from __future__ import annotations

from typing import Optional

from .errors import NetworkValidationError
from .network import Network, bridges
from .solution import TreePartitionSolution

# colorblind-friendly qualitative palette, cycled for large k
PALETTE = (
    "#a6cee3",
    "#b2df8a",
    "#fb9a99",
    "#fdbf6f",
    "#cab2d6",
    "#ffff99",
    "#1f78b4",
    "#33a02c",
    "#ff7f00",
    "#6a3d9a",
)


def to_dot(net: Network, solution: Optional[TreePartitionSolution] = None) -> str:
    if solution is not None and len(solution.partition.assignment) != net.n:
        raise NetworkValidationError("solution does not match the network")
    out = ["graph network {"]
    out.append('  node [shape=circle style=filled fontsize=10 fixedsize=false];')
    if solution is None:
        bold, dashed = set(bridges(net)), frozenset()
        colors = ["#dddddd"] * net.n
    else:
        bold, dashed = solution.retained_bridges, solution.switched
        colors = [PALETTE[(r - 1) % len(PALETTE)] for r in solution.partition.assignment]
    for b in net.buses:
        out.append(f'  b{b.id} [fillcolor="{colors[b.index]}"];')
    for ln in net.lines:
        if ln.id in dashed:
            attrs = ' [style=dashed color="#e31a1c"]'
        elif ln.id in bold:
            attrs = " [penwidth=2.5]"
        else:
            attrs = ""
        out.append(f"  b{net.buses[ln.from_bus].id} -- b{net.buses[ln.to_bus].id}{attrs};")
    out.append("}")
    return "\n".join(out) + "\n"
