"""Two-stage heuristic: constrained spectral clustering, then a
maximum-weight spanning tree on the reduced multigraph.

Stage 1 contracts each coherent group into a supernode, embeds the
|flow|-weighted normalized Laplacian, and runs the coherency module's
deterministic k-means seeded (and pinned) at the supernodes; stray
components are repaired by reassignment to the neighbouring cluster
with the strongest attachment.
Stage 2 keeps the heaviest spanning tree of cross edges as bridges, so
the switched set has minimal weight for the given partition; the tree
is ``network.max_weight_spanning_tree`` (Kruskal, heaviest first, ties
to the lower line id).
"""

from __future__ import annotations

import numpy as np

from .coherency import CoherencyGroups, _kmeans, _slow_modes
from .errors import InfeasibleError, NetworkValidationError
from .network import Network, Partition, components
from .solution import (
    METHOD_TWO_STAGE,
    TreePartitionSolution,
    partition_solution,
    validate_solution,
)

__all__ = [
    "constrained_spectral_partition",
    "two_stage",
]


def _contracted_weights(net: Network, groups: CoherencyGroups):
    """Supernode-contracted |flow| weight matrix and the node mapping."""
    free = sorted(b.index for b in net.buses if b.index not in groups.cluster_of)
    node_of_bus = {b: r - 1 for b, r in groups.cluster_of.items()}
    for pos, b in enumerate(free):
        node_of_bus[b] = groups.k + pos
    size = groups.k + len(free)
    weights = np.zeros((size, size))
    for ln in net.lines:
        a, b = node_of_bus[ln.from_bus], node_of_bus[ln.to_bus]
        if a == b:
            continue
        w = abs(ln.flow_mw)
        weights[a, b] += w
        weights[b, a] += w
    return weights, free, node_of_bus


def _embed(weights: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized k smallest eigenvectors of the normalized Laplacian."""
    degree = weights.sum(axis=1)
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1e-12)), 0.0)
    lap = np.eye(len(weights)) - inv_sqrt[:, None] * weights * inv_sqrt[None, :]
    emb = _slow_modes((lap + lap.T) / 2.0, k)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return np.where(norms > 0, emb / np.maximum(norms, 1e-300), emb)


def constrained_spectral_partition(net: Network, groups: CoherencyGroups) -> Partition:
    """Connected k-partition with each coherent group inside one cluster."""
    for b in groups.cluster_of:
        if not 0 <= b < net.n:
            raise NetworkValidationError(f"group bus index {b} out of range")

    weights, free, node_of_bus = _contracted_weights(net, groups)
    k = groups.k
    emb = _embed(weights, k)
    labels = _kmeans(emb, emb[:k], pinned=k)

    assignment = [0] * net.n
    for b, r in groups.cluster_of.items():
        assignment[b] = r
    for b in free:
        assignment[b] = int(labels[node_of_bus[b]]) + 1

    # repair: move stray components (no group bus) to their heaviest neighbour
    for _round in range(net.n + 1):
        strays = []
        for r in range(1, k + 1):
            members = [i for i in range(net.n) if assignment[i] == r]
            for comp in components(net, members):
                if not any(b in groups.cluster_of for b in comp):
                    strays.append((min(comp), r, comp))
        if not strays:
            break
        strays.sort()
        _, r, comp = strays[0]
        attach: dict[int, float] = {}
        comp_set = set(comp)
        for b in comp:
            for lid, o in net.incident[b]:
                if o in comp_set:
                    continue
                target = assignment[o]
                if target != r:
                    attach[target] = attach.get(target, 0.0) + abs(
                        net.line_by_id[lid].flow_mw
                    )
        if not attach:
            raise InfeasibleError("stray component has no neighbouring cluster")
        best = max(attach.items(), key=lambda kv: (kv[1], -kv[0]))
        for b in comp:
            assignment[b] = best[0]
    else:
        raise InfeasibleError("connectivity repair did not converge")

    partition = Partition(tuple(assignment), k)
    for r, members in enumerate(partition.clusters(), start=1):
        comps = components(net, members)
        if len(comps) != 1:
            raise InfeasibleError(
                f"cluster {r} remains disconnected after repair "
                f"(coherent group spans {len(comps)} components)"
            )
    return partition


def two_stage(net: Network, groups: CoherencyGroups) -> TreePartitionSolution:
    """Spectral partition followed by the optimal bridge selection."""
    partition = constrained_spectral_partition(net, groups)
    sol = partition_solution(net, partition, METHOD_TWO_STAGE)
    validate_solution(net, sol, groups)
    return sol
