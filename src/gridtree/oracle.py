"""Brute-force ground truth for tiny instances.

Enumerates every bus-to-cluster assignment consistent with the coherency
fixings, keeps the feasible ones (non-empty connected clusters, connected
reduced multigraph), and scores each with the stage-2 closed form.  The
connectivity tests here are written independently of the structural
helpers in the network module so the oracle only shares the separately
verified spanning-tree primitive and the MW sum with the solvers it
checks.
"""

from __future__ import annotations

import itertools
import time

from .coherency import CoherencyGroups
from .errors import BudgetError, InfeasibleError
from .network import Network, Partition, ReducedEdge, ReducedGraph, disruption
from .solution import METHOD_ORACLE, TreePartitionSolution, validate_solution
from .twostage import max_weight_spanning_tree

__all__ = ["enumerate_optimal", "DEFAULT_LIMIT"]

DEFAULT_LIMIT = 10_000_000


def enumerate_optimal(
    net: Network,
    groups: CoherencyGroups,
    limit: int = DEFAULT_LIMIT,
) -> TreePartitionSolution:
    """Globally optimal tree partition by exhaustive enumeration.

    Assignments are visited in lexicographic order and ties keep the
    first minimum, so the result is the lexicographically smallest
    optimal assignment vector.
    """
    start = time.perf_counter()
    n, k = net.n, groups.k
    fixed = {}
    for r, g in enumerate(groups.groups, start=1):
        for b in g:
            fixed[b] = r
    free = [i for i in range(n) if i not in fixed]
    total = k ** len(free)
    if total > limit:
        raise BudgetError(f"{total} assignments exceed the enumeration limit {limit}")

    nbr_mask = [0] * n
    for ln in net.lines:
        nbr_mask[ln.from_bus] |= 1 << ln.to_bus
        nbr_mask[ln.to_bus] |= 1 << ln.from_bus

    ends = [(ln.from_bus, ln.to_bus, ln.id, abs(ln.flow_mw)) for ln in net.lines]

    best = None  # (value, assignment, retained, switched)
    assignment = [0] * n
    for b, r in fixed.items():
        assignment[b] = r

    for combo in itertools.product(range(1, k + 1), repeat=len(free)):
        for b, r in zip(free, combo):
            assignment[b] = r

        cluster_mask = [0] * (k + 1)
        for i in range(n):
            cluster_mask[assignment[i]] |= 1 << i
        if any(cluster_mask[r] == 0 for r in range(1, k + 1)):
            continue

        # every cluster internally connected (bitmask flood fill)
        ok = True
        for r in range(1, k + 1):
            members = cluster_mask[r]
            comp = members & -members
            frontier = comp
            while frontier:
                reach = 0
                m = frontier
                while m:
                    low = m & -m
                    reach |= nbr_mask[low.bit_length() - 1]
                    m ^= low
                frontier = reach & members & ~comp
                comp |= frontier
            if members & ~comp:
                ok = False
                break
        if not ok:
            continue

        # reduced multigraph connected
        parent = list(range(k + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = k
        cross = []
        for a, b, lid, w in ends:
            ra, rb = assignment[a], assignment[b]
            if ra == rb:
                continue
            cross.append(ReducedEdge(min(ra, rb), max(ra, rb), lid, w))
            fa, fb = find(ra), find(rb)
            if fa != fb:
                parent[fa] = fb
                comps -= 1
        if comps != 1:
            continue

        rg = ReducedGraph(k=k, edges=tuple(cross))
        retained, switched = max_weight_spanning_tree(rg)
        value = disruption(net, switched)
        if best is None or value < best[0]:
            best = (value, tuple(assignment), retained, switched)

    if best is None:
        raise InfeasibleError("no coherency-respecting tree partition exists")

    value, key, retained, switched = best
    sol = TreePartitionSolution(
        partition=Partition(key, k),
        switched=switched,
        retained_bridges=retained,
        disruption_mw=value,
        method=METHOD_ORACLE,
        runtime_s=time.perf_counter() - start,
    )
    validate_solution(net, sol, groups)
    return sol
