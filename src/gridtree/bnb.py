"""Self-contained exact solver for the tree partitioning problem.

Branches over bus-to-cluster assignments in a connectivity-guided DFS
(the next bus is the unassigned one with the most assigned neighbours).
Leaves are scored with the stage-2 closed form (total cross weight
minus the maximum-weight spanning tree of the reduced graph).  Pruning
combines a reachability test, which discards partial assignments whose
clusters can no longer be connected, with an admissible disruption
bound: the weight of the forced cross lines F (both ends assigned, to
different clusters) minus a maximum-weight spanning forest of F on the
cluster labels.  Every leaf below the node has a cross set C containing
F and scores w(C) - w(T) for a spanning tree T of its cluster graph;
T restricted to F is a forest, so it weighs at most the forest bound's
credit, and the lines of T outside F are cross lines outside F, so the
score is at least w(F) minus that credit.  A subtree is pruned only when
its bound exceeds the incumbent by more than a relative tolerance, so
every leaf that ties the optimum is still scored, and ties between
equal-objective optima resolve to the lexicographically smallest
assignment vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .coherency import CoherencyGroups
from .errors import BudgetError, InfeasibleError
from .network import Network, Partition, ReducedEdge, ReducedGraph
from .solution import METHOD_MILP, TreePartitionSolution, validate_solution
from .steiner import SteinerFixings, collect_bus_fixings
from .twostage import max_weight_spanning_tree

__all__ = ["BnBStats", "solve_builtin"]

_TIE_EPS = 1e-9


@dataclass(frozen=True)
class BnBStats:
    nodes: int
    best_bound: float
    incumbent_mw: Optional[float]
    proved_optimal: bool
    wall_time_s: float


class _Stop(Exception):
    pass


class _Search:
    def __init__(self, net: Network, k: int, fixed: dict[int, int],
                 node_limit, time_limit_s):
        self.net = net
        self.k = k
        self.n = net.n
        self.node_limit = node_limit
        self.time_limit_s = time_limit_s
        self.started = time.perf_counter()

        self.line_ids = [ln.id for ln in net.lines]
        self.ends = [(ln.from_bus, ln.to_bus) for ln in net.lines]
        self.weight = [abs(ln.flow_mw) for ln in net.lines]
        # positions sorted by weight descending, id ascending for determinism
        by_weight = sorted(
            range(len(net.lines)), key=lambda p: (-self.weight[p], self.line_ids[p])
        )
        self.rank = [0] * len(net.lines)
        for r, pos in enumerate(by_weight):
            self.rank[pos] = r
        self.by_rank = [(self.weight[p], *self.ends[p]) for p in by_weight]
        self.nbr_mask = [0] * self.n
        self.lines_at: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for pos, (a, b) in enumerate(self.ends):
            self.nbr_mask[a] |= 1 << b
            self.nbr_mask[b] |= 1 << a
            self.lines_at[a].append((pos, b))
            self.lines_at[b].append((pos, a))

        self.assign = [0] * self.n
        self.state = [0] * len(net.lines)  # 0 undecided, 1 internal, 2 cross
        self.forced_cross = 0.0
        self.cross_ranks = 0  # bit r set: the line of weight rank r is forced cross
        self.assigned_mask = 0
        self.cluster_mask = [0] * (k + 1)
        self.n_unassigned = self.n
        self.fixed_order = sorted(fixed)
        self.fixed = fixed

        self.nodes = 0
        self.incumbent: Optional[tuple] = None  # (value, assignment tuple)
        self.path_bounds: list[float] = []
        self.stopped_bound = float("inf")

    # -- state updates ------------------------------------------------------

    def place(self, bus: int, r: int) -> list[tuple[int, int]]:
        touched = []
        self.assign[bus] = r
        self.assigned_mask |= 1 << bus
        self.cluster_mask[r] |= 1 << bus
        self.n_unassigned -= 1
        for pos, other in self.lines_at[bus]:
            if self.assign[other] == 0:
                continue
            if self.state[pos] != 0:
                continue
            if self.assign[other] == r:
                self.state[pos] = 1
            else:
                self.state[pos] = 2
                self.forced_cross += self.weight[pos]
                self.cross_ranks |= 1 << self.rank[pos]
            touched.append((pos, self.state[pos]))
        return touched

    def unplace(self, bus: int, r: int, touched) -> None:
        self.assign[bus] = 0
        self.assigned_mask &= ~(1 << bus)
        self.cluster_mask[r] &= ~(1 << bus)
        self.n_unassigned += 1
        for pos, st in touched:
            if st == 2:
                self.forced_cross -= self.weight[pos]
                self.cross_ranks ^= 1 << self.rank[pos]
            self.state[pos] = 0

    # -- pruning ------------------------------------------------------------

    def bound(self) -> float:
        # Kruskal over the forced cross lines, heaviest first, on cluster labels
        credit = 0.0
        merges = self.k - 1
        comp = list(range(self.k + 1))
        ranks = self.cross_ranks
        while ranks and merges:
            low = ranks & -ranks
            ranks ^= low
            w, a, b = self.by_rank[low.bit_length() - 1]
            ca, cb = comp[self.assign[a]], comp[self.assign[b]]
            if ca != cb:
                credit += w
                merges -= 1
                comp = [cb if c == ca else c for c in comp]
        return max(0.0, self.forced_cross - credit)

    def clusters_reachable(self) -> bool:
        free = ~self.assigned_mask
        for r in range(1, self.k + 1):
            members = self.cluster_mask[r]
            if members == 0:
                continue
            allowed = members | free
            comp = members & -members
            frontier = comp
            while frontier:
                reach = 0
                m = frontier
                while m:
                    low = m & -m
                    reach |= self.nbr_mask[low.bit_length() - 1]
                    m ^= low
                frontier = reach & allowed & ~comp
                comp |= frontier
            if members & ~comp:
                return False
        return True

    # -- leaf ---------------------------------------------------------------

    def leaf_objective(self) -> Optional[tuple[float, frozenset[int], frozenset[int]]]:
        cross_pos = [p for p, s in enumerate(self.state) if s == 2]
        # reduced multigraph must connect all k clusters
        parent = list(range(self.k + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = self.k
        edges = []
        for p in cross_pos:
            a, b = self.ends[p]
            ra, rb = self.assign[a], self.assign[b]
            edges.append(ReducedEdge(min(ra, rb), max(ra, rb), self.line_ids[p], self.weight[p]))
            fa, fb = find(ra), find(rb)
            if fa != fb:
                parent[fa] = fb
                comps -= 1
        if comps != 1:
            return None
        rg = ReducedGraph(k=self.k, edges=tuple(edges))
        retained, switched = max_weight_spanning_tree(rg)
        by_id = {self.line_ids[p]: self.weight[p] for p in cross_pos}
        value = sum(by_id[lid] for lid in sorted(switched))
        return value, retained, switched

    # -- DFS ----------------------------------------------------------------

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Stop()
        if self.time_limit_s is not None and self.nodes % 256 == 0:
            if time.perf_counter() - self.started > self.time_limit_s:
                raise _Stop()

    def next_bus(self) -> int:
        best_bus, best_score = -1, -1
        for b in range(self.n):  # ascending scan makes index the tie-break
            if self.assign[b] != 0:
                continue
            score = bin(self.nbr_mask[b] & self.assigned_mask).count("1")
            if score > best_score:
                best_bus, best_score = b, score
        return best_bus

    def dfs(self) -> None:
        self.tick()
        bound = self.bound()
        if self.incumbent is not None:
            limit = self.incumbent[0] + _TIE_EPS * (1.0 + abs(self.incumbent[0]))
            if bound > limit:
                return
        if not self.clusters_reachable():
            return
        if self.n_unassigned == 0:
            scored = self.leaf_objective()
            if scored is None:
                return
            value, retained, switched = scored
            key = tuple(self.assign)
            if (
                self.incumbent is None
                or value < self.incumbent[0]
                or (value == self.incumbent[0] and key < self.incumbent[1])
            ):
                self.incumbent = (value, key, retained, switched)
            return
        self.path_bounds.append(bound)
        bus = self.next_bus()
        for r in range(1, self.k + 1):
            touched = self.place(bus, r)
            try:
                self.dfs()
            finally:
                self.unplace(bus, r, touched)
        self.path_bounds.pop()


def solve_builtin(
    net: Network,
    groups: CoherencyGroups,
    ssr: Optional[SteinerFixings] = None,
    node_limit: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    method: str = METHOD_MILP,
) -> tuple[TreePartitionSolution, BnBStats]:
    """Exact optimum by combinatorial branch-and-bound.

    Designed for desk-scale instances (tens of buses).  When a node or
    time budget interrupts the search, the best incumbent is returned
    with ``proved_optimal`` false; with no incumbent a BudgetError is
    raised instead.
    """
    fixed = collect_bus_fixings(net, groups, ssr)

    search = _Search(net, groups.k, fixed, node_limit, time_limit_s)
    for i in search.fixed_order:
        search.place(i, fixed[i])

    proved = True
    try:
        search.dfs()
    except _Stop:
        proved = False
    elapsed = time.perf_counter() - search.started

    if search.incumbent is None:
        if not proved:
            raise BudgetError(
                f"budget exhausted after {search.nodes} nodes with no feasible solution"
            )
        raise InfeasibleError("no coherency-respecting tree partition exists")

    value, key, retained, switched = search.incumbent
    if proved:
        best_bound = value
    else:
        open_bounds = search.path_bounds or [0.0]
        best_bound = min(value, min(open_bounds))
    stats = BnBStats(
        nodes=search.nodes,
        best_bound=best_bound,
        incumbent_mw=value,
        proved_optimal=proved,
        wall_time_s=elapsed,
    )
    sol = TreePartitionSolution(
        partition=Partition(key, groups.k),
        switched=switched,
        retained_bridges=retained,
        disruption_mw=value,
        method=method,
        runtime_s=elapsed,
    )
    validate_solution(net, sol, groups)
    return sol, stats
