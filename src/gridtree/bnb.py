"""Self-contained exact solver for the tree partitioning problem.

Branches over bus-to-cluster assignments in a DFS that only builds the
children a bus can still take.  At every node, cluster r's region is
what its lowest member reaches through r's members and the free
buses; a cluster with no members yet may take any free bus.  This is
sound: in a completion that puts free bus b in r, cluster r is
connected, so a path inside r joins b to r's members, and every bus on
it is one of r's members or free now.  The node is pruned when a
cluster's members are not all in its region (they can no longer be
joined) or when a free bus lies in no region (it can join no cluster;
on a connected network the first test already implies this one, but a
component that holds no cluster member is left uncovered).
Otherwise the domain of a free bus is the set of clusters whose region
holds it, and only the children (b, r) with r in b's domain are built:
every other child has no connected completion.  The next bus is the
free one with the smallest domain (fail first), ties going to the most
assigned neighbours and then to the lowest index, so a bus that one
cluster alone can take is placed with a single child.

Leaves are scored with the stage-2 closed form (total cross weight
minus the maximum-weight spanning tree of the reduced graph).  Subtrees
are also pruned by an admissible disruption bound: the weight of the
forced cross lines F (both ends assigned, to different clusters) minus
a maximum-weight spanning forest of F on the cluster labels.  Every
leaf below the node has a cross set C containing F and scores
w(C) - w(T) for a spanning tree T of its cluster graph;
T restricted to F is a forest, so it weighs at most the forest bound's
credit, and the lines of T outside F are cross lines outside F, so the
score is at least w(F) minus that credit.  At a leaf every line is
decided, so F is the whole cross set, and the bound's Kruskal, which
takes F in the stage-2 order (heaviest first, ties to the lower line
id), builds exactly the stage-2 bridge tree.  The leaf reads its
bridges off that forest: it is infeasible when the forest misses a
merge, and otherwise scores the cross lines the forest did not credit.
A subtree is pruned only when its bound exceeds the incumbent by more
than a relative tolerance, so every leaf that ties the optimum is still
scored, and ties between equal-objective optima resolve to the
lexicographically smallest assignment vector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .coherency import CoherencyGroups
from .errors import BudgetError, InfeasibleError
from .network import Network, Partition, disruption
from .solution import METHOD_MILP, TreePartitionSolution, partition_solution, validate_solution
from .steiner import SteinerFixings, collect_bus_fixings

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
        self.forced_cross = 0.0
        self.cross_ranks = 0  # bit r set: the line of weight rank r is forced cross
        self.assigned_mask = 0
        self.all_buses = (1 << self.n) - 1
        self.cluster_mask = [0] * (k + 1)
        self.n_unassigned = self.n
        self.fixed_order = sorted(fixed)

        self.nodes = 0
        self.incumbent: Optional[tuple[float, tuple[int, ...]]] = None  # (value, assignment)

    # -- state updates ------------------------------------------------------

    def place(self, bus: int, r: int) -> list[int]:
        """Assign ``bus`` to ``r``; returns the line positions it forces cross.

        A line is decided once both ends are assigned, so every line met
        here was undecided.
        """
        crossed = []
        self.assign[bus] = r
        self.assigned_mask |= 1 << bus
        self.cluster_mask[r] |= 1 << bus
        self.n_unassigned -= 1
        for pos, other in self.lines_at[bus]:
            o = self.assign[other]
            if o and o != r:
                self.forced_cross += self.weight[pos]
                self.cross_ranks |= 1 << self.rank[pos]
                crossed.append(pos)
        return crossed

    def unplace(self, bus: int, r: int, crossed: list[int]) -> None:
        self.assign[bus] = 0
        self.assigned_mask &= ~(1 << bus)
        self.cluster_mask[r] &= ~(1 << bus)
        self.n_unassigned += 1
        for pos in crossed:
            self.forced_cross -= self.weight[pos]
            self.cross_ranks ^= 1 << self.rank[pos]

    # -- pruning ------------------------------------------------------------

    def bound(self) -> float:
        return max(0.0, self.forced_cross - self.forest()[0])

    def forest(self) -> tuple[float, int, int]:
        """(credit, credited weight ranks, merges still missing) of a
        maximum-weight spanning forest of the forced cross lines: Kruskal
        on the cluster labels, heaviest first, at most k-1 merges."""
        credit = 0.0
        credited = 0
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
                credited |= low
                merges -= 1
                comp = [cb if c == ca else c for c in comp]
        return credit, credited, merges

    def regions(self) -> Optional[list[int]]:
        """Bus mask of each cluster's region (see the module docstring), or
        None when a cluster's members are split or a free bus is in none."""
        free = self.all_buses & ~self.assigned_mask
        covered = 0
        regions = []
        for r in range(1, self.k + 1):
            members = self.cluster_mask[r]
            if members == 0:
                regions.append(free)
                covered |= free
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
                return None
            regions.append(comp)
            covered |= comp
        if free & ~covered:
            return None
        return regions

    # -- DFS ----------------------------------------------------------------

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Stop()
        if self.time_limit_s is not None and self.nodes % 256 == 0:
            if time.perf_counter() - self.started > self.time_limit_s:
                raise _Stop()

    def next_bus(self, regions: list[int]) -> int:
        """The free bus with the fewest clusters in its domain; ties go to
        the most assigned neighbours, then to the lowest index."""
        free = self.all_buses & ~self.assigned_mask
        at_least = [free] + [0] * (self.k + 1)  # [j]: free buses in >= j regions
        for region in regions:
            for j in range(self.k, 0, -1):
                at_least[j] |= at_least[j - 1] & region
        for j in range(1, self.k + 1):  # every free bus is in some region
            fewest = at_least[j] & ~at_least[j + 1]
            if fewest:
                break
        best_bus, best_score = -1, -1
        while fewest:  # ascending scan makes index the tie-break
            low = fewest & -fewest
            fewest ^= low
            b = low.bit_length() - 1
            score = (self.nbr_mask[b] & self.assigned_mask).bit_count()
            if score > best_score:
                best_bus, best_score = b, score
        return best_bus

    def dfs(self) -> None:
        self.tick()
        credit, credited, merges_missing = self.forest()
        bound = max(0.0, self.forced_cross - credit)
        if self.incumbent is not None:
            limit = self.incumbent[0] + _TIE_EPS * (1.0 + abs(self.incumbent[0]))
            if bound > limit:
                return
        regions = self.regions()
        if regions is None:
            return
        if self.n_unassigned == 0:
            # every line is decided, so the bound's forest is the bridge tree
            if merges_missing:
                return
            switched = self.cross_ranks & ~credited
            value = disruption(
                self.net, (lid for lid, r in zip(self.line_ids, self.rank) if switched >> r & 1)
            )
            scored = (value, tuple(self.assign))
            if self.incumbent is None or scored < self.incumbent:
                self.incumbent = scored
            return
        bus = self.next_bus(regions)
        for r in range(1, self.k + 1):
            if not regions[r - 1] >> bus & 1:
                continue
            crossed = self.place(bus, r)
            try:
                self.dfs()
            finally:
                self.unplace(bus, r, crossed)


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

    value, key = search.incumbent
    # an interrupted search has unwound to the root, whose bound is the
    # least on any path: adding a line to F raises w(F) by its weight
    # and the forest by at most that much
    best_bound = value if proved else min(value, search.bound())
    stats = BnBStats(
        nodes=search.nodes,
        best_bound=best_bound,
        incumbent_mw=value,
        proved_optimal=proved,
        wall_time_s=elapsed,
    )
    sol = partition_solution(net, Partition(key, groups.k), method, elapsed)
    validate_solution(net, sol, groups)
    return sol, stats
