"""Self-contained exact solver for the tree partitioning problem.

The search runs on the network with its degree-2 chains contracted.  A
chain is a maximal run of degree-2 buses, none of them a group bus or
otherwise fixed (``network.degree2_chains``); it becomes one line
between its two end buses that carries the chain's least |flow|.  Every
cluster holds its non-empty coherent group, which lies outside the
chain, so in a feasible partition each chain bus shares its cluster
with one of the chain's ends: the chain is cut at most once.  Moving
that cut to a lighter line of the chain never raises the value (the
cross weight falls by the difference, the bridge tree's weight by at
most that much), so the contracted optimum equals the original one.
A chain beside a line or another chain becomes a parallel line, and a
chain whose ends are the same bus a self-loop, which is never cross;
the search reads only line ends and weights, so it runs on that
multigraph.

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
cluster alone can take is placed with a single child.  Its children are
visited in descending order of the flow on its lines to each cluster's
members (ties to the lower label), so the first leaves keep much of the
flow and the incumbent bounds the rest of the search early.  Placing a
bus changes only the regions that held it (and the region of a cluster
that gets its first member), so only those are flooded again.  Unplacing
a bus restores the masks they replaced and the saved forced cross flow
and forest (see below), so an interrupted search unwinds to the exact
root state, float sums included.

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

The forest is node state, kept next to F.  Placing a bus forces the
lines N between it and the assigned buses of other clusters, and the
new forest is Kruskal over the old forest's credited lines plus N, not
over all of F.  The weight ranks order the lines strictly (weight
descending, then line id), so each maximum-weight spanning forest is
unique.  By the cycle property a line of F outside MSF(F) is the
lightest line on a cycle of F, so it stays out of the forest of F + N:
MSF(F + N) = MSF(MSF(F) + N).  The credited lines, and with them each
leaf's bridge tree, are thus the ones Kruskal over all of F picks, and
the credit is bit-identical, because the credited weights are still
summed in ascending rank order.  The forest also keeps the component
label Kruskal left on each cluster.  When every line of N is lighter
than every credited line, Kruskal over MSF(F) + N takes all the credited
lines first and reaches exactly the kept credit and labels, so place()
goes on from the kept forest over N alone instead of running Kruskal
over MSF(F) + N.  A line of N that joins two labels of one component
closes a cycle of the forest and is lighter than every forest line, so
it is the lightest line on that cycle and is rejected: when every line
of N is, or no merge is missing, the forest stays as it was.  Unplacing
the bus restores the saved forest.

A node is counted, held to the node and time limits and bounded right
after its bus is placed, in its parent's child loop (the root after the
fixed buses are placed), so a pruned child is unplaced without a call
to dfs.  Pruned children count as nodes all the same, in the order they
are placed, so node limits and counts read as if dfs entered each one.

A subtree is pruned only when its bound exceeds the incumbent by more
than a relative tolerance, so every leaf that ties the optimum is still
scored, and the search keeps each leaf that ties the final incumbent.
Each kept leaf is expanded back to the original buses: a chain whose
ends share a cluster joins it, and a chain between two clusters is cut
at each of its lines in turn.  The answer is the least (value,
assignment) pair over all expansions, scored on the original network,
so ties between equal-objective optima resolve to the lexicographically
smallest assignment vector.  That is the enumeration's answer: it maps
to a contracted leaf of optimal value, which is kept, and it is one of
that leaf's expansions.  Cutting only at the lightest line would not
do: when the chain's cross line is a bridge every cut scores the same,
and another cut can give the smaller assignment.  The comparison does
not depend on the order in which leaves are met, so the child order
changes only how many nodes are visited, never the answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional

from .coherency import CoherencyGroups
from .errors import BudgetError, InfeasibleError
from .network import Line, Network, Partition, degree2_chains, disruption
from .solution import METHOD_MILP, TreePartitionSolution, partition_solution, validate_solution
from .steiner import SteinerFixings, collect_bus_fixings

__all__ = ["BnBStats", "solve_builtin"]

_TIE_EPS = 1e-9


def _tie_limit(value: float) -> float:
    """The largest value that still ties ``value`` to within the tolerance."""
    return value + _TIE_EPS * (1.0 + abs(value))


@dataclass(frozen=True)
class BnBStats:
    nodes: int
    best_bound: float
    incumbent_mw: Optional[float]
    proved_optimal: bool


class _Stop(Exception):
    pass


class _Search:
    """The DFS over ``n`` buses joined by ``lines``, (line, end, end)
    triples whose ends are bus positions; lines may run parallel or be
    self-loops.  Each line keeps its id and flow in ``net``, which scores
    the leaves."""

    def __init__(self, net: Network, n: int, lines: list[tuple[Line, int, int]], k: int,
                 node_limit, time_limit_s):
        self.net = net
        self.k = k
        self.n = n
        self.node_limit = node_limit
        self.time_limit_s = time_limit_s
        self.started = time.perf_counter()

        self.line_ids = [ln.id for ln, _a, _b in lines]
        self.ends = [(a, b) for _ln, a, b in lines]
        weight = [abs(ln.flow_mw) for ln, _a, _b in lines]
        # positions sorted by weight descending, id ascending for determinism
        by_weight = sorted(range(len(lines)), key=lambda p: (-weight[p], self.line_ids[p]))
        self.rank = [0] * len(lines)
        for r, pos in enumerate(by_weight):
            self.rank[pos] = r
        self.by_rank = [(weight[p], *self.ends[p]) for p in by_weight]
        self.nbr_mask = [0] * self.n
        # [bus]: (other end, weight, 1 << weight rank) of each line at bus
        self.lines_at: list[list[tuple[int, float, int]]] = [[] for _ in range(self.n)]
        for pos, (a, b) in enumerate(self.ends):
            self.nbr_mask[a] |= 1 << b
            self.nbr_mask[b] |= 1 << a
            self.lines_at[a].append((b, weight[pos], 1 << self.rank[pos]))
            self.lines_at[b].append((a, weight[pos], 1 << self.rank[pos]))

        self.assign = [0] * self.n
        self.forced_cross = 0.0
        self.cross_ranks = 0  # bit r set: the line of weight rank r is forced cross
        # (credit, credited weight ranks, merges still missing, component label
        # of each cluster) of the forced cross lines' maximum-weight spanning
        # forest on the cluster labels
        self.empty_forest = (0.0, 0, k - 1, list(range(k + 1)))
        self.forest = self.empty_forest
        self.assigned_mask = 0
        self.all_buses = (1 << self.n) - 1
        self.cluster_mask = [0] * (k + 1)
        self.n_unassigned = self.n

        self.region = [0] * (k + 1)  # [r]: cluster r's region once regions() ran
        self.stale = (1 << (k + 1)) - 2  # bit r set: region[r] must be re-flooded
        self.saved: list[tuple[int, int]] = []  # (r, region[r] before its re-flood)
        # what place() changes and unplace() restores, one entry per placement
        self.undo: list[tuple[float, int, tuple, int, int]] = []

        self.nodes = 0
        self.incumbent: Optional[float] = None  # the least leaf value so far
        self.limit = float("inf")  # _tie_limit(incumbent): prune bounds above it
        # (value, assignment) of every leaf that ties the incumbent
        self.tied: list[tuple[float, tuple[int, ...]]] = []

    # -- state updates ------------------------------------------------------

    def place(self, bus: int, r: int) -> None:
        """Assign ``bus`` to ``r``, mark the regions this may change, and
        add the lines this forces cross to F and to its forest.

        A line is decided once both ends are assigned, so every line met
        here was undecided.  Another cluster's region only loses ``bus``
        from its allowed set, so it changes only if it held ``bus``; r's
        allowed set stays the same, so its region changes only if r had
        no members (its region was every free bus) or did not hold ``bus``.
        """
        bit = 1 << bus
        self.undo.append(
            (self.forced_cross, self.cross_ranks, self.forest, self.stale, len(self.saved))
        )
        for s in range(1, self.k + 1):
            if s != r and self.region[s] & bit:
                self.stale |= 1 << s
        if not self.cluster_mask[r] or not self.region[r] & bit:
            self.stale |= 1 << r
        self.assign[bus] = r
        self.assigned_mask |= bit
        self.cluster_mask[r] |= bit
        self.n_unassigned -= 1
        forced = 0
        forced_cross = self.forced_cross
        assign = self.assign
        for other, w, rank_bit in self.lines_at[bus]:
            o = assign[other]
            if o and o != r:
                forced_cross += w
                forced |= rank_bit
        if forced:
            self.forced_cross = forced_cross
            self.cross_ranks |= forced
            credited = self.forest[1]
            if forced & ((1 << credited.bit_length()) - 1):
                self.forest = self.kruskal(self.empty_forest, credited | forced)
            else:  # every new line is lighter than every credited one
                self.forest = self.kruskal(self.forest, forced)

    def unplace(self, bus: int, r: int) -> None:
        """Undo the last ``place(bus, r)`` and the re-floods made since."""
        self.forced_cross, self.cross_ranks, self.forest, self.stale, mark = self.undo.pop()
        while len(self.saved) > mark:
            s, region = self.saved.pop()
            self.region[s] = region
        self.assign[bus] = 0
        self.assigned_mask &= ~(1 << bus)
        self.cluster_mask[r] &= ~(1 << bus)
        self.n_unassigned += 1

    # -- pruning ------------------------------------------------------------

    def bound(self) -> float:
        return max(0.0, self.forced_cross - self.forest[0])

    def kruskal(self, forest: tuple, ranks: int) -> tuple[float, int, int, list[int]]:
        """``forest`` grown by Kruskal over the lines whose weight ranks are
        set in ``ranks``, all with both ends assigned and all lighter than
        the lines ``forest`` credits: on the cluster labels, heaviest first,
        at most k-1 merges in all."""
        credit, credited, merges, comp = forest
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
        return credit, credited, merges, comp

    def regions(self) -> Optional[list[int]]:
        """Bus mask of each cluster's region (see the module docstring), or
        None when a cluster's members are split or a free bus is in none.

        Only the clusters that place() marked stale are flooded again; the
        masks they held are saved for unplace().
        """
        free = self.all_buses & ~self.assigned_mask
        stale = self.stale
        while stale:
            bit = stale & -stale
            stale ^= bit
            r = bit.bit_length() - 1
            self.saved.append((r, self.region[r]))
            members = self.cluster_mask[r]
            if members == 0:
                self.region[r] = free
                self.stale ^= bit
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
            self.region[r] = comp
            self.stale ^= bit
        regions = self.region[1:]
        covered = 0
        for region in regions:
            covered |= region
        if free & ~covered:
            return None
        return regions

    # -- DFS ----------------------------------------------------------------

    def next_bus(self, regions: list[int]) -> int:
        """The free bus with the fewest clusters in its domain; ties go to
        the most assigned neighbours, then to the lowest index."""
        free = self.all_buses & ~self.assigned_mask
        ones = twos = threes = 0  # buses in >= 1, >= 2, >= 3 regions
        for region in regions:
            threes |= twos & region
            twos |= ones & region
            ones |= region
        fewest = free & ~twos or free & twos & ~threes  # every free bus is in some region
        if not fewest:
            at_least = [free] + [0] * (self.k + 1)  # [j]: free buses in >= j regions
            for region in regions:
                for j in range(self.k, 0, -1):
                    at_least[j] |= at_least[j - 1] & region
            for j in range(3, self.k + 1):
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

    def enter(self) -> bool:
        """Count the node just placed, stop at the node or time limit, and
        say whether its bound lets the search descend into it."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _Stop()
        if self.time_limit_s is not None and self.nodes % 256 == 0:
            if time.perf_counter() - self.started > self.time_limit_s:
                raise _Stop()
        # the limit is positive, so this is bound() <= limit
        return self.forced_cross - self.forest[0] <= self.limit

    def dfs(self) -> None:
        """Search below a node that enter() let in."""
        regions = self.regions()
        if regions is None:
            return
        if self.n_unassigned == 0:
            # every line is decided, so the bound's forest is the bridge tree
            _credit, credited, merges_missing, _comp = self.forest
            if merges_missing:
                return
            switched = self.cross_ranks & ~credited
            value = disruption(
                self.net, (lid for lid, r in zip(self.line_ids, self.rank) if switched >> r & 1)
            )
            if self.incumbent is None or value < self.incumbent:
                self.incumbent = value
                self.limit = _tie_limit(value)
                self.tied = [leaf for leaf in self.tied if leaf[0] <= self.limit]
            if value <= self.limit:
                self.tied.append((value, tuple(self.assign)))
            return
        bus = self.next_bus(regions)
        domain = [r for r in range(1, self.k + 1) if regions[r - 1] >> bus & 1]
        if len(domain) > 1:
            kept = [0.0] * (self.k + 1)  # [r]: flow on bus's lines into cluster r
            for other, w, _rank_bit in self.lines_at[bus]:
                kept[self.assign[other]] += w
            domain.sort(key=lambda r: -kept[r])
        for r in domain:
            self.place(bus, r)
            try:
                if self.enter():
                    self.dfs()
            finally:
                self.unplace(bus, r)


class _Contracted:
    """``net`` with every degree-2 chain of free buses replaced by its
    lightest line (ties to the lower id), and the way back to the
    original buses.

    The line keeps its id, so ``disruption`` reads the same flow on it.
    ``lines`` holds (line, end, end) with the ends as positions in
    ``buses``.
    """

    def __init__(self, net: Network, fixed: dict[int, int]):
        self.net = net
        self.chains = degree2_chains(net, fixed)
        inner = {b for c in self.chains for b in c.buses}
        self.buses = [b for b in range(net.n) if b not in inner]  # contracted -> original
        index = {b: i for i, b in enumerate(self.buses)}
        gone = {lid for c in self.chains for lid in c.lines}
        kept = [(ln, ln.from_bus, ln.to_bus) for ln in net.lines if ln.id not in gone]
        kept += [(c.cut_line(net), *c.ends) for c in self.chains]
        self.lines = [(ln, index[a], index[b]) for ln, a, b in kept]
        self.fixed = {index[b]: r for b, r in fixed.items()}

    def expand(self, assign: tuple[int, ...]):
        """Every original assignment that the contracted ``assign`` stands
        for: a chain between two clusters is cut at each of its lines."""
        full = [0] * self.net.n
        for i, b in enumerate(self.buses):
            full[b] = assign[i]
        cut = []
        for c in self.chains:
            ra, rb = full[c.ends[0]], full[c.ends[1]]
            if ra == rb:
                for b in c.buses:
                    full[b] = ra
            else:
                cut.append((c.buses, ra, rb))
        for positions in itertools.product(*(range(len(buses) + 1) for buses, _, _ in cut)):
            for (buses, ra, rb), p in zip(cut, positions):
                for j, b in enumerate(buses):
                    full[b] = ra if j < p else rb
            yield tuple(full)


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
    time budget interrupts the search, the best expansion of the leaves
    kept so far is returned with ``proved_optimal`` false; with no
    incumbent a BudgetError is raised instead.  Both limits default to
    none; ``gridtree.solve`` passes its ``time_limit_s`` and turns an
    unproved return into a BudgetError that carries the solution.
    """
    work = _Contracted(net, collect_bus_fixings(net, groups, ssr))
    search = _Search(net, len(work.buses), work.lines, groups.k, node_limit, time_limit_s)
    for b, r in sorted(work.fixed.items()):
        search.place(b, r)

    proved = True
    try:
        if search.enter():
            search.dfs()
    except _Stop:
        proved = False

    if search.incumbent is None:
        if not proved:
            raise BudgetError(
                f"budget exhausted after {search.nodes} nodes with no feasible solution"
            )
        raise InfeasibleError("no coherency-respecting tree partition exists")

    sol = min(
        (
            partition_solution(net, Partition(full, groups.k), method)
            for _value, leaf in search.tied
            for full in work.expand(leaf)
        ),
        key=lambda s: (s.disruption_mw, s.partition.assignment),
    )
    # an interrupted search has unwound to the root, whose bound is the
    # least on any path: adding a line to F raises w(F) by its weight
    # and the forest by at most that much; it bounds the original optimum
    # because the contracted optimum equals it
    best_bound = sol.disruption_mw if proved else min(sol.disruption_mw, search.bound())
    stats = BnBStats(nodes=search.nodes, best_bound=best_bound,
                     incumbent_mw=sol.disruption_mw, proved_optimal=proved)
    validate_solution(net, sol, groups)
    return sol, stats
