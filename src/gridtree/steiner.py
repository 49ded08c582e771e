"""Exact minimum-edge Steiner trees and conflict-free partial fixings.

The solver is Dreyfus-Wagner dynamic programming over terminal subsets
(unit edge weights).  One optimal-preserving contraction keeps terminal
counts small on real grids before the exponential DP runs: edges joining
two terminals are contracted.  The terminal budget applies after it.

An exact node elimination then shrinks the graph the DP runs on.  Wong's
dual ascent on the contracted graph, bidirected with unit arc costs and
rooted at the lowest terminal, gives a lower bound LB on the edge count
and reduced arc costs of 0 or 1.  Each node v scores LB + d(root, v) +
min over the other terminals t of d(v, t), in reduced-cost distances; no
Steiner tree through v has fewer edges than its score.  The DP and its
walk-back run on the terminals plus the nodes scoring at most U = LB,
with the nodes in ascending order, and once more with U = c if that run's
optimum c exceeds LB (c is at least the optimum, so the second run is
exact).  The arc into a terminal-free pendant subtree never falls to
reduced cost 0, so its nodes score above LB and the first run drops them.
A terminal cut off from the root ends the ascent: they are unreachable.

The tree is the one the DP builds on the whole contracted graph.  Every
node of every minimum tree is kept, and so is every node of every
shortest path between the ends of a walk in the reconstruction (swapping
that path in gives another minimum tree).  The kept nodes keep their
relative order, every entry on the reconstruction keeps its value, and
the other entries can only grow; a larger value never wins a strict
comparison, so the root, every split and walk choice, and every
walk-back step are the same.

The DP is vectorised per subset mask.  The split step scores every
unordered split of the mask at once as one NumPy gather-add-argmin over
(split, node) arrays; the walk step closes the result under shortest
paths with one (node, node) argmin.  Ties are broken deterministically:
among equal splits the largest submask (the part without the mask's top
terminal) wins, and among equal walks the lowest source node index wins;
a split or walk replaces the incumbent only when strictly better, and a
walk is tried only after all splits.  With t terminals and n kept nodes
the cost is about 3^t * n / 2 element operations for splits plus
2^t * n^2 for walks, and memory is two (2^t, n) int32 tables plus
(2^(t-1), n) split temporaries and an (n, n) walk temporary.  The ascent
and the scores cost far less: each raise floods the terminals'
zero-cost components, and there are LB raises.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .coherency import CoherencyGroups
from .errors import BudgetError, ModelBuildError, NetworkValidationError
from .network import Network

MAX_TERMINALS = 14
_INF = np.int32(10**6)

__all__ = ["SteinerTree", "SteinerFixings", "steiner_tree", "build_fixings",
           "collect_bus_fixings", "MAX_TERMINALS"]


@dataclass(frozen=True)
class SteinerTree:
    """A tree (bus set, line set) spanning the given terminal buses."""

    nodes: frozenset[int]
    edges: frozenset[int]
    terminals: frozenset[int]

    def __post_init__(self):
        if not self.terminals <= self.nodes:
            raise NetworkValidationError("terminals not spanned by tree nodes")
        if len(self.edges) != len(self.nodes) - 1:
            raise NetworkValidationError("edge count does not match a tree")


@dataclass(frozen=True)
class SteinerFixings:
    """Conflict-free bus->cluster and line->cluster pre-assignments."""

    bus_fix: Mapping[int, int]
    edge_fix: Mapping[int, int]


def collect_bus_fixings(
    net: Network, groups: CoherencyGroups, ssr: Optional[SteinerFixings] = None
) -> dict[int, int]:
    """Bus -> cluster pre-assignments from coherency plus Steiner fixings.

    Raises ModelBuildError for a bus outside the network or fixed to two
    clusters.
    """
    pairs = list(groups.cluster_of.items())
    if ssr is not None:
        pairs += ssr.bus_fix.items()
    fixed: dict[int, int] = {}
    for i, r in pairs:
        if not 0 <= i < net.n:
            raise ModelBuildError(f"fixed bus index {i} out of range")
        if fixed.get(i, r) != r:
            raise ModelBuildError(f"bus {i} fixed to clusters {fixed[i]} and {r}")
        fixed[i] = r
    return fixed


def _reduce(net: Network, terminals: set[int]):
    """The graph the elimination starts from: lines joining two terminals
    contracted, repeatedly.

    Returns (edges, terminals, forced): each surviving unordered node pair
    keeps one representative original line (lowest id); the contracted
    lines always belong to the final tree.
    """
    terminals = set(terminals)
    forced: list[int] = []
    # node pair -> line id
    edges: dict[tuple[int, int], int] = {}
    for ln in net.lines:
        edges[(min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))] = ln.id

    while True:
        candidates = [
            (lid, key)
            for key, lid in edges.items()
            if key[0] in terminals and key[1] in terminals
        ]
        if not candidates:
            break
        lid, (a, b) = min(candidates)
        keep, gone = min(a, b), max(a, b)
        forced.append(lid)
        terminals.discard(gone)
        rebuilt: dict[tuple[int, int], int] = {}
        for (u, v), e in edges.items():
            ru = keep if u == gone else u
            rv = keep if v == gone else v
            if ru == rv:
                continue
            k2 = (min(ru, rv), max(ru, rv))
            if k2 not in rebuilt or e < rebuilt[k2]:
                rebuilt[k2] = e
        edges = rebuilt
    return edges, terminals, forced


def _submask_table(bits: int) -> list[np.ndarray]:
    """Ascending submasks (0 included) of every mask below ``1 << bits``."""
    table = [np.zeros(1, dtype=np.int32)]
    for b in range(bits):
        table += [np.concatenate((low, low | (1 << b))) for low in table]
    return table


def _dreyfus_wagner(dist, terminals):
    """Subset DP; returns dp values and reconstruction choices."""
    t = len(terminals)
    n = dist.shape[0]
    size = 1 << t
    dp = np.full((size, n), _INF, dtype=np.int32)
    # choice: (-1 base) | (submask for split) | (-2 - u for walk from node u)
    choice = np.full((size, n), -1, dtype=np.int32)
    for i, term in enumerate(terminals):
        dp[1 << i] = dist[term]
        choice[1 << i] = -2 - term
        choice[1 << i, term] = -1

    # submasks of a mask = (submasks of its high half) x (of its low half)
    half = (t + 1) // 2
    low_mask = (1 << half) - 1
    table = _submask_table(half)
    cols = np.arange(n)
    dist_to = np.ascontiguousarray(dist.T, dtype=np.int32)
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        # each unordered split once, by its part without the mask's top bit:
        # the nonempty submasks of the rest, in descending order
        rest = mask ^ (1 << (mask.bit_length() - 1))
        subs = ((table[rest >> half] << half)[:, None] | table[rest & low_mask]).ravel()[:0:-1]
        merged = dp[subs]
        merged += dp[mask ^ subs]
        arg = np.argmin(merged, axis=0)  # ties: first, i.e. largest, submask
        val = merged[arg, cols]
        # no split through an unreachable part: best stays at _INF, pick at -1
        best = np.minimum(val, _INF)
        pick = np.where(val < _INF, subs[arg], -1)
        # close under shortest-path walks: dp[mask][v] = min_u best[u] + dist(u, v)
        through = dist_to + best  # [v, u]; a row per target keeps argmin contiguous
        walk_src = np.argmin(through, axis=1)  # ties: lowest u
        walk_val = through[cols, walk_src]
        better = walk_val < best
        dp[mask] = np.where(better, walk_val, best)
        choice[mask] = np.where(better, -2 - walk_src, pick)

    return dp, choice


def _hop_distances(edges: Iterable[tuple[int, int]], index: Mapping[int, int]) -> np.ndarray:
    """All-pairs hop counts over the undirected ``edges`` between nodes at
    the given ``index`` positions, ``_INF`` where unreachable: one
    breadth-first search per source."""
    n = len(index)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    hops = np.full((n, n), _INF, dtype=np.int64)
    for s in range(n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        hops[s, list(dist)] = list(dist.values())
    return hops


def _dp_tree(nodes: list[int], edges: Mapping[tuple[int, int], int],
             terms: list[int]) -> tuple[int, set[int]]:
    """Dreyfus-Wagner DP and walk-back on the subgraph of ``nodes`` (ascending)
    and ``edges`` between them: (edge count, line ids) of the tree spanning
    ``terms``, or (``_INF``, empty set) when the terminals are not connected
    there."""
    index = {v: i for i, v in enumerate(nodes)}
    dist = _hop_distances(edges, index)
    neighbor: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for (a, b), lid in edges.items():
        neighbor[index[a]].append((index[b], lid))
        neighbor[index[b]].append((index[a], lid))
    for lst in neighbor:
        lst.sort()

    dp, choice = _dreyfus_wagner(dist, [index[v] for v in terms])
    full = (1 << len(terms)) - 1
    root = int(np.argmin(dp[full]))
    cost = int(dp[full, root])
    chosen: set[int] = set()
    if cost >= _INF:
        return int(_INF), chosen

    def shortest_path_edges(u: int, v: int):
        # walk back from v to u along any shortest path, lowest index first
        while v != u:
            for w, lid in neighbor[v]:
                if dist[u, w] == dist[u, v] - 1:
                    chosen.add(lid)
                    v = w
                    break

    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        c = int(choice[mask, v])
        if c == -1:
            continue
        if c >= 0:  # split into two subsets rooted at v
            stack.append((c, v))
            stack.append((mask ^ c, v))
        else:  # walk from u to v
            u = -2 - c
            shortest_path_edges(u, v)
            stack.append((mask, u))
    return cost, chosen


def _ascent_scores(nodes: list[int], edges: Iterable[tuple[int, int]],
                   terms: list[int]) -> Optional[tuple[int, list[float]]]:
    """Wong's dual ascent on the bidirected unit-cost graph, rooted at the
    lowest terminal, and a lower bound on every tree through each node.

    Returns (lb, score) with ``score`` aligned with ``nodes``: lb bounds
    every Steiner tree's edge count, and score[i] bounds every Steiner tree
    through nodes[i] (lb itself for a terminal, ``inf`` for a node no
    tree can reach).  Returns None when some terminal's zero-cost
    component has no entering arc, i.e. it is cut off from the root.
    """
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    root, *others = [index[v] for v in terms]
    # zero_in[v]: tails u of the arcs u->v whose reduced cost fell to 0;
    # every other arc still costs 1, so each raise lowers a cut by exactly 1
    zero_in: list[set[int]] = [set() for _ in range(n)]

    def reaching(t: int) -> set[int]:
        seen = {t}
        stack = [t]
        while stack:
            v = stack.pop()
            for u in zero_in[v] - seen:
                seen.add(u)
                stack.append(u)
        return seen

    lb = 0
    while True:
        active = [cut for cut in map(reaching, others) if root not in cut]
        if not active:
            break
        # raise the cut with the fewest entering arcs, ties to the lower terminal
        entering = min(([(u, v) for v in cut for u in adj[v] if u not in cut]
                        for cut in active), key=len)
        if not entering:
            return None
        for u, v in entering:
            zero_in[v].add(u)
        lb += 1

    def zero_one_distances(sources: list[int], forward: bool) -> list[float]:
        # reduced-cost distances from the sources (forward) or to them
        dist = [math.inf] * n
        queue = deque(sources)
        for s in sources:
            dist[s] = 0
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                free = v in zero_in[u] if forward else u in zero_in[v]
                d = dist[v] + (0 if free else 1)
                if d < dist[u]:
                    dist[u] = d
                    if free:
                        queue.appendleft(u)
                    else:
                        queue.append(u)
        return dist

    from_root = zero_one_distances([root], True)
    to_term = zero_one_distances(others, False)
    score = [lb + a + b for a, b in zip(from_root, to_term)]
    return lb, score


def steiner_tree(net: Network, terminals: Iterable[int]) -> SteinerTree:
    """Minimum-edge Steiner tree spanning the terminal buses.

    Exact for up to 14 terminals after reduction; beyond that a
    BudgetError suggests supplying smaller groups.
    """
    term_set = set(terminals)
    if not term_set:
        raise NetworkValidationError("terminal set is empty")
    for b in term_set:
        if not 0 <= b < net.n:
            raise NetworkValidationError(f"terminal {b} out of range")

    edges, reduced_terms, forced = _reduce(net, term_set)

    terms = sorted(reduced_terms)
    if len(terms) > MAX_TERMINALS:
        raise BudgetError(
            f"{len(terms)} terminals after reduction exceed the exact budget "
            f"({MAX_TERMINALS}); split the group or use fewer terminals"
        )

    chosen: set[int] = set(forced)
    if len(terms) > 1:
        nodes = sorted({v for key in edges for v in key} | set(terms))
        bound = _ascent_scores(nodes, edges, terms)
        if bound is None:
            raise NetworkValidationError("terminals are not mutually reachable")
        lb, score = bound

        def dp_within(upper: int) -> tuple[int, set[int]]:
            # every node of every tree with at most `upper` edges is kept
            kept = {v for v, s in zip(nodes, score) if s <= upper}
            sub = {key: lid for key, lid in edges.items()
                   if key[0] in kept and key[1] in kept}
            return _dp_tree(sorted(kept), sub, terms)

        cost, lines = dp_within(lb)
        if cost > lb:  # cost >= the optimum, so this run is exact
            cost, lines = dp_within(cost)
        chosen |= lines

    tree_nodes: set[int] = set(term_set)
    for lid in chosen:
        ln = net.line_by_id[lid]
        tree_nodes.add(ln.from_bus)
        tree_nodes.add(ln.to_bus)
    return SteinerTree(
        nodes=frozenset(tree_nodes),
        edges=frozenset(chosen),
        terminals=frozenset(term_set),
    )


def build_fixings(net: Network, trees: list[SteinerTree]) -> SteinerFixings:
    """Overlap-corrected fixings from one Steiner tree per cluster.

    Buses in two or more trees, lines in two or more trees, and lines
    touching any such bus are dropped from every tree's fixing, which
    removes every source of conflicting pre-assignments.
    """
    bus_count = Counter()
    edge_count = Counter()
    for tree in trees:
        bus_count.update(tree.nodes)
        edge_count.update(tree.edges)
    overlap_buses = {b for b, c in bus_count.items() if c >= 2}
    removed_edges = {e for e, c in edge_count.items() if c >= 2}
    for tree in trees:
        for lid in tree.edges:
            ln = net.line_by_id[lid]
            if ln.from_bus in overlap_buses or ln.to_bus in overlap_buses:
                removed_edges.add(lid)

    bus_fix: dict[int, int] = {}
    edge_fix: dict[int, int] = {}
    for r, tree in enumerate(trees, start=1):
        for b in tree.nodes - overlap_buses:
            if b in bus_fix and bus_fix[b] != r:
                raise NetworkValidationError("overlap correction left a conflicting bus")
            bus_fix[b] = r
        for lid in tree.edges - removed_edges:
            ln = net.line_by_id[lid]
            if bus_fix.get(ln.from_bus) != r or bus_fix.get(ln.to_bus) != r:
                raise NetworkValidationError("fixed line endpoints not fixed to its cluster")
            edge_fix[lid] = r
    return SteinerFixings(bus_fix=bus_fix, edge_fix=edge_fix)
