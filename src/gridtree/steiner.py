"""Exact minimum-edge Steiner trees and conflict-free partial fixings.

The solver is Dreyfus-Wagner dynamic programming over terminal subsets
(unit edge weights).  Two optimal-preserving reductions keep terminal
counts small on real grids before the exponential DP runs: edges joining
two terminals are contracted, and non-terminal leaves are pruned.  The
terminal budget applies after reduction.

The DP is vectorised per subset mask.  The split step scores every
unordered split of the mask at once, in blocks of ``_SPLIT_BLOCK``
submasks, as one NumPy gather-add-argmin over (block, node) arrays; the
walk step closes the result under shortest paths with one (node, node)
argmin.  Ties are broken deterministically: among equal splits the
largest submask (the part without the mask's top terminal) wins, and
among equal walks the lowest source node index wins; a split or walk
replaces the incumbent only when strictly better, and a walk is tried
only after all splits.  With t terminals and n nodes the cost is about
3^t * n / 2 element operations for splits plus 2^t * n^2 for walks, and
memory is two (2^t, n) int32 tables plus O(_SPLIT_BLOCK * n + n^2)
temporaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from .coherency import CoherencyGroups
from .errors import BudgetError, ModelBuildError, NetworkValidationError
from .network import Network

MAX_TERMINALS = 14
_INF = np.int32(10**6)
# submasks per split step; bounds the (block, n) temporaries
_SPLIT_BLOCK = 512

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
    pairs = [(i, r) for r, members in enumerate(groups.groups, start=1) for i in members]
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


class _Contraction:
    """Working multigraph with union-find node merging.

    Each surviving unordered supernode pair keeps one representative
    original line (lowest id); merged terminal components remember the
    contracted lines, which always belong to the final tree.
    """

    def __init__(self, net: Network, terminals: set[int]):
        self.net = net
        self.terminals = set(terminals)
        self.forced_edges: list[int] = []
        # rep pair -> line id
        self.edges: dict[tuple[int, int], int] = {}
        for ln in net.lines:
            key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
            if key not in self.edges or ln.id < self.edges[key]:
                self.edges[key] = ln.id

    def contract_terminal_edges(self):
        while True:
            candidates = [
                (lid, key)
                for key, lid in self.edges.items()
                if key[0] in self.terminals and key[1] in self.terminals
            ]
            if not candidates:
                return
            lid, (a, b) = min(candidates)
            keep, gone = min(a, b), max(a, b)
            self.forced_edges.append(lid)
            self.terminals.discard(gone)
            rebuilt: dict[tuple[int, int], int] = {}
            for (u, v), e in self.edges.items():
                ru = keep if u == gone else u
                rv = keep if v == gone else v
                if ru == rv:
                    continue
                k2 = (min(ru, rv), max(ru, rv))
                if k2 not in rebuilt or e < rebuilt[k2]:
                    rebuilt[k2] = e
            self.edges = rebuilt

    def prune_leaves(self):
        while True:
            degree: Counter = Counter()
            for a, b in self.edges:
                degree[a] += 1
                degree[b] += 1
            drop = {
                node
                for node in degree
                if node not in self.terminals and degree[node] <= 1
            }
            if not drop:
                return
            self.edges = {
                (a, b): e
                for (a, b), e in self.edges.items()
                if a not in drop and b not in drop
            }


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
        best = np.full(n, _INF, dtype=np.int32)
        pick = np.full(n, -1, dtype=np.int32)
        for start in range(0, len(subs), _SPLIT_BLOCK):
            block = subs[start:start + _SPLIT_BLOCK]
            merged = dp[block]
            merged += dp[mask ^ block]
            arg = np.argmin(merged, axis=0)  # ties: first, i.e. largest, submask
            val = merged[arg, cols]
            better = val < best
            best[better] = val[better]
            pick[better] = block[arg[better]]
        # close under shortest-path walks: dp[mask][v] = min_u best[u] + dist(u, v)
        through = dist_to + best  # [v, u]; a row per target keeps argmin contiguous
        walk_src = np.argmin(through, axis=1)  # ties: lowest u
        walk_val = through[cols, walk_src]
        better = walk_val < best
        dp[mask] = np.where(better, walk_val, best)
        choice[mask] = np.where(better, -2 - walk_src, pick)

    return dp, choice


def _hop_distances(edges: Iterable[tuple[int, int]], index: Mapping[int, int],
                   sources=None) -> np.ndarray:
    """Hop counts over the undirected ``edges`` between nodes at the given
    ``index`` positions: one row per source position (every node by
    default), one column per node, ``_INF`` where unreachable."""
    rows = [index[a] for a, _ in edges]
    cols = [index[b] for _, b in edges]
    graph = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(index), len(index)))
    hops = shortest_path(graph, directed=False, unweighted=True, indices=sources)
    return np.where(np.isinf(hops), _INF, hops).astype(np.int64)


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

    work = _Contraction(net, term_set)
    work.contract_terminal_edges()
    work.prune_leaves()

    terms = sorted(work.terminals)
    if len(terms) > MAX_TERMINALS:
        raise BudgetError(
            f"{len(terms)} terminals after reduction exceed the exact budget "
            f"({MAX_TERMINALS}); split the group or use fewer terminals"
        )

    chosen: set[int] = set(work.forced_edges)
    if len(terms) > 1:
        all_nodes = sorted({v for key in work.edges for v in key} | set(terms))
        # hop levels from each terminal; nodes further from every terminal
        # than a known feasible tree size cannot appear in an optimal tree
        pos = {v: i for i, v in enumerate(all_nodes)}
        term_dist = _hop_distances(work.edges, pos, [pos[t] for t in terms])
        upper = term_dist[0, [pos[t] for t in terms[1:]]].sum()
        nodes = [v for v, d in zip(all_nodes, term_dist.min(axis=0)) if d <= upper]
        index = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        # the DP sees distances on the kept subgraph, which can exceed
        # full-graph ones, so they are measured there
        kept = {key: lid for key, lid in work.edges.items() if key[0] in index and key[1] in index}
        dist = _hop_distances(kept, index)
        neighbor: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (a, b), lid in kept.items():
            neighbor[index[a]].append((index[b], lid))
            neighbor[index[b]].append((index[a], lid))
        for lst in neighbor:
            lst.sort()

        term_idx = [index[v] for v in terms]
        dp, choice = _dreyfus_wagner(dist, term_idx)

        full = (1 << len(terms)) - 1
        if dp[full].min() >= _INF:
            raise NetworkValidationError("terminals are not mutually reachable")
        root = int(np.argmin(dp[full]))

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
