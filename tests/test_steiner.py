"""Exact Steiner trees against subgraph brute force, and overlap-corrected
fixings."""

import itertools
from collections import Counter

import numpy as np
import pytest

from gridtree import coherency, steiner
from gridtree.errors import BudgetError, NetworkValidationError
from gridtree.network import parse_case
from gridtree.steiner import SteinerFixings, SteinerTree, build_fixings, steiner_tree

from conftest import CASES_DIR, build_net, random_connected_net


def brute_force_min_edges(net, terminals):
    """Minimum edges over all connected induced supersets of the terminals."""
    others = [i for i in range(net.n) if i not in terminals]
    best = None
    for r in range(len(others) + 1):
        if best is not None and len(terminals) + r - 1 >= best:
            break
        for extra in itertools.combinations(others, r):
            nodes = set(terminals) | set(extra)
            start = next(iter(nodes))
            seen = {start}
            stack = [start]
            while stack:
                b = stack.pop()
                for _lid, o in net.incident[b]:
                    if o in nodes and o not in seen:
                        seen.add(o)
                        stack.append(o)
            if seen == nodes:
                size = len(nodes) - 1
                if best is None or size < best:
                    best = size
        if best is not None and best <= max(len(terminals) + r - 1, 0):
            break
    return best


def _check_is_tree(net, tree: SteinerTree):
    # connected with |E| = |V|-1 over exactly its node set
    assert len(tree.edges) == len(tree.nodes) - 1
    if not tree.nodes:
        return
    start = next(iter(tree.nodes))
    seen = {start}
    stack = [start]
    edge_set = set(tree.edges)
    while stack:
        b = stack.pop()
        for lid, o in net.incident[b]:
            if lid in edge_set and o in tree.nodes and o not in seen:
                seen.add(o)
                stack.append(o)
    assert seen == tree.nodes


def test_single_terminal_is_trivial():
    net = build_net(4, [(0, 1), (1, 2), (2, 3)])
    tree = steiner_tree(net, [2])
    assert tree.nodes == {2}
    assert tree.edges == frozenset()


def test_leaves_of_tree_force_whole_tree():
    net = build_net(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    tree = steiner_tree(net, [0, 2, 4, 5])
    assert tree.nodes == set(range(6))
    assert len(tree.edges) == 5


def test_adjacent_terminals_contract():
    net = build_net(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    tree = steiner_tree(net, [0, 1, 2])
    assert tree.nodes == {0, 1, 2}
    assert tree.edges == {0, 1}


def test_matches_brute_force_on_small_graphs():
    rng = np.random.default_rng(71)
    for trial in range(40):
        n = int(rng.integers(5, 13))
        net = random_connected_net(rng, n, int(rng.integers(0, n)))
        t = int(rng.integers(2, min(6, n) + 1))
        terminals = sorted(rng.choice(n, size=t, replace=False).tolist())
        tree = steiner_tree(net, terminals)
        _check_is_tree(net, tree)
        assert set(terminals) <= tree.nodes
        assert len(tree.edges) == brute_force_min_edges(net, set(terminals))


def test_terminal_budget_error():
    # star: 16 leaf terminals around a hub, nothing contracts
    edges = [(0, i) for i in range(1, 17)]
    net = build_net(17, edges)
    with pytest.raises(BudgetError):
        steiner_tree(net, list(range(1, 17)))


def test_unreachable_terminals_raise():
    # two components: a triangle and a path
    net = build_net(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    with pytest.raises(NetworkValidationError, match="terminals are not mutually reachable"):
        steiner_tree(net, [0, 4])


def _outcome(net, terminals):
    try:
        tree = steiner_tree(net, terminals)
    except NetworkValidationError as exc:
        return type(exc), str(exc)
    return tree.nodes, tree.edges


def _whole_graph_outcome(net, terminals):
    """The DP and walk-back on the whole contraction-only graph."""
    edges, reduced, forced = steiner._reduce(net, set(terminals))
    chosen = set(forced)
    if len(reduced) > 1:
        nodes = sorted({v for key in edges for v in key} | reduced)
        cost, lines = steiner._dp_tree(nodes, edges, sorted(reduced))
        if cost >= steiner._INF:
            return NetworkValidationError, "terminals are not mutually reachable"
        chosen |= lines
    nodes = set(terminals)
    for lid in chosen:
        nodes |= {net.line_by_id[lid].from_bus, net.line_by_id[lid].to_bus}
    return frozenset(nodes), frozenset(chosen)


def test_elimination_gives_the_whole_graph_tree():
    rng = np.random.default_rng(113)
    instances = []
    for i in range(600):
        n = int(rng.integers(2, 41))
        net = random_connected_net(rng, n, int(rng.integers(0, n)))
        if i % 10 == 0 and n >= 4:  # split in two components
            cut = int(rng.integers(1, n))
            net = build_net(n, [(ln.from_bus, ln.to_bus) for ln in net.lines
                                if (ln.from_bus < cut) == (ln.to_bus < cut)])
        t = int(rng.integers(1, min(9, n) + 1))
        instances.append((net, rng.choice(n, size=t, replace=False).tolist()))

    got = [_outcome(net, terminals) for net, terminals in instances]
    # instances whose ascent bound is below the optimum need the second DP run
    loose = 0
    for (net, terminals), result in zip(instances, got):
        edges, reduced, forced = steiner._reduce(net, set(terminals))
        if len(reduced) < 2 or isinstance(result[0], type):
            continue
        nodes = sorted({v for key in edges for v in key} | reduced)
        lb, _score = steiner._ascent_scores(nodes, edges, sorted(reduced))
        loose += lb < len(result[1]) - len(forced)
    assert loose >= 1

    want = [_whole_graph_outcome(net, terminals) for net, terminals in instances]
    assert any(isinstance(result[0], type) for result in want)
    assert got == want


def _leaf_pruned(edges, terminals):
    """Nodes that iterated pruning of non-terminal leaves removes."""
    gone: set[int] = set()
    while True:
        degree = Counter(v for key in edges for v in key)
        drop = {v for v, d in degree.items() if v not in terminals and d <= 1}
        if not drop:
            return gone
        gone |= drop
        edges = [key for key in edges if not drop & set(key)]


def test_pendant_subtrees_score_above_the_bound():
    # the first DP run keeps only nodes scoring at most lb, so it drops
    # every terminal-free pendant subtree without a leaf pruning pass
    rng = np.random.default_rng(131)
    pendant = 0
    for _ in range(300):
        n = int(rng.integers(3, 41))
        net = random_connected_net(rng, n, int(rng.integers(0, 3)))
        t = int(rng.integers(2, min(8, n) + 1))
        terminals = set(rng.choice(n, size=t, replace=False).tolist())
        edges, reduced, _forced = steiner._reduce(net, terminals)
        if len(reduced) < 2:
            continue
        nodes = sorted({v for key in edges for v in key} | reduced)
        lb, score = steiner._ascent_scores(nodes, edges, sorted(reduced))
        gone = _leaf_pruned(list(edges), reduced)
        assert all(s > lb for v, s in zip(nodes, score) if v in gone)
        pendant += len(gone)
    assert pendant >= 1000


def test_elimination_shrinks_net300_largest_group():
    net = parse_case((CASES_DIR / "net300.m").read_text())
    group = max(coherency.slow_coherency(net, 4).groups, key=len)
    edges, reduced, _forced = steiner._reduce(net, set(group))
    assert len(reduced) == 14
    nodes = sorted({v for key in edges for v in key} | reduced)
    assert len(nodes) == 294
    lb, score = steiner._ascent_scores(nodes, edges, sorted(reduced))
    assert sum(s <= lb for s in score) <= 70


def test_fixings_disjoint_trees_unchanged():
    net = build_net(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)])
    t1 = steiner_tree(net, [0, 2])
    t2 = steiner_tree(net, [4, 6])
    fx = build_fixings(net, [t1, t2])
    assert set(fx.bus_fix) == t1.nodes | t2.nodes
    assert {b: r for b, r in fx.bus_fix.items() if r == 1} == {b: 1 for b in t1.nodes}
    assert set(fx.edge_fix) == t1.edges | t2.edges


def test_fixings_shared_bus_removed_with_incident_edges():
    # path 0-1-2-3-4; trees [0..2] and [2..4] share bus 2
    net = build_net(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    t1 = steiner_tree(net, [0, 2])
    t2 = steiner_tree(net, [2, 4])
    fx = build_fixings(net, [t1, t2])
    assert 2 not in fx.bus_fix
    assert fx.bus_fix[0] == 1 and fx.bus_fix[1] == 1
    assert fx.bus_fix[3] == 2 and fx.bus_fix[4] == 2
    # edges (1,2) and (2,3) touch the overlap bus: dropped everywhere
    assert set(fx.edge_fix) == {0, 3}


def test_fixings_never_conflict_randomized():
    rng = np.random.default_rng(83)
    for _ in range(60):
        n = int(rng.integers(8, 16))
        net = random_connected_net(rng, n, int(rng.integers(2, n)))
        k = int(rng.integers(2, 4))
        picks = rng.permutation(n)[: 2 * k].tolist()
        trees = []
        for r in range(k):
            terms = picks[2 * r: 2 * r + 2]
            trees.append(steiner_tree(net, terms))
        fx = build_fixings(net, trees)
        for lid, r in fx.edge_fix.items():
            ln = net.line_by_id[lid]
            assert fx.bus_fix.get(ln.from_bus) == r
            assert fx.bus_fix.get(ln.to_bus) == r
        # no bus fixed twice is structural (dict), check cluster range instead
        assert all(1 <= r <= k for r in fx.bus_fix.values())


def test_tree_type_invariants():
    with pytest.raises(NetworkValidationError):
        SteinerTree(nodes=frozenset({1}), edges=frozenset({5}), terminals=frozenset({1}))
    with pytest.raises(NetworkValidationError):
        SteinerTree(nodes=frozenset({1}), edges=frozenset(), terminals=frozenset({2}))


def _reference_dreyfus_wagner(dist, terminals):
    """The scalar subset DP the vectorised one must reproduce exactly."""
    t = len(terminals)
    n = dist.shape[0]
    size = 1 << t
    dp = np.full((size, n), steiner._INF, dtype=np.int32)
    choice = np.full((size, n), -1, dtype=np.int64)
    for i, term in enumerate(terminals):
        dp[1 << i] = dist[term]
        choice[1 << i] = -2 - term
        choice[1 << i, term] = -1

    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        best = dp[mask].copy()
        pick = choice[mask].copy()
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:
                merged = dp[sub].astype(np.int64) + dp[other]
                better = merged < best
                best = np.where(better, merged, best).astype(np.int32)
                pick = np.where(better, sub, pick)
            sub = (sub - 1) & mask
        through = best.astype(np.int64)[:, None] + dist
        walk_src = np.argmin(through, axis=0)
        walk_val = through[walk_src, np.arange(n)].astype(np.int32)
        better = walk_val < best
        dp[mask] = np.where(better, walk_val, best)
        choice[mask] = np.where(better, -2 - walk_src, pick)

    return dp, choice


def _hop_distances(net):
    """All-pairs hop counts, unreachable pairs at the DP's infinity."""
    dist = np.full((net.n, net.n), int(steiner._INF), dtype=np.int64)
    for src in range(net.n):
        dist[src, src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for _lid, v in net.incident[u]:
                    if dist[src, v] > dist[src, u] + 1:
                        dist[src, v] = dist[src, u] + 1
                        nxt.append(v)
            frontier = nxt
    return dist


@pytest.mark.parametrize("seed", [3, 512])
def test_dp_identical_to_reference_loop(seed):
    # unit weights tie often, so equal dp alone would not pin the tie-break
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(60):
        n = int(rng.integers(8, 24))
        net = random_connected_net(rng, n, int(rng.integers(0, n)))
        t = int(rng.integers(2, 9))
        instances.append((net, rng.choice(n, size=t, replace=False).tolist()))
    # two components: some terminals stay unreachable from others
    split = build_net(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    instances.append((split, [0, 2, 4, 6]))
    for net, terminals in instances:
        dist = _hop_distances(net)
        dp, choice = steiner._dreyfus_wagner(dist, terminals)
        ref_dp, ref_choice = _reference_dreyfus_wagner(dist, terminals)
        assert np.array_equal(dp, ref_dp)
        assert np.array_equal(choice, ref_choice)


def test_hop_distances_match_reference_bfs():
    rng = np.random.default_rng(59)
    nets = [random_connected_net(rng, int(rng.integers(2, 30)), int(rng.integers(0, 20)))
            for _ in range(40)]
    nets.append(build_net(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]))
    for net in nets:
        edges = [(ln.from_bus, ln.to_bus) for ln in net.lines]
        identity = {i: i for i in range(net.n)}
        got = steiner._hop_distances(edges, identity)
        assert got.dtype == np.int64
        assert np.array_equal(got, _hop_distances(net))


# line ids of each group's tree on bundled cases, as the scalar DP built them
PINNED_TREE_EDGES = {
    ("net118", 2): [
        [0, 5, 6, 7, 22, 25, 27, 29, 31, 32, 33, 41, 45, 56, 59, 60, 87, 118,
         122, 123, 128, 130, 158, 174, 175, 197, 199, 202],
        [48, 91, 92, 100, 101, 103, 133, 134, 135, 136, 137, 153, 155, 181, 200, 204],
    ],
    ("net118", 3): [
        [0, 22, 25, 56, 118, 122, 123, 174, 175],
        [5, 6, 7, 29, 30, 31, 32, 33, 41, 45, 59, 60, 87, 100, 101, 102, 128,
         130, 158, 197, 199, 200, 202],
        [48, 91, 92, 133, 134, 135, 137, 153, 155, 181],
    ],
    ("net118", 5): [
        [0, 22, 25, 56, 118, 122, 123, 174, 175],
        [29, 30, 88, 100, 101, 102, 128, 130, 198, 200],
        [5, 6, 41, 45],
        [48, 91, 92, 133, 134, 135, 137, 153, 155, 181],
        [59, 60, 158, 197, 202],
    ],
    ("net240", 3): [
        [5, 9, 27, 77, 79, 116, 136, 137, 162, 165, 169, 170, 172, 175, 176,
         198, 251, 252, 348, 349, 350, 351, 353, 381, 392, 403, 440, 448, 450, 468],
        [32, 41, 44, 59, 62, 76, 104, 120, 121, 122, 183, 217, 235, 236, 239,
         282, 283, 291, 316, 317, 326, 328, 355, 357, 358, 361, 424, 464],
        [205, 206, 208, 210, 311, 313, 387, 466],
    ],
    ("net240", 4): [
        [27, 169, 170, 172, 175, 176, 351, 353, 381, 403],
        [32, 41, 44, 76, 104, 113, 114, 115, 116, 120, 121, 122, 214, 215, 217,
         235, 236, 239, 291, 316, 317, 326, 328, 355, 357, 358, 361, 404, 424,
         434, 439, 464],
        [77, 79, 162, 165, 251, 348, 349, 350, 392, 450, 468],
        [205, 206, 208, 210, 311, 313, 387, 466],
    ],
    ("net240", 5): [
        [27, 169, 170, 172, 175, 176, 351, 353, 381, 403],
        [5, 9, 32, 41, 44, 76, 104, 113, 114, 116, 214, 215, 249, 343, 357,
         358, 404, 424, 434, 440],
        [165, 202, 204, 349, 350, 450, 468],
        [205, 206, 208, 210, 311, 313, 387, 466],
        [21, 22, 46, 47, 217, 218, 239, 326, 328, 355, 361, 464],
    ],
    ("net300", 3): [
        [22, 45, 48, 75, 76, 94, 116, 120, 145, 205, 206, 208, 230, 244, 245,
         250, 251, 319, 322, 327, 329, 332, 334, 346, 359, 370, 382, 383, 411,
         412, 418, 422, 432, 437, 447, 467, 468, 472, 479, 484, 507, 508, 537,
         547, 556, 583, 597],
        [36, 37, 55, 57, 109, 111, 185, 232, 233, 234, 280, 351, 494, 590],
        [70, 71, 173, 174, 286, 287, 288, 324, 326, 357, 365, 377, 378, 379,
         453, 454, 492, 510, 511, 523, 530, 540, 577, 581, 585],
    ],
    ("net300", 4): [
        [22, 45, 48, 75, 76, 94, 116, 120, 145, 205, 206, 208, 230, 244, 245,
         250, 251, 319, 322, 327, 329, 332, 334, 346, 359, 370, 382, 383, 411,
         412, 418, 422, 432, 437, 447, 467, 468, 472, 479, 484, 507, 508, 537,
         547, 556, 583, 597],
        [36, 37, 55, 57, 109, 111, 185, 232, 233, 234, 280, 351, 494, 590],
        [70, 71, 173, 174, 357, 376, 378, 379, 387, 530, 540, 577, 581, 585],
        [286, 287, 288, 324, 326, 365, 510, 511],
    ],
}


@pytest.mark.parametrize("case,k", sorted(PINNED_TREE_EDGES))
def test_bundled_trees_pinned(case, k):
    net = parse_case((CASES_DIR / f"{case}.m").read_text())
    groups = coherency.slow_coherency(net, k)
    edges = [sorted(steiner_tree(net, sorted(g)).edges) for g in groups.groups]
    assert edges == PINNED_TREE_EDGES[(case, k)]
