"""Cross-module structural invariants spot-checked on small instances."""

import itertools

import numpy as np
import pytest

from gridtree import bnb, oracle, steiner
from gridtree.steiner import collect_bus_fixings
from gridtree.errors import InfeasibleError, NetworkValidationError
from gridtree.network import (
    Partition,
    apply_switching,
    is_connected,
    max_weight_spanning_tree,
    reduced_graph,
)

from conftest import build_net, random_connected_net, random_groups, uncontracted_search


def test_connected_with_k_minus_1_cross_edges_implies_connected_clusters():
    # over all 2-partitions of small random graphs: whenever the graph is
    # connected and has exactly one cross edge, both sides must be connected
    rng = np.random.default_rng(271)
    confirmed = 0
    for _ in range(20):
        n = int(rng.integers(5, 8))
        net = random_connected_net(rng, n, int(rng.integers(1, 4)))
        for bits in range(1, 2 ** n - 1):
            assignment = tuple(1 if bits & (1 << i) else 2 for i in range(n))
            p = Partition(assignment, 2)
            if len(reduced_graph(net, p).edges) != 1:
                continue
            for members in p.clusters():
                seen = {members[0]}
                stack = [members[0]]
                mset = set(members)
                while stack:
                    b = stack.pop()
                    for _lid, o in net.incident[b]:
                        if o in mset and o not in seen:
                            seen.add(o)
                            stack.append(o)
                assert seen == mset
            confirmed += 1
    assert confirmed > 20


def _best_completion(net, groups, partial):
    """Exhaustive best objective over completions of a partial assignment."""
    free = [i for i, r in enumerate(partial) if r == 0]
    k = groups.k
    best = None
    nbr = net.incident
    for combo in itertools.product(range(1, k + 1), repeat=len(free)):
        assignment = list(partial)
        for b, r in zip(free, combo):
            assignment[b] = r
        if len(set(assignment)) != k:
            continue
        ok = True
        for r in range(1, k + 1):
            members = [i for i in range(net.n) if assignment[i] == r]
            seen = {members[0]}
            stack = [members[0]]
            mset = set(members)
            while stack:
                b = stack.pop()
                for _lid, o in nbr[b]:
                    if o in mset and o not in seen:
                        seen.add(o)
                        stack.append(o)
            if seen != mset:
                ok = False
                break
        if not ok:
            continue
        p = Partition(tuple(assignment), k)
        rg = reduced_graph(net, p)
        try:
            retained, switched = max_weight_spanning_tree(rg)
        except NetworkValidationError:
            continue
        by_id = {e.line_id: e.weight for e in rg.edges}
        value = sum(by_id[lid] for lid in sorted(switched))
        if best is None or value < best:
            best = value
    return best


def test_bnb_bound_is_admissible_on_partial_assignments():
    rng = np.random.default_rng(283)
    checked = 0
    for _ in range(15):
        net = random_connected_net(rng, 6, int(rng.integers(1, 4)))
        groups = random_groups(rng, net, 2, max_size=1)
        fixed = collect_bus_fixings(net, groups)
        search = uncontracted_search(net, 2)
        for b, r in fixed.items():
            search.place(b, r)
        partial = list(search.assign)
        # also try one deeper random placement
        states = [list(partial)]
        free = [i for i, r in enumerate(partial) if r == 0]
        if free:
            deeper = list(partial)
            deeper[free[0]] = int(rng.integers(1, 3))
            states.append(deeper)
        for state in states:
            fresh = uncontracted_search(net, 2)
            for i, r in enumerate(state):
                if r:
                    fresh.place(i, r)
            bound = fresh.bound()
            best = _best_completion(net, groups, state)
            if best is not None:
                assert bound <= best + 1e-9, f"inadmissible bound {bound} > {best}"
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("k", [4, 5])
def test_bnb_forest_bound_is_admissible_with_many_clusters(k):
    # partial assignments several buses deep, where the forced cross lines
    # reach more than one pair of clusters and the forest credit is nontrivial
    rng = np.random.default_rng(300 + k)
    checked = positive = 0
    for _ in range(40):
        net = random_connected_net(rng, k + 4, int(rng.integers(3, 8)))
        groups = random_groups(rng, net, k, max_size=1)
        state = [0] * net.n
        for b, r in collect_bus_fixings(net, groups).items():
            state[b] = r
        free = [i for i, r in enumerate(state) if r == 0]
        for b in rng.permutation(free)[: int(rng.integers(1, len(free)))]:
            state[b] = int(rng.integers(1, k + 1))
        search = uncontracted_search(net, k)
        for i, r in enumerate(state):
            if r:
                search.place(i, r)
        bound = search.bound()
        best = _best_completion(net, groups, state)
        if best is not None:
            assert bound <= best + 1e-9, f"inadmissible bound {bound} > {best}"
            checked += 1
            positive += bound > 0.0
    assert checked >= 10 and positive >= 5


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bnb_regions_never_cut_a_feasible_completion(k):
    # a node that regions() prunes has no feasible completion, and neither
    # has a child that puts a free bus in a cluster outside its domain
    rng = np.random.default_rng(310 + k)
    prunes = skipped = 0
    for _ in range(60):
        net = random_connected_net(rng, k + 4, int(rng.integers(0, 4)))
        groups = random_groups(rng, net, k, max_size=1)
        state = [0] * net.n
        for b in rng.permutation(net.n)[: int(rng.integers(k - 1, net.n))]:
            state[b] = int(rng.integers(1, k + 1))
        search = uncontracted_search(net, k)
        for i, r in enumerate(state):
            if r:
                search.place(i, r)
        regions = search.regions()
        if regions is None:
            assert _best_completion(net, groups, state) is None
            prunes += 1
            continue
        for b in (i for i, r in enumerate(state) if r == 0):
            for r in range(1, k + 1):
                if regions[r - 1] >> b & 1:
                    continue
                child = list(state)
                child[b] = r
                assert _best_completion(net, groups, child) is None
                skipped += 1
    assert prunes >= 10 and skipped >= 10, (prunes, skipped)


def test_ssr_fixings_preserve_feasibility():
    # whenever the unrestricted problem is feasible, the overlap-corrected
    # fixings must leave at least one solution
    rng = np.random.default_rng(293)
    preserved = 0
    for _ in range(40):
        n = int(rng.integers(6, 12))
        net = random_connected_net(rng, n, int(rng.integers(1, 6)))
        k = int(rng.integers(2, 4))
        groups = random_groups(rng, net, k, max_size=2)
        try:
            bnb.solve_builtin(net, groups)
        except InfeasibleError:
            continue
        trees = [steiner.steiner_tree(net, sorted(g)) for g in groups.groups]
        fixings = steiner.build_fixings(net, trees)
        sol, _ = bnb.solve_builtin(net, groups, ssr=fixings)  # must not raise
        preserved += 1
    assert preserved >= 25
