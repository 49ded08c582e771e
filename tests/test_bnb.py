"""Built-in exact solver against the enumeration oracle and the bridge."""

from dataclasses import replace

import numpy as np
import pytest

from gridtree import coherency, oracle, steiner
from gridtree.bnb import _Contracted, _Search, _Stop, solve_builtin
from gridtree.coherency import CoherencyGroups
from gridtree.errors import BudgetError, InfeasibleError
from gridtree.milp import SolverBridge, solve_via_bridge
from gridtree.network import degree2_chains
from gridtree.solution import validate_solution
from gridtree.steiner import collect_bus_fixings

from conftest import (
    BRIDGE_CMD,
    build_net,
    case_net,
    random_connected_net,
    random_groups,
    uncontracted_search,
)


def test_four_cycle_optimum(four_cycle):
    net, groups = four_cycle
    sol, stats = solve_builtin(net, groups)
    assert sol.disruption_mw == pytest.approx(1.0)
    assert stats.proved_optimal
    assert stats.incumbent_mw == sol.disruption_mw
    assert stats.best_bound <= stats.incumbent_mw
    want = oracle.enumerate_optimal(net, groups)
    assert sol.partition.assignment == want.partition.assignment


def test_path_graph_any_split_is_free():
    net = build_net(6, [(i, i + 1) for i in range(5)], flows=[3, 1, 4, 1, 5],
                    gen_buses=(0, 5))
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([5])), k=2)
    sol, stats = solve_builtin(net, groups)
    assert sol.disruption_mw == 0.0
    assert sol.switched == frozenset()


def _check_against_oracle(net, groups):
    try:
        want = oracle.enumerate_optimal(net, groups)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_builtin(net, groups)
        return
    got, stats = solve_builtin(net, groups)
    assert stats.proved_optimal
    assert got.disruption_mw == want.disruption_mw  # exact float equality
    assert got.partition.assignment == want.partition.assignment
    assert got.switched == want.switched


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(113)
    for _ in range(30):
        n = int(rng.integers(5, 10))
        net = random_connected_net(rng, n, int(rng.integers(1, 6)))
        k = int(rng.integers(2, 4))
        _check_against_oracle(net, random_groups(rng, net, k))


@pytest.mark.parametrize("unit_mw", [False, True], ids=["real", "unit-mw-ties"])
@pytest.mark.parametrize("k", [4, 5])
def test_matches_oracle_with_many_clusters(k, unit_mw):
    # With k-1 >= 3 bridges the spanning-forest credit of the bound differs
    # from the k-1 heaviest lines on most of these instances.  Singleton groups
    # keep every instance feasible; flows of -1, 0 or 1 MW make many leaves tie
    # the optimum, and pruning must keep them for the tie-break (the k=5 set
    # holds one whose smallest optimal assignment is found after another).
    rng = np.random.default_rng(400 + k)
    for _ in range(20):
        n = int(rng.integers(k + 3, k + 7))
        net = random_connected_net(rng, n, int(rng.integers(3, 10)))
        if unit_mw:
            lines = tuple(replace(ln, flow_mw=float(round(ln.flow_mw / 7))) for ln in net.lines)
            net = replace(net, lines=lines)
        _check_against_oracle(net, random_groups(rng, net, k, max_size=1))


# (case, k) -> (disruption MW, assignment as one cluster digit per bus),
# identical for plain and SSR-reduced search
DESK_OPTIMA = {
    ("net030", 2): (181.55633023677547, "221112211112112222112212222112"),
    ("net030", 3): (139.47273817876504, "333112213112313333332313223113"),
    ("net030", 4): (128.42657789001373, "333142233112343333332333223343"),
    ("net030", 5): (188.80383736905452, "551142213112343553132515223145"),
    ("net057", 2): (38.457274851438854,
                    "222112211122111211111121211111111221111121212112122211212"),
    ("net057", 3): (68.41317617171914,
                    "222112231322131211313323233133313223111121232332122213232"),
    ("net057", 4): (89.54271071706668,
                    "222112241432141211414434244144414334111121243443123214342"),
    ("net057", 5): (95.17058177680241,
                    "255112241432141511414434544144414334111121543443153314345"),
}


def _solve_case(case, k, ssr):
    """solve_builtin on a bundled case, plain or with its SSR fixings."""
    net = case_net(case)
    groups = coherency.slow_coherency(net, k)
    fixings = None
    if ssr:
        fixings = steiner.build_fixings(
            net, [steiner.steiner_tree(net, g) for g in groups.groups]
        )
    return solve_builtin(net, groups, ssr=fixings)


@pytest.mark.parametrize("ssr", [False, True], ids=["milp", "ssr"])
@pytest.mark.parametrize("case, k", sorted(DESK_OPTIMA))
def test_desk_optima_are_pinned(case, k, ssr):
    sol, stats = _solve_case(case, k, ssr)
    assert stats.proved_optimal
    mw, assignment = DESK_OPTIMA[(case, k)]
    assert sol.disruption_mw == mw
    assert "".join(map(str, sol.partition.assignment)) == assignment


def test_net030_k5_is_proved_within_node_budget():
    # the top-(k-1) line credit needed 826,601 nodes here; the forest bound 15,911
    net = case_net("net030")
    groups = coherency.slow_coherency(net, 5)
    _sol, stats = solve_builtin(net, groups, node_limit=100_000)
    assert stats.proved_optimal
    assert stats.nodes < 100_000


def test_net118_k3_is_proved_within_node_budget():
    # branching over all k clusters of the most-connected bus needed 151,594
    # nodes here; branching fail-first over cluster domains 19,242
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 3)
    _sol, stats = solve_builtin(net, groups, node_limit=40_000)
    assert stats.proved_optimal
    assert stats.nodes < 40_000


def test_net118_k5_ssr_is_proved_within_node_budget():
    # children in label order left this cell unproved after 150,000 nodes
    # (incumbent 756.43 MW); the most-kept-flow child first proves it in 80,702
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 5)
    fixings = steiner.build_fixings(
        net, [steiner.steiner_tree(net, g) for g in groups.groups]
    )
    sol, stats = solve_builtin(net, groups, ssr=fixings, node_limit=150_000)
    assert stats.proved_optimal
    assert sol.disruption_mw == pytest.approx(380.90312, abs=1e-5)


@pytest.mark.slow
def test_net118_k5_milp_is_proved_within_node_budget():
    # 124,366 nodes (362,616 on the uncontracted network), about 3 s
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 5)
    sol, stats = solve_builtin(net, groups, node_limit=500_000)
    assert stats.proved_optimal
    assert sol.disruption_mw == pytest.approx(380.90312, abs=1e-5)


def test_interrupted_search_unwinds_to_the_exact_root_state():
    # adding and then subtracting line weights drifted forced_cross off its
    # root value (1.47e-09 MW after 200,000 nodes here), and the reported
    # bound with it
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 5)
    fixed = collect_bus_fixings(net, groups)
    search = uncontracted_search(net, groups.k, 20_000)
    for b, r in sorted(fixed.items()):
        search.place(b, r)
    at_root, root_bound = search.forced_cross, search.bound()
    with pytest.raises(_Stop):
        search.dfs()
    assert search.forced_cross == at_root
    assert search.bound() == root_bound
    _sol, stats = solve_builtin(net, groups, node_limit=20_000)
    assert not stats.proved_optimal
    assert stats.best_bound == root_bound < stats.incumbent_mw


def _reference_regions(search):
    """Each cluster's region flooded from scratch, as regions() once did."""
    free = search.all_buses & ~search.assigned_mask
    covered = 0
    regions = []
    for r in range(1, search.k + 1):
        members = search.cluster_mask[r]
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
                reach |= search.nbr_mask[low.bit_length() - 1]
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


def _random_walks(k):
    """Random DFS walks: place a free bus (mostly inside its domain), or undo
    the last placement; half the walks start with no cluster members at all.
    Yields (search, its regions(), whether a step was just taken) at each
    walk's start and after every step."""
    rng = np.random.default_rng(620 + k)
    for trial in range(40):
        net = random_connected_net(rng, int(rng.integers(2 * k, 2 * k + 8)),
                                   int(rng.integers(0, 6)))
        search = uncontracted_search(net, k)
        if trial % 2:
            groups = random_groups(rng, net, k, max_size=2)
            for b, r in sorted(collect_bus_fixings(net, groups).items()):
                search.place(b, r)
        placed = []
        regions = search.regions()
        yield search, regions, False
        for _ in range(60):
            free = [b for b in range(net.n) if not search.assign[b]]
            if placed and (regions is None or not free or rng.random() < 0.35):
                search.unplace(*placed.pop())
            elif free and regions is not None:
                b = int(rng.choice(free))
                domain = [r for r in range(1, k + 1) if regions[r - 1] >> b & 1]
                if domain and rng.random() < 0.8:
                    r = int(rng.choice(domain))
                else:
                    r = int(rng.integers(1, k + 1))
                search.place(b, r)
                placed.append((b, r))
            else:
                break
            regions = search.regions()
            yield search, regions, True


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_incremental_regions_match_a_fresh_flood(k):
    # compare regions() with a from-scratch flood after every step
    pruned = steps = 0
    for search, regions, stepped in _random_walks(k):
        assert regions == _reference_regions(search)
        pruned += stepped and regions is None
        steps += stepped
    assert steps >= 1000 and pruned >= 50, (steps, pruned)


def _reference_forest(search):
    """Kruskal over every forced cross line, found from scratch: both ends
    assigned, to different clusters; heaviest first, ties to the lower id."""
    ranks = sorted(
        search.rank[pos] for pos, (a, b) in enumerate(search.ends)
        if search.assign[a] and search.assign[b] and search.assign[a] != search.assign[b]
    )
    assert sum(1 << r for r in ranks) == search.cross_ranks
    comp = list(range(search.k + 1))
    credit, credited, merges = 0.0, 0, search.k - 1
    for r in ranks:
        if not merges:
            break
        w, a, b = search.by_rank[r]
        ca, cb = comp[search.assign[a]], comp[search.assign[b]]
        if ca != cb:
            credit += w
            credited |= 1 << r
            merges -= 1
            comp = [cb if c == ca else c for c in comp]
    return credit, credited, merges


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_incremental_forest_matches_a_fresh_kruskal(k):
    # the forest place() carries and unplace() restores equals Kruskal over
    # all forced cross lines after every step, pruned nodes included; the
    # credit with == (the same floats summed in the same order)
    steps = uncredited = 0
    for search, _regions, stepped in _random_walks(k):
        credit, credited, merges = search.forest
        want_credit, want_credited, want_merges = _reference_forest(search)
        assert credit == want_credit
        assert (credited, merges) == (want_credited, want_merges)
        steps += stepped
        # states where the forest left a forced line out
        uncredited += credited != search.cross_ranks
    assert steps >= 1000 and uncredited >= 400, (steps, uncredited)


# free buses the oracle may enumerate, per k: at most about 20,000 assignments
_FREE_BUSES = {2: 14, 3: 9, 4: 7, 5: 6}


def _chained_instance(rng, k, unit_mw):
    """A random core whose lines mostly become chains of 1-3 new buses:
    alone, beside the direct line, or two between the same ends; some
    instances also get a loop out of a core bus and back, and some a
    chain out of a core bus to a new leaf bus, which is left to
    ``random_groups`` (mostly free) in half of them and put in a group in
    the rest.  Resampled until the oracle can enumerate it."""
    while True:
        core = random_connected_net(rng, int(rng.integers(max(3, k), k + 3)),
                                    int(rng.integers(1, 4)))
        n = core.n
        edges = []

        def chain(a, b, size):
            nonlocal n
            path = [a, *range(n, n + size), b]
            n += size
            edges.extend(zip(path, path[1:]))

        def hang():
            nonlocal n
            leaf = n
            n += 1
            chain(int(rng.integers(0, core.n)), leaf, int(rng.integers(1, 3)))
            return leaf

        for ln in core.lines:
            a, b = ln.from_bus, ln.to_bus
            roll = rng.random()
            if roll < 0.15 or roll >= 0.75:
                edges.append((a, b))
            if roll < 0.75:
                chain(a, b, int(rng.integers(1, 4)))
            if 0.65 <= roll < 0.75:
                chain(a, b, int(rng.integers(1, 3)))
        if rng.random() < 0.4:
            bus = int(rng.integers(0, core.n))
            chain(bus, bus, int(rng.integers(2, 4)))
        roll = rng.random()
        leaf = hang() if roll < 0.5 else None
        group_leaf = leaf if roll < 0.25 else None
        flows = rng.uniform(-10.0, 10.0, size=len(edges))
        if unit_mw:
            flows = np.round(flows / 7.0)  # -1, 0 or 1 MW: many leaves tie
        net = build_net(n, edges, flows=flows)
        pairs = net.n >= 2 * k and rng.random() < 0.5
        groups = random_groups(rng, net, k, max_size=2 if pairs else 1)
        if group_leaf is not None and group_leaf not in groups.all_members():
            s = int(rng.integers(0, k))
            groups = CoherencyGroups(
                groups=tuple(g | {group_leaf} if r == s else g
                             for r, g in enumerate(groups.groups)),
                k=k,
            )
        if net.n - len(groups.all_members()) <= _FREE_BUSES[k]:
            return net, groups


@pytest.mark.parametrize("ssr", [False, True], ids=["milp", "ssr"])
@pytest.mark.parametrize("unit_mw", [False, True], ids=["real", "unit-mw-ties"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_contracted_chains_match_the_oracle(k, unit_mw, ssr):
    # the search runs on the network with its degree-2 chains contracted and
    # expands its tied leaves at every cut position; the oracle enumerates
    # the original buses, with the SSR-fixed buses added to their groups
    rng = np.random.default_rng(700 + 10 * k + 2 * unit_mw + ssr)
    contracted = cut = 0
    for _ in range(20):
        net, groups = _chained_instance(rng, k, unit_mw)
        fixings = None
        if ssr:
            fixings = steiner.build_fixings(
                net, [steiner.steiner_tree(net, g) for g in groups.groups]
            )
        fixed = collect_bus_fixings(net, groups, fixings)
        restricted = CoherencyGroups(
            groups=tuple(frozenset(b for b, r in fixed.items() if r == s)
                         for s in range(1, k + 1)),
            k=k,
        )
        chains = _Contracted(net, fixed).chains
        assert chains == degree2_chains(net, fixed)
        contracted += bool(chains)
        try:
            want = oracle.enumerate_optimal(net, restricted)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_builtin(net, groups, ssr=fixings)
            continue
        got, stats = solve_builtin(net, groups, ssr=fixings)
        assert stats.proved_optimal
        assert got.disruption_mw.hex() == want.disruption_mw.hex()
        assert got.partition.assignment == want.partition.assignment
        assert got.switched == want.switched
        a = want.partition.assignment
        cut += sum(a[c.ends[0]] != a[c.ends[1]] for c in chains)
    assert contracted >= 12 and cut >= 5, (contracted, cut)


def test_interrupted_contracted_search_returns_a_validated_incumbent():
    # net057 k=5 contracts ten chains; 100 nodes do not prove it
    net = case_net("net057")
    groups = coherency.slow_coherency(net, 5)
    work = _Contracted(net, collect_bus_fixings(net, groups))
    assert len(work.chains) == 10 and len(work.buses) == net.n - 10
    search = _Search(net, len(work.buses), work.lines, groups.k, None, None)
    for b, r in sorted(work.fixed.items()):
        search.place(b, r)
    sol, stats = solve_builtin(net, groups, node_limit=100)
    assert not stats.proved_optimal and stats.nodes == 101
    assert stats.incumbent_mw == sol.disruption_mw >= DESK_OPTIMA[("net057", 5)][0]
    assert stats.best_bound == search.bound() < stats.incumbent_mw
    assert len(sol.partition.assignment) == net.n
    validate_solution(net, sol, groups)


def test_desk_cells_take_fewer_nodes_with_chains_contracted():
    # the 16 desk cells took 11,950 nodes on the uncontracted network, and
    # 8,275 when chains beside a line or chain, loops and chains to a leaf
    # bus were left uncontracted
    nodes = 0
    for case, k in DESK_OPTIMA:
        net = case_net(case)
        groups = coherency.slow_coherency(net, k)
        fixings = steiner.build_fixings(net, [steiner.steiner_tree(net, g) for g in groups.groups])
        for ssr in (None, fixings):
            nodes += solve_builtin(net, groups, ssr=ssr)[1].nodes
    assert nodes < 8_000


# (case, k, ssr) -> BnBStats.nodes: the search's path, node for node.  A
# per-node saving must leave these exact; the same counts hold under
# OpenBLAS's default threads, one thread, and the Haswell and Prescott kernels
NODE_COUNTS = {
    ("net030", 2, False): 42, ("net030", 2, True): 39,
    ("net030", 3, False): 150, ("net030", 3, True): 61,
    ("net030", 4, False): 295, ("net030", 4, True): 131,
    ("net030", 5, False): 2447, ("net030", 5, True): 2447,
    ("net057", 2, False): 40, ("net057", 2, True): 48,
    ("net057", 3, False): 142, ("net057", 3, True): 96,
    ("net057", 4, False): 361, ("net057", 4, True): 281,
    ("net057", 5, False): 511, ("net057", 5, True): 396,
    ("net118", 5, True): 14_540,
}


@pytest.mark.parametrize("case, k, ssr", sorted(NODE_COUNTS))
def test_node_counts_are_pinned(case, k, ssr):
    _sol, stats = _solve_case(case, k, ssr)
    assert stats.proved_optimal
    assert stats.nodes == NODE_COUNTS[(case, k, ssr)]


def test_infeasible_instance_raises():
    net = build_net(3, [(0, 1), (1, 2)], gen_buses=(0, 1, 2))
    groups = CoherencyGroups(groups=(frozenset({0, 2}), frozenset({1})), k=2)
    with pytest.raises(InfeasibleError):
        solve_builtin(net, groups)


def test_disconnected_network_has_no_tree_partition():
    # every leaf has connected clusters, but no line joins them: the leaf's
    # spanning forest misses the merge, so no leaf may be scored
    net = build_net(4, [(0, 1), (2, 3)], flows=[1.0, 2.0], gen_buses=(0, 2))
    groups = CoherencyGroups(groups=(frozenset({0}), frozenset({2})), k=2)
    with pytest.raises(InfeasibleError):
        oracle.enumerate_optimal(net, groups)
    with pytest.raises(InfeasibleError):
        solve_builtin(net, groups)


def test_component_without_a_cluster_member_is_infeasible():
    # no cluster can reach buses 2-4, so the root's regions leave them uncovered
    net = build_net(5, [(0, 1), (2, 3), (3, 4)], flows=[1.0, 2.0, 3.0], gen_buses=(0, 1))
    groups = CoherencyGroups(groups=(frozenset({0}), frozenset({1})), k=2)
    with pytest.raises(InfeasibleError):
        oracle.enumerate_optimal(net, groups)
    with pytest.raises(InfeasibleError):
        solve_builtin(net, groups)


def test_budget_exhaustion_without_incumbent():
    rng = np.random.default_rng(7)
    net = random_connected_net(rng, 8, 4)
    groups = random_groups(rng, net, 2)
    with pytest.raises(BudgetError):
        solve_builtin(net, groups, node_limit=1)


def test_budget_returns_unproved_incumbent():
    # a 2x6 ladder whose four corners are group buses has no free degree-2
    # bus, so contraction cannot shrink it (a 12-bus path is proved at the
    # root in 1 node); the first DFS descent reaches a feasible leaf early
    rails = [(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 11)]
    net = build_net(12, rails + [(i, i + 6) for i in range(6)], flows=list(range(1, 17)),
                    gen_buses=(0, 5, 6, 11))
    groups = CoherencyGroups(groups=(frozenset([0, 6]), frozenset([5, 11])), k=2)
    assert _Contracted(net, collect_bus_fixings(net, groups)).chains == []
    sol, stats = solve_builtin(net, groups, node_limit=40)
    assert not stats.proved_optimal
    assert stats.incumbent_mw is not None
    assert stats.best_bound <= stats.incumbent_mw
    validate_solution(net, sol, groups)


def test_equivalence_with_bridge():
    bridge = SolverBridge(command=BRIDGE_CMD, timeout_s=120)
    rng = np.random.default_rng(131)
    for _ in range(5):
        net = random_connected_net(rng, 7, 4)
        groups = random_groups(rng, net, 2)
        try:
            ours, stats = solve_builtin(net, groups)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_via_bridge(net, groups, bridge)
            continue
        theirs = solve_via_bridge(net, groups, bridge)
        assert stats.proved_optimal
        assert ours.disruption_mw == pytest.approx(theirs.disruption_mw, abs=1e-6)


def test_k_one_trivial():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)], flows=[5, 1, 2, 4],
                    gen_buses=(0,))
    groups = CoherencyGroups(groups=(frozenset([0]),), k=1)
    sol, stats = solve_builtin(net, groups)
    assert sol.disruption_mw == 0.0
    assert sol.switched == frozenset()
    assert sol.partition.k == 1
