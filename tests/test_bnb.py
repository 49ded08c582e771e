"""Built-in exact solver against the enumeration oracle and the bridge."""

from dataclasses import replace

import numpy as np
import pytest

from gridtree import coherency, oracle, steiner
from gridtree.bnb import _Contracted, _Search, _Stop, _tie_limit, solve_builtin
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
    # 16,795 nodes, about 0.3 s; the forest bound alone needed 124,366
    # (362,616 on the uncontracted network)
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 5)
    sol, stats = solve_builtin(net, groups, node_limit=50_000)
    assert stats.proved_optimal
    assert sol.disruption_mw == pytest.approx(380.90312, abs=1e-5)


def test_interrupted_search_unwinds_to_the_exact_root_state():
    # adding and then subtracting line weights drifted forced_cross off its
    # root value (1.47e-09 MW after 200,000 nodes here), and the reported
    # bound with it; 10,000 nodes stop both searches (the contracted one
    # proves this cell in 16,795)
    net = case_net("net118")
    groups = coherency.slow_coherency(net, 5)
    search = uncontracted_search(net, groups.k, 10_000, collect_bus_fixings(net, groups))
    at_root = (search.forced_cross, search.path_state, search.charge)
    root_bound = search.bound()
    with pytest.raises(_Stop):
        search.dfs()
    assert (search.forced_cross, search.path_state, search.charge) == at_root
    assert search.bound() == root_bound > 0.0
    _sol, stats = solve_builtin(net, groups, node_limit=10_000)
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
    the last placement; half the walks start with no cluster members at all,
    the rest at the root solve_builtin builds, paths packed and fixed buses
    placed.  Yields (search, its regions(), whether a step was just taken)
    at each walk's start and after every step."""
    rng = np.random.default_rng(620 + k)
    for trial in range(40):
        net = random_connected_net(rng, int(rng.integers(2 * k, 2 * k + 8)),
                                   int(rng.integers(0, 6)))
        fixed = None
        if trial % 2:
            fixed = collect_bus_fixings(net, random_groups(rng, net, k, max_size=2))
        search = uncontracted_search(net, k, fixed=fixed)
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
    assigned, to different clusters; heaviest first, ties to the lower id.
    Also the component label of each cluster, as Kruskal relabels them."""
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
    return credit, credited, merges, comp


def _union_of(search, credited):
    """The clusters each credited line joins, merged by a plain union-find,
    as a partition of the labels 1..k."""
    parent = list(range(search.k + 1))

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for r in range(credited.bit_length()):
        if credited >> r & 1:
            _w, a, b = search.by_rank[r]
            parent[root(search.assign[a])] = root(search.assign[b])
    return {frozenset(c for c in range(1, search.k + 1) if root(c) == rc)
            for rc in {root(c) for c in range(1, search.k + 1)}}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_incremental_forest_matches_a_fresh_kruskal(k):
    # the forest place() carries and unplace() restores equals Kruskal over
    # all forced cross lines after every step, pruned nodes included; the
    # credit with == (the same floats summed in the same order), and the
    # carried component labels are the ones a fresh union of the credited
    # lines gives
    steps = uncredited = resumed = grown = 0
    before = None
    for search, _regions, stepped in _random_walks(k):
        credit, credited, merges, comp = search.forest
        want_credit, want_credited, want_merges, want_comp = _reference_forest(search)
        assert credit == want_credit
        assert (credited, merges, comp) == (want_credited, want_merges, want_comp)
        labels = {frozenset(c for c in range(1, k + 1) if comp[c] == comp[d])
                  for d in range(1, k + 1)}
        assert labels == _union_of(search, credited)
        steps += stepped
        # states where the forest left a forced line out
        uncredited += credited != search.cross_ranks
        # placements that forced only lines lighter than every credited
        # one, whose forest place() grows from the carried one instead of
        # running Kruskal again
        if stepped and before is not None and search.cross_ranks & ~before[0]:
            new = search.cross_ranks & ~before[0]
            if new & ((1 << before[1].bit_length()) - 1) == 0:
                resumed += 1
                grown += credited != before[1]
        before = (search.cross_ranks, credited)
    # the resumed Kruskal both kept the forest as it was and added lines to it
    assert steps >= 1000 and uncredited >= 400, (steps, uncredited)
    assert resumed - grown >= 15 and grown >= 100, (resumed, grown)


def _rank_sum(search, ranks):
    """The weights of the lines whose ranks are set, added heaviest first."""
    total = 0.0
    for r in range(ranks.bit_length()):
        if ranks >> r & 1:
            total += search.by_rank[r][0]
    return total


def _reference_paths(search):
    """The path state recounted from the packed paths, the forced cross
    lines and the assignment: (internal path lines, each live path's
    lightest line that is not internal, their weights' sum), and the charge:
    that sum less the k-1 heaviest weights among those lines and the
    forest's credited ones, or less the forest's credit with no live path."""
    on_paths = 0
    for path in search.paths:
        on_paths |= path
    internal = 0
    for pos, (a, b) in enumerate(search.ends):
        if search.assign[a] and search.assign[a] == search.assign[b]:
            internal |= 1 << search.rank[pos]
    internal &= on_paths
    mins = 0
    for path in search.paths:
        if not path & search.cross_ranks:
            mins |= 1 << ((path & ~internal).bit_length() - 1)
    credit, credited, _merges, _comp = _reference_forest(search)
    heaviest = credited | mins
    for _ in range(search.k - 1):
        heaviest &= heaviest - 1
    relief = _rank_sum(search, (credited | mins) & ~heaviest)
    if not mins:
        assert relief == credit
        return (internal, 0, 0.0), -credit
    path_sum = _rank_sum(search, mins)
    return (internal, mins, path_sum), path_sum - relief


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_incremental_paths_match_a_recount(k):
    # the path state place() carries and unplace() restores equals a recount
    # after every step, the sums with == (the same floats added in the same
    # order), pruned nodes included
    steps = live = ended = 0
    before = None
    for search, _regions, stepped in _random_walks(k):
        assert (search.path_state, search.charge) == _reference_paths(search)
        mins = search.path_state[1]
        steps += stepped
        live += bool(mins)
        if stepped and before is not None and search.paths is before[0]:
            ended += mins.bit_count() < before[1].bit_count()
        before = (search.paths, mins)
    assert steps >= 1000 and live >= 200 and ended >= 80, (steps, live, ended)


def test_path_bound_follows_a_path_whose_lightest_line_turns_internal():
    # a 6-cycle with its two group buses opposite: the paths 0-1-2-3 and
    # 0-5-4-3, lightest lines 0-1 (1 MW) and 4-5 (2 MW); the root bound
    # 1 + 2 - 2 is the optimum.  Bus 1 in cluster 1 makes 0-1 internal, so
    # that path's lightest undecided line is 2-3 (3 MW), and the bound
    # 3 + 2 - 3 is again the best completion
    net = build_net(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
                    flows=[1.0, 6.0, 3.0, 5.0, 2.0, 4.0], gen_buses=(0, 3))
    search = uncontracted_search(net, 2, fixed={0: 1, 3: 2})
    assert sorted(_path_ends(search, path)[0] for path in search.paths) == [[0, 3], [0, 3]]
    assert (search.path_state[2], search.bound()) == (3.0, 1.0)
    assert search.bound() == oracle.enumerate_optimal(
        net, CoherencyGroups(groups=(frozenset([0]), frozenset([3])), k=2)).disruption_mw
    root = (search.path_state, search.charge)
    search.place(1, 1)
    internal, _mins, path_sum = search.path_state
    assert (internal, path_sum, search.bound()) == (1 << search.rank[0], 5.0, 2.0)
    assert (search.path_state, search.charge) == _reference_paths(search)
    search.place(2, 2)  # 1-2 forced cross: that path ends
    assert search.path_state[1].bit_count() == 1 and search.path_state[2] == 2.0
    assert search.bound() == 6.0 + 2.0 - 6.0
    search.unplace(2, 2)
    search.unplace(1, 1)
    assert (search.path_state, search.charge) == root


def _path_ends(search, path):
    """The two end buses of a packed path, after checking that its lines
    form one simple path."""
    degree = {}
    for r in range(path.bit_length()):
        if path >> r & 1:
            _w, a, b = search.by_rank[r]
            assert a != b
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
    ends = sorted(b for b, d in degree.items() if d == 1)
    assert len(ends) == 2 and all(d in (1, 2) for d in degree.values())
    assert len(degree) == path.bit_count() + 1  # acyclic and connected
    return ends, [b for b, d in degree.items() if d == 2]


def _packing_instances():
    """(network, groups, SSR fixings or None): random instances whose chains
    contract to parallel lines and self-loops, then net030 and net057."""
    for k in (2, 3, 4, 5):
        rng = np.random.default_rng(900 + k)
        for trial in range(20):
            net, groups = _chained_instance(rng, k, unit_mw=False)
            fixings = None
            if trial % 2:
                fixings = steiner.build_fixings(
                    net, [steiner.steiner_tree(net, g) for g in groups.groups]
                )
            yield net, groups, fixings
    for case, k in sorted(DESK_OPTIMA):
        net = case_net(case)
        yield net, coherency.slow_coherency(net, k), None


def test_packed_paths_join_clusters_and_share_no_line():
    # both packings on contracted multigraphs: each path joins buses fixed
    # to different clusters through free buses and no line is on two paths;
    # pack() keeps the packing with the larger root bound, breadth-first on
    # a tie, and packing again gives the same paths
    packed = 0
    kept = {"bfs": 0, "widest": 0}
    for net, groups, fixings in _packing_instances():
        k = groups.k
        work = _Contracted(net, collect_bus_fixings(net, groups, fixings))
        search = _Search(net, len(work.buses), work.lines, k, None, None)
        bfs, widest = search.bfs_paths(work.fixed), search.widest_paths(work.fixed)
        bounds = []
        for paths in (bfs, widest):
            used = 0
            for path in paths:
                assert not path & used
                used |= path
                (a, b), inner = _path_ends(search, path)
                assert work.fixed.get(a) and work.fixed.get(b)
                assert work.fixed[a] != work.fixed[b]
                assert not any(bus in work.fixed for bus in inner)
            packed += len(paths)
            at_root = _Search(net, len(work.buses), work.lines, k, None, None)
            at_root.set_paths(paths)
            for b, r in sorted(work.fixed.items()):
                at_root.place(b, r)
            bounds.append(at_root.bound())
        search.pack(work.fixed)
        assert search.paths == (widest if bounds[1] > bounds[0] else bfs)
        kept["widest" if bounds[1] > bounds[0] else "bfs"] += bfs != widest
        again = _Search(net, len(work.buses), work.lines, k, None, None)
        again.pack(work.fixed)
        assert again.paths == search.paths
    assert packed >= 800 and kept["bfs"] >= 40 and kept["widest"] >= 10, (packed, kept)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_path_bound_never_exceeds_the_best_completion(k):
    # at every walk state the oracle can enumerate, the bound is at most the
    # best completion of the current assignment (within the tolerance the
    # search prunes by), and the path term raises it above the forest bound
    # on some of them
    checked = raised = 0
    for search, _regions, _stepped in _random_walks(k):
        # walks with packed paths start at fixed buses, so no cluster is empty
        free = search.assign.count(0)
        if not search.paths or free > 10 or k ** free > 4_000:
            continue
        groups = CoherencyGroups(
            groups=tuple(frozenset(b for b, r in enumerate(search.assign) if r == s)
                         for s in range(1, k + 1)),
            k=k,
        )
        try:
            best = oracle.enumerate_optimal(search.net, groups).disruption_mw
        except InfeasibleError:
            continue
        assert search.bound() <= _tie_limit(best), (search.bound(), best)
        checked += 1
        raised += search.bound() > max(0.0, search.forced_cross - search.forest[0])
    assert checked >= 100 and raised >= 50, (checked, raised)


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
    search.pack(work.fixed)
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
    # bus were left uncontracted; 7,487 before the bound packed paths
    nodes = 0
    for case, k in DESK_OPTIMA:
        net = case_net(case)
        groups = coherency.slow_coherency(net, k)
        fixings = steiner.build_fixings(net, [steiner.steiner_tree(net, g) for g in groups.groups])
        for ssr in (None, fixings):
            nodes += solve_builtin(net, groups, ssr=ssr)[1].nodes
    assert nodes < 5_000


# (case, k, ssr) -> BnBStats.nodes: the search's path, node for node.  A
# per-node saving must leave these exact; the same counts hold under
# OpenBLAS's default threads, one thread, and the Haswell and Prescott kernels
NODE_COUNTS = {
    ("net030", 2, False): 33, ("net030", 2, True): 30,
    ("net030", 3, False): 100, ("net030", 3, True): 42,
    ("net030", 4, False): 244, ("net030", 4, True): 84,
    ("net030", 5, False): 1518, ("net030", 5, True): 1518,
    ("net057", 2, False): 38, ("net057", 2, True): 36,
    ("net057", 3, False): 57, ("net057", 3, True): 78,
    ("net057", 4, False): 212, ("net057", 4, True): 134,
    ("net057", 5, False): 310, ("net057", 5, True): 179,
    ("net118", 5, True): 2452,
}


@pytest.mark.parametrize("case, k, ssr", sorted(NODE_COUNTS))
def test_node_counts_are_pinned(case, k, ssr):
    _sol, stats = _solve_case(case, k, ssr)
    assert stats.proved_optimal
    assert stats.nodes == NODE_COUNTS[(case, k, ssr)]


# net030 k=5 stopped by node_limit -> (nodes, incumbent assignment,
# incumbent_mw.hex(), best_bound.hex()), or the node count of the
# BudgetError raised before any leaf.  A child pruned by its bound is
# counted where its parent places it, in the order dfs would enter it, so
# these are the stop points of a search that enters every node; the search
# proves the cell in 1,518 nodes.  The assignments hold under every
# OpenBLAS kernel; the last bits of the incumbent and of the root bound
# follow the kernel's flows (0x1.203d29182a5eep+8 and 0x1.da7f2cb73953cp+4
# under Haswell)
STOP_POINTS = {
    1: 2,
    10: 11,
    100: (101, "555142253112545525552555225545", "0x1.203d29182a5ecp+8",
          "0x1.da7f2cb73952cp+4"),
    1000: (1001, "551142213112343553132515223145", "0x1.799b909256c8ap+7",
           "0x1.da7f2cb73952cp+4"),
    1517: (1518, "551142213112343553132515223145", "0x1.799b909256c8ap+7",
           "0x1.da7f2cb73952cp+4"),
}


@pytest.mark.parametrize("node_limit", sorted(STOP_POINTS))
def test_stop_points_are_pinned(node_limit):
    net = case_net("net030")
    groups = coherency.slow_coherency(net, 5)
    want = STOP_POINTS[node_limit]
    if isinstance(want, int):
        with pytest.raises(BudgetError, match=f"^budget exhausted after {want} nodes with no"):
            solve_builtin(net, groups, node_limit=node_limit)
        return
    nodes, assignment, incumbent_hex, bound_hex = want
    sol, stats = solve_builtin(net, groups, node_limit=node_limit)
    assert not stats.proved_optimal
    assert stats.nodes == nodes
    assert "".join(map(str, sol.partition.assignment)) == assignment
    assert stats.incumbent_mw == sol.disruption_mw
    assert stats.incumbent_mw == pytest.approx(float.fromhex(incumbent_hex), rel=1e-13, abs=0)
    assert stats.best_bound == pytest.approx(float.fromhex(bound_hex), rel=1e-13, abs=0)
    assert stats.best_bound > 0.0


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
    # root in 1 node); the first DFS descent reaches a feasible leaf early,
    # and the search proves the optimum in 36 nodes
    rails = [(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 11)]
    net = build_net(12, rails + [(i, i + 6) for i in range(6)], flows=list(range(1, 17)),
                    gen_buses=(0, 5, 6, 11))
    groups = CoherencyGroups(groups=(frozenset([0, 6]), frozenset([5, 11])), k=2)
    assert _Contracted(net, collect_bus_fixings(net, groups)).chains == []
    sol, stats = solve_builtin(net, groups, node_limit=20)
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
