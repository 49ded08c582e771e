"""Two-stage heuristic: spanning-tree stage against brute force, and the
constrained spectral stage's feasibility guarantees."""

import itertools

import numpy as np
import pytest

from gridtree import cli, dcflow
from gridtree.coherency import CoherencyGroups, _kmeans, slow_coherency
from gridtree.errors import InfeasibleError, NetworkValidationError
from gridtree.network import (
    Partition,
    ReducedEdge,
    ReducedGraph,
    max_weight_spanning_tree,
    parse_case,
    reduced_graph,
)
from gridtree.solution import validate_solution
from gridtree.twostage import constrained_spectral_partition, two_stage

from conftest import CASES_DIR, build_net, random_connected_net


def _rg(k, triples):
    edges = tuple(
        ReducedEdge(min(a, b), max(a, b), lid, w) for lid, (a, b, w) in enumerate(triples)
    )
    return ReducedGraph(k=k, edges=edges)


def brute_force_min_switched_weight(rg):
    """Minimum switched weight over all spanning-tree retentions."""
    total = sum(e.weight for e in rg.edges)
    best = None
    for keep in itertools.combinations(rg.edges, rg.k - 1):
        parent = list(range(rg.k + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = rg.k
        for e in keep:
            fa, fb = find(e.cluster_a), find(e.cluster_b)
            if fa != fb:
                parent[fa] = fb
                comps -= 1
        if comps == 1:
            switched = total - sum(e.weight for e in keep)
            if best is None or switched < best:
                best = switched
    return best


def test_parallel_cross_edges_keep_heaviest():
    rg = _rg(2, [(1, 2, 5.0), (1, 2, 3.0), (1, 2, 2.0)])
    retained, switched = max_weight_spanning_tree(rg)
    assert retained == {0}
    assert switched == {1, 2}


def test_tree_reduced_graph_switches_nothing():
    rg = _rg(3, [(1, 2, 1.0), (2, 3, 9.0)])
    retained, switched = max_weight_spanning_tree(rg)
    assert switched == frozenset()
    assert retained == {0, 1}


def test_single_cluster_reduced_graph():
    retained, switched = max_weight_spanning_tree(_rg(1, []))
    assert retained == frozenset() and switched == frozenset()


def test_disconnected_reduced_graph_raises():
    rg = _rg(3, [(1, 2, 1.0)])
    with pytest.raises(NetworkValidationError):
        max_weight_spanning_tree(rg)


def test_random_multigraphs_match_spanning_tree_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n_edges = int(rng.integers(k - 1, 9))
        triples = []
        # random spanning path guarantees connectivity, then random extras
        for r in range(2, k + 1):
            triples.append((r - 1, r, float(rng.uniform(0.1, 10))))
        for _e in range(n_edges - (k - 1)):
            a, b = rng.integers(1, k + 1, size=2).tolist()
            if a == b:
                continue
            triples.append((int(a), int(b), float(rng.uniform(0.1, 10))))
        rg = _rg(k, triples)
        retained, switched = max_weight_spanning_tree(rg)
        by_id = {e.line_id: e.weight for e in rg.edges}
        got = sum(by_id[lid] for lid in switched)
        assert got == pytest.approx(brute_force_min_switched_weight(rg))
        assert len(retained) == k - 1


def _reference_prim(rg):
    """Prim's algorithm as the stage-2 tree was first written: grow from
    cluster 1, always adding the heaviest crossing edge, ties to the
    lower line id."""
    if rg.k == 1:
        return frozenset(), frozenset(e.line_id for e in rg.edges)
    in_tree = {1}
    retained: set[int] = set()
    while len(in_tree) < rg.k:
        best = None
        for e in rg.edges:
            a_in, b_in = e.cluster_a in in_tree, e.cluster_b in in_tree
            if a_in == b_in:
                continue
            key = (-e.weight, e.line_id)
            if best is None or key < best[0]:
                best = (key, e)
        if best is None:
            raise NetworkValidationError("reduced graph is disconnected")
        edge = best[1]
        retained.add(edge.line_id)
        in_tree.add(edge.cluster_a if edge.cluster_b in in_tree else edge.cluster_b)
    switched = frozenset(e.line_id for e in rg.edges if e.line_id not in retained)
    return frozenset(retained), switched


def test_kruskal_matches_reference_prim_on_tied_multigraphs():
    # weights from {0, 1, 2, 3} tie often, line ids are shuffled so id order
    # differs from edge order, and no spanning path is planted, so many of
    # the graphs are disconnected
    rng = np.random.default_rng(2021)
    outcomes = {"tree": 0, "disconnected": 0}
    for _ in range(2500):
        k = int(rng.integers(1, 7))
        n_edges = int(rng.integers(0, 3 * k + 1))
        ids = rng.permutation(100)[:n_edges].tolist()
        edges = []
        for lid in ids:
            a, b = rng.choice(np.arange(1, k + 1), size=2, replace=k == 1).tolist()
            if a != b:
                edges.append(ReducedEdge(min(a, b), max(a, b), lid, float(rng.integers(0, 4))))
        rg = ReducedGraph(k=k, edges=tuple(edges))
        try:
            want = _reference_prim(rg)
        except NetworkValidationError:
            with pytest.raises(NetworkValidationError):
                max_weight_spanning_tree(rg)
            outcomes["disconnected"] += 1
            continue
        assert max_weight_spanning_tree(rg) == want
        outcomes["tree"] += 1
    assert min(outcomes.values()) >= 500, outcomes


def _two_cliques(gen_pairs=((0, 1), (4, 5))):
    edges = []
    for base in (0, 4):
        for a, b in itertools.combinations(range(4), 2):
            edges.append((base + a, base + b))
    edges.append((2, 6))
    flows = [3.0] * (len(edges) - 1) + [0.5]
    return build_net(8, edges, flows=flows, gen_buses=tuple(b for g in gen_pairs for b in g))


def test_two_cliques_split_perfectly():
    net = _two_cliques()
    groups = CoherencyGroups(groups=(frozenset({0, 1}), frozenset({4, 5})), k=2)
    p = constrained_spectral_partition(net, groups)
    assert set(p.clusters()[0]) == {0, 1, 2, 3}
    assert set(p.clusters()[1]) == {4, 5, 6, 7}


def test_groups_spanning_all_buses_forced():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)], gen_buses=(0, 1, 2, 3))
    groups = CoherencyGroups(groups=(frozenset({0, 1}), frozenset({2, 3})), k=2)
    p = constrained_spectral_partition(net, groups)
    assert p.assignment == (1, 1, 2, 2)


def test_partition_invariants_on_random_instances():
    rng = np.random.default_rng(59)
    done = 0
    for _ in range(40):
        net = random_connected_net(rng, 8, 5)
        groups = CoherencyGroups(
            groups=(frozenset({int(rng.integers(0, 4))}), frozenset({int(rng.integers(4, 8))})),
            k=2,
        )
        try:
            p = constrained_spectral_partition(net, groups)
        except NetworkValidationError:
            continue
        done += 1
        for r, members in enumerate(p.clusters(), start=1):
            assert members, "cluster empty"
            seen = {members[0]}
            stack = [members[0]]
            mset = set(members)
            while stack:
                b = stack.pop()
                for _lid, o in net.incident[b]:
                    if o in mset and o not in seen:
                        seen.add(o)
                        stack.append(o)
            assert seen == mset, "cluster disconnected"
        for r, g in enumerate(groups.groups, start=1):
            for b in g:
                assert p.assignment[b] == r
    assert done >= 30  # the heuristic may fail occasionally, not usually


def test_two_stage_full_pipeline(four_cycle):
    net, groups = four_cycle
    sol = two_stage(net, groups)
    validate_solution(net, sol, groups)
    assert sol.method == "TWO_STAGE"
    assert sol.disruption_mw >= 1.0 - 1e-9  # heuristic cannot beat the optimum


def test_two_stage_deterministic(four_cycle):
    net, groups = four_cycle
    a = two_stage(net, groups)
    b = two_stage(net, groups)
    assert a.partition.assignment == b.partition.assignment
    assert a.switched == b.switched
    assert a.disruption_mw == b.disruption_mw


def test_an_eigendecomposition_failure_is_a_validation_error(monkeypatch, capsys, four_cycle):
    def fail(_matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    net, groups = four_cycle
    for route in (lambda: two_stage(net, groups),
                  lambda: slow_coherency(parse_case((CASES_DIR / "net030.m").read_text()), 2)):
        with pytest.raises(NetworkValidationError, match="eigendecomposition failed"):
            route()
    argv = ["solve", "--case", str(CASES_DIR / "demo9.m"), "--k", "2", "--method", "two-stage"]
    assert cli.main(argv) == 3
    assert "eigendecomposition failed" in capsys.readouterr().err


def test_stage2_disruption_equals_total_minus_tree(four_cycle):
    net, groups = four_cycle
    sol = two_stage(net, groups)
    rg = reduced_graph(net, sol.partition)
    total = sum(e.weight for e in rg.edges)
    by_id = {e.line_id: e.weight for e in rg.edges}
    tree_weight = sum(by_id[lid] for lid in sol.retained_bridges)
    assert sol.disruption_mw == pytest.approx(total - tree_weight)


def test_kmeans_keeps_pinned_rows_on_their_own_labels():
    # after one update the second centroid moves to 3.8, so row 1 (0.4) is
    # nearer the first centroid; pinned, it must stay in cluster 1
    rows = np.array([[0.0], [0.4], [5.0], [6.0]])
    assert _kmeans(rows, rows[:2], pinned=2).tolist() == [0, 1, 1, 1]
    assert _kmeans(rows, rows[:2]).tolist() == [0, 0, 1, 1]


# two_stage objective (MW) on every bundled case with its slow-coherency
# groups and balanced DC flows, or the error it raises.
PINNED_TWO_STAGE = {
    "demo9": {2: 75.84323023653718, 3: 64.31773861687371, 4: 66.10852789658152},
    "net030": {
        2: InfeasibleError,
        3: 213.82473683938434,
        4: 217.45267848031534,
        5: 247.73904123310697,
    },
    "net057": {
        2: 73.85727485143889,
        3: 104.20300743050694,
        4: 130.57058177680244,
        5: 101.18618079228213,
    },
    "net118": {
        2: 397.03266683733335,
        3: InfeasibleError,
        4: InfeasibleError,
        5: InfeasibleError,
    },
    "net240": {
        2: 417.1802515213752,
        3: 357.0102158035761,
        4: 491.5355064872193,
        5: 698.8976112495308,
    },
    "net300": {
        2: InfeasibleError,
        3: 553.9280855556424,
        4: 619.7040703781273,
        5: InfeasibleError,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_TWO_STAGE))
def test_bundled_case_objectives_are_pinned(case):
    net = parse_case((CASES_DIR / f"{case}.m").read_text())
    net = dcflow.with_flows(net, dcflow.solve_dc(net, 0, dcflow.balanced_injections(net)))
    for k, expected in PINNED_TWO_STAGE[case].items():
        groups = slow_coherency(net, k)
        if expected is InfeasibleError:
            with pytest.raises(InfeasibleError):
                two_stage(net, groups)
        else:
            assert two_stage(net, groups).disruption_mw == expected, k
