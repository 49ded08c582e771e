"""Slow-coherency grouping: symmetry cases, enumeration oracle, determinism."""

import itertools
import json

import numpy as np
import pytest

from gridtree.coherency import (
    CoherencyGroups,
    _farthest_first_seeds,
    groups_from_json,
    groups_to_json,
    kron_reduction,
    slow_coherency,
    spectral_embedding,
)
from gridtree.dcflow import laplacian
from gridtree.errors import NetworkValidationError
from gridtree.network import parse_case

from conftest import CASES_DIR, build_net


def _two_islands_weak_tie(tie_susceptance=0.01):
    # identical 4-bus meshes 0-3 and 4-7, generators at (0, 1) and (4, 5)
    edges, sus = [], []
    for base in (0, 4):
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]:
            edges.append((base + a, base + b))
            sus.append(5.0)
    edges.append((3, 4))
    sus.append(tie_susceptance)
    return build_net(8, edges, susceptances=sus, gen_buses=(0, 1, 4, 5))


def test_weak_tie_splits_sides():
    net = _two_islands_weak_tie()
    got = slow_coherency(net, 2)
    assert set(got.groups) == {frozenset({0, 1}), frozenset({4, 5})}


def test_k_equals_generator_count_gives_singletons():
    net = _two_islands_weak_tie()
    got = slow_coherency(net, 4)
    assert set(got.groups) == {frozenset({0}), frozenset({1}), frozenset({4}), frozenset({5})}


def test_groups_use_the_dispatching_generators_unless_fewer_than_k_dispatch():
    # generators at 0, 1, 4, 5 dispatch; those at 2 and 6 have 0 MW
    tied = _two_islands_weak_tie()
    inj = [10.0, 10.0, 0.0, -20.0, 10.0, 10.0, 0.0, -20.0]
    net = build_net(8, [(ln.from_bus, ln.to_bus) for ln in tied.lines],
                    susceptances=[ln.susceptance for ln in tied.lines],
                    injections=inj, gen_buses=(0, 1, 2, 4, 5, 6))
    assert [b.index for b in net.buses if b.is_generator and b.gen_mw > 0] == [0, 1, 4, 5]
    assert slow_coherency(net, 2).groups == (frozenset({0, 1}), frozenset({4, 5}))
    assert set(slow_coherency(net, 3).cluster_of) == {0, 1, 4, 5}
    assert slow_coherency(net, 4).groups == tuple(frozenset({g}) for g in (0, 1, 4, 5))
    # five groups need five generators: every generator is grouped
    assert set(slow_coherency(net, 5).cluster_of) == {0, 1, 2, 4, 5, 6}
    assert slow_coherency(net, 6).groups == tuple(frozenset({g}) for g in (0, 1, 2, 4, 5, 6))
    with pytest.raises(NetworkValidationError, match="k=7 exceeds generator count 6"):
        slow_coherency(net, 7)


def test_barbell_matches_embedding_enumeration():
    # two triangles joined by a path; generators on the outer corners
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    net = build_net(7, edges, gen_buses=(0, 1, 5, 6))
    gens = [0, 1, 5, 6]
    got = slow_coherency(net, 2)

    rows = spectral_embedding(net, gens, 2)
    best, best_cost = None, np.inf
    for labels in itertools.product([0, 1], repeat=len(gens)):
        if len(set(labels)) != 2:
            continue
        cost = 0.0
        for r in (0, 1):
            member_rows = rows[[i for i, lab in enumerate(labels) if lab == r]]
            centroid = member_rows.mean(axis=0)
            cost += ((member_rows - centroid) ** 2).sum()
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = labels
    expect = {
        frozenset(g for g, lab in zip(gens, best) if lab == r) for r in (0, 1)
    }
    assert set(got.groups) == expect


def test_determinism():
    net = _two_islands_weak_tie()
    a = slow_coherency(net, 2)
    b = slow_coherency(net, 2)
    assert a.groups == b.groups


def test_susceptance_scaling_invariance():
    net = _two_islands_weak_tie()
    scaled = build_net(
        8,
        [(ln.from_bus, ln.to_bus) for ln in net.lines],
        susceptances=[ln.susceptance * 7.5 for ln in net.lines],
        gen_buses=(0, 1, 4, 5),
    )
    assert slow_coherency(net, 2).groups == slow_coherency(scaled, 2).groups


def test_groups_partition_generator_subset():
    net = _two_islands_weak_tie()
    got = slow_coherency(net, 3)
    seen = set()
    for g in got.groups:
        assert g
        assert not (seen & g)
        seen |= g
        for b in g:
            assert net.buses[b].is_generator


def test_k_too_large_raises():
    net = _two_islands_weak_tie()
    with pytest.raises(NetworkValidationError):
        slow_coherency(net, 5)


def test_kron_reduction_keeps_row_sums_zero():
    net = _two_islands_weak_tie()
    reduced = kron_reduction(net, [0, 1, 4, 5])
    assert np.allclose(reduced.sum(axis=1), 0.0, atol=1e-9)
    assert np.allclose(reduced, reduced.T, atol=1e-12)


@pytest.mark.parametrize("case", sorted(path.stem for path in CASES_DIR.glob("*.m")))
def test_kron_reduction_keeping_every_bus_is_the_laplacian(case):
    net = parse_case((CASES_DIR / f"{case}.m").read_text())
    reduced = kron_reduction(net, range(net.n))
    assert reduced.tobytes() == laplacian(net).tobytes()


def test_groups_json_round_trip():
    net = _two_islands_weak_tie()
    groups = slow_coherency(net, 2)
    text = groups_to_json(net, groups)
    doc = json.loads(text)
    assert set(doc) == {"k", "groups"}
    back = groups_from_json(net, text)
    assert back.groups == groups.groups


def test_groups_json_rejects_non_generator():
    net = _two_islands_weak_tie()
    bad = json.dumps({"k": 2, "groups": [[3], [5]]})  # bus 3 is not a generator
    with pytest.raises(NetworkValidationError):
        groups_from_json(net, bad)


def test_group_type_invariants():
    with pytest.raises(NetworkValidationError):
        CoherencyGroups(groups=(frozenset([1]), frozenset([1])), k=2)
    with pytest.raises(NetworkValidationError):
        CoherencyGroups(groups=(frozenset(), frozenset([1])), k=2)
    with pytest.raises(NetworkValidationError):
        CoherencyGroups(groups=(frozenset([1]),), k=2)
    with pytest.raises(NetworkValidationError, match="^k=0: a partition needs at least one group$"):
        CoherencyGroups(groups=(), k=0)


# slow_coherency groups (bus indices) of every bundled case; None where k
# exceeds the generator count.  The embedding, Laplacian and k-means must
# keep producing exactly these.
PINNED_GROUPS = {
    "demo9": {
        2: [[2, 7], [3, 5]],
        3: [[2, 7], [3], [5]],
        4: [[2], [3], [5], [7]],
        5: None,
    },
    "net030": {
        2: [[3, 8, 13], [6, 11, 15, 24]],
        3: [[3, 13], [6, 11, 24], [8, 15]],
        4: [[3], [6, 11, 24], [8, 15], [13]],
        5: [[3], [6, 11, 24], [8], [13], [15]],
    },
    "net057": {
        2: [[4, 20, 28, 30, 36, 39, 41], [5, 10, 11, 42, 49, 54]],
        3: [[4, 36, 39, 41], [5, 10, 11, 42, 49, 54], [20, 28, 30]],
        4: [[4, 36, 39, 41], [5, 11, 42, 49], [10, 54], [20, 28, 30]],
        5: [[4, 36, 39, 41], [5, 11], [10, 54], [20, 28, 30], [42, 49]],
    },
    "net118": {
        2: [
            [0, 8, 13, 18, 19, 28, 43, 46, 62, 70, 76, 80, 85, 88, 90, 99, 102, 114],
            [15, 59, 61, 65, 73, 89, 96, 117],
        ],
        3: [
            [0, 18, 43, 70, 80, 85, 88],
            [8, 13, 19, 28, 46, 59, 62, 76, 90, 99, 102, 114, 117],
            [15, 61, 65, 73, 89, 96],
        ],
        4: [
            [0, 18, 43, 70, 80, 85, 88],
            [8, 28, 46, 59, 117],
            [13, 19, 62, 76, 90, 99, 102, 114],
            [15, 61, 65, 73, 89, 96],
        ],
        5: [
            [0, 18, 43, 70, 80, 85, 88],
            [8, 28, 46, 59, 117],
            [13, 76],
            [15, 61, 65, 73, 89, 96],
            [19, 62, 90, 99, 102, 114],
        ],
    },
    "net240": {
        2: [
            [8, 52, 54, 67, 68, 82, 112, 115, 121, 130, 135, 141, 155, 179, 185, 191, 212, 213,
             225, 233],
            [10, 21, 70, 78, 111, 123, 125, 153, 174, 175, 208],
        ],
        3: [
            [8, 52, 54, 82, 112, 121, 130, 135, 179, 185, 191, 213, 225, 233],
            [10, 21, 70, 78, 111, 123, 125, 153, 174, 175, 208],
            [67, 68, 115, 141, 155, 212],
        ],
        4: [
            [8, 54, 112, 121, 130, 135, 213],
            [10, 21, 70, 78, 111, 123, 125, 153, 174, 175, 179, 208, 233],
            [52, 82, 185, 191, 225],
            [67, 68, 115, 141, 155, 212],
        ],
        5: [
            [8, 54, 112, 121, 130, 135, 213],
            [10, 21, 82, 123, 153, 174, 175, 179, 233],
            [52, 185, 191, 225],
            [67, 68, 115, 141, 155, 212],
            [70, 78, 111, 125, 208],
        ],
    },
    "net300": {
        2: [
            [5, 10, 14, 25, 31, 38, 63, 79, 97, 103, 114, 129, 131, 137, 159, 161, 215, 219,
             220, 221, 224, 235, 244, 259, 262, 269, 290],
            [19, 45, 84, 95, 112, 120, 128, 152, 183, 211, 240, 247],
        ],
        3: [
            [5, 25, 38, 63, 97, 103, 114, 129, 131, 137, 159, 161, 215, 219, 221, 224, 235, 262,
             269, 290],
            [10, 14, 31, 79, 211, 220, 259],
            [19, 45, 84, 95, 112, 120, 128, 152, 183, 240, 244, 247],
        ],
        4: [
            [5, 25, 38, 63, 97, 103, 114, 129, 131, 137, 159, 161, 215, 219, 221, 224, 235, 262,
             269, 290],
            [10, 14, 31, 79, 211, 220, 259],
            [19, 45, 152, 244, 247],
            [84, 95, 112, 120, 128, 183, 240],
        ],
        5: [
            [5, 38, 97, 103, 114, 129, 137, 159, 161, 235, 269, 290],
            [10, 14, 31, 79, 211, 220, 259],
            [19, 45, 152, 244, 247],
            [25, 63, 131, 215, 219, 221, 224, 262],
            [84, 95, 112, 120, 128, 183, 240],
        ],
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_GROUPS))
def test_bundled_case_groups_are_pinned(case):
    net = parse_case((CASES_DIR / f"{case}.m").read_text())
    for k, expected in PINNED_GROUPS[case].items():
        if expected is None:
            with pytest.raises(NetworkValidationError):
                slow_coherency(net, k)
        else:
            assert [sorted(g) for g in slow_coherency(net, k).groups] == expected, k


def _farthest_first_seeds_by_scan(rows, k):
    # reference: scan the pairs in row-major order, keeping the first strict maximum
    n = rows.shape[0]
    d = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
    best = (-1.0, 0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] > best[0]:
                best = (d[i, j], i, j)
    seeds = [best[1], best[2]]
    while len(seeds) < k:
        min_d = d[:, seeds].min(axis=1)
        min_d[seeds] = -1.0
        seeds.append(int(np.argmax(min_d)))
    return seeds[:k]


def test_farthest_first_seeds_match_the_pair_scan():
    # rows on a small integer grid: many tied distances and duplicate rows
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(3, 12))
        rows = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
        k = int(rng.integers(2, n))
        assert _farthest_first_seeds(rows, k) == _farthest_first_seeds_by_scan(rows, k)
    assert _farthest_first_seeds(np.ones((4, 2)), 2) == [0, 1]
