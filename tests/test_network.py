"""Network model: parsing, merging, partitions, bridges, switching."""

import numpy as np
import pytest

from gridtree.errors import CaseParseError, NetworkValidationError
from gridtree.network import (
    Chain,
    Partition,
    RawBranch,
    apply_switching,
    bridges,
    cross_edges,
    degree2_chains,
    is_connected,
    is_tree_partition,
    merge_parallel,
    network_from_json,
    network_to_json,
    parse_case,
    reduced_graph,
    serialize_case,
)

from conftest import build_net, random_connected_net

TWO_BUS_CASE = """
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0   0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 100 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 100 0 0 0 1 100 1 200 0;
];
mpc.branch = [
    1 2 0 0.1 0 0 0 0 0 0 1;
];
"""


def test_parse_minimal_two_bus():
    net = parse_case(TWO_BUS_CASE)
    assert net.n == 2 and net.m == 1
    assert net.base_mva == 100.0
    assert net.buses[0].injection_mw == 100.0
    assert net.buses[0].is_generator
    assert net.buses[1].injection_mw == -100.0
    assert net.lines[0].susceptance == pytest.approx(10.0)


def test_parse_drops_out_of_service_branch():
    case = TWO_BUS_CASE.replace(
        "mpc.branch = [\n    1 2 0 0.1 0 0 0 0 0 0 1;",
        "mpc.branch = [\n    1 2 0 0.1 0 0 0 0 0 0 1;\n    1 2 0 0.2 0 0 0 0 0 0 0;",
    )
    net = parse_case(case)
    assert net.m == 1
    assert net.lines[0].susceptance == pytest.approx(10.0)  # only in-service branch


def test_parse_errors_carry_line_numbers():
    bad = TWO_BUS_CASE.replace("1 2 0 0.1 0 0 0 0 0 0 1;", "1 2 0 abc 0 0 0 0 0 0 1;")
    with pytest.raises(CaseParseError) as err:
        parse_case(bad)
    assert "line" in str(err.value)


def test_parse_rejects_duplicate_bus_ids():
    bad = TWO_BUS_CASE.replace("2 1 100", "1 1 100")
    with pytest.raises(NetworkValidationError):
        parse_case(bad)


def test_parse_rejects_disconnected_network():
    case = """
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0 0 0 0 1 1 0 0 1 1.1 0.9;
    2 1 0 0 0 0 1 1 0 0 1 1.1 0.9;
    3 1 0 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [ 1 0 0 0 0 1 100 1 0 0; ];
mpc.branch = [ 1 2 0 0.1 0 0 0 0 0 0 1; ];
"""
    with pytest.raises(NetworkValidationError):
        parse_case(case)


def test_merge_parallel_same_direction():
    lines = merge_parallel(
        [RawBranch(0, 1, 1.0, flow_mw=30.0), RawBranch(0, 1, 2.0, flow_mw=20.0)]
    )
    assert len(lines) == 1
    assert lines[0].flow_mw == pytest.approx(50.0)
    assert lines[0].susceptance == pytest.approx(3.0)


def test_merge_parallel_opposite_direction_resigns_flow():
    lines = merge_parallel(
        [RawBranch(0, 1, 1.0, flow_mw=30.0), RawBranch(1, 0, 1.0, flow_mw=20.0)]
    )
    assert len(lines) == 1
    assert lines[0].from_bus == 0 and lines[0].to_bus == 1
    assert lines[0].flow_mw == pytest.approx(10.0)


def test_merge_parallel_identity_and_empty():
    assert merge_parallel([]) == []
    lines = merge_parallel([RawBranch(2, 5, 1.5, flow_mw=-3.0)])
    assert len(lines) == 1 and lines[0].susceptance == 1.5


def test_merge_parallel_conserves_signed_flow():
    rng = np.random.default_rng(7)
    records = []
    for _ in range(40):
        a, b = sorted(rng.integers(0, 5, size=2).tolist())
        if a == b:
            continue
        if rng.random() < 0.5:
            a, b = b, a
        records.append(RawBranch(a, b, float(rng.uniform(0.5, 2)), flow_mw=float(rng.uniform(-10, 10))))
    merged = merge_parallel(records)
    for ln in merged:
        want = sum(
            (r.flow_mw if r.from_bus == ln.from_bus else -r.flow_mw)
            for r in records
            if {r.from_bus, r.to_bus} == {ln.from_bus, ln.to_bus}
        )
        assert ln.flow_mw == pytest.approx(want)


def test_cross_edges_single_cluster_empty():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Partition((1, 1, 1, 1), 1)
    assert cross_edges(net, p) == []


def test_cross_edges_four_cycle_split():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Partition((1, 1, 2, 2), 2)
    assert cross_edges(net, p) == [1, 3]  # lines (1,2) and (0,3)


def test_cross_edges_matches_endpoint_comparison():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_connected_net(rng, 8, 5)
        assignment = tuple(int(rng.integers(1, 4)) for _ in range(8))
        k = len(set(assignment))
        relabel = {r: i + 1 for i, r in enumerate(sorted(set(assignment)))}
        p = Partition(tuple(relabel[a] for a in assignment), k)
        expect = sorted(
            ln.id
            for ln in net.lines
            if p.assignment[ln.from_bus] != p.assignment[ln.to_bus]
        )
        assert cross_edges(net, p) == expect


def test_reduced_graph_multigraph_edges():
    net = build_net(4, [(0, 2), (1, 3), (0, 1), (2, 3)], flows=[3, -4, 0, 0])
    p = Partition((1, 1, 2, 2), 2)
    rg = reduced_graph(net, p)
    assert rg.k == 2
    assert len(rg.edges) == 2  # parallel reduced edges allowed
    weights = sorted(e.weight for e in rg.edges)
    assert weights == [3.0, 4.0]
    assert all((e.cluster_a, e.cluster_b) == (1, 2) for e in rg.edges)


def test_is_tree_partition_cases():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_tree_partition(net, Partition((1, 1, 1, 1), 1))
    assert not is_tree_partition(net, Partition((1, 1, 2, 2), 2))
    # removing one cross edge of the 4-cycle split makes it a tree partition
    post = apply_switching(net, [3])
    assert is_tree_partition(post, Partition((1, 1, 2, 2), 2))


def test_tree_partition_iff_connected_and_k_minus_1_cross_edges():
    rng = np.random.default_rng(23)
    for _ in range(50):
        net = random_connected_net(rng, 7, 4)
        assignment = tuple(int(rng.integers(1, 3)) for _ in range(7))
        if len(set(assignment)) != 2:
            continue
        p = Partition(assignment, 2)
        rg = reduced_graph(net, p)
        connected = len({e.cluster_a for e in rg.edges} | {e.cluster_b for e in rg.edges}) == 2 and rg.edges
        expect = bool(connected) and len(rg.edges) == p.k - 1
        assert is_tree_partition(net, p) == expect


def test_bridges_tree_and_cycle():
    tree = build_net(4, [(0, 1), (1, 2), (1, 3)])
    assert bridges(tree) == [0, 1, 2]
    cycle = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert bridges(cycle) == []


def test_bridges_match_removal_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        net = random_connected_net(rng, 9, int(rng.integers(0, 6)))
        brute = []
        for ln in net.lines:
            reduced = apply_switching(net, [ln.id])
            if not is_connected(reduced):
                brute.append(ln.id)
        assert bridges(net) == sorted(brute)


def test_every_tree_partition_cross_edge_is_a_bridge():
    net = build_net(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    p = Partition((1, 1, 1, 2, 2, 2), 2)
    post = apply_switching(net, [])
    assert is_tree_partition(post, p)
    for lid in cross_edges(post, p):
        assert lid in bridges(post)


def test_apply_switching_empty_and_bridge():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert apply_switching(net, []) == net
    chopped = apply_switching(net, [0, 1])
    assert not is_connected(chopped)
    with pytest.raises(NetworkValidationError):
        apply_switching(net, [99])


def test_apply_switching_preserves_line_ids():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    post = apply_switching(net, [1])
    assert sorted(post.line_by_id) == [0, 2, 3]


def test_case_serialize_round_trip():
    net = parse_case(TWO_BUS_CASE)
    assert parse_case(serialize_case(net)) == net


def test_case_round_trip_on_random_injections():
    rng = np.random.default_rng(5)
    net = random_connected_net(rng, 6, 3)
    # flows are not stored in case format; compare with flows zeroed
    bare = parse_case(serialize_case(net))
    assert bare.n == net.n and bare.m == net.m
    for a, b in zip(bare.lines, net.lines):
        assert a.susceptance == pytest.approx(b.susceptance)
        assert (a.from_bus, a.to_bus) == (b.from_bus, b.to_bus)


def test_network_json_round_trip():
    rng = np.random.default_rng(13)
    net = random_connected_net(rng, 6, 4)
    back = network_from_json(network_to_json(net))
    assert back.n == net.n and back.m == net.m
    assert back.base_mva == net.base_mva
    for a, b in zip(back.lines, net.lines):
        assert a.flow_mw == b.flow_mw
        assert a.susceptance == b.susceptance


def test_network_json_field_names():
    net = build_net(2, [(0, 1)], flows=[1.5])
    import json

    doc = json.loads(network_to_json(net))
    assert set(doc) == {"buses", "lines", "base_mva"}
    assert set(doc["buses"][0]) == {"id", "injection_mw"}
    assert set(doc["lines"][0]) == {"from", "to", "susceptance", "flow_mw", "capacity_mw"}


def test_degree2_chains_on_a_hand_built_graph():
    # buses 0 and 5 are junctions; 9 is a leaf; 13-14-15 is a cycle of
    # degree-2 buses that joins no other bus
    edges = [
        (0, 1), (1, 2), (2, 5),  # lines 0-2: a chain 0..5 through 1, 2
        (0, 5), (0, 3), (3, 5),  # lines 3-5: a direct line, and a chain beside it
        (5, 6), (6, 7), (7, 5),  # lines 6-8: a loop from 5 back to 5
        (0, 8), (8, 9),          # lines 9-10: a chain out to the leaf 9
        (5, 10), (10, 11), (11, 12), (12, 0),  # lines 11-14
        (13, 14), (14, 15), (15, 13),          # lines 15-17
    ]
    net = build_net(16, edges)
    through_11 = Chain((0, 5), (12, 11, 10), (14, 13, 12, 11))
    assert degree2_chains(net) == [
        Chain((0, 5), (1, 2), (0, 1, 2)),
        Chain((0, 5), (3,), (4, 5)),
        Chain((5, 5), (6, 7), (6, 7, 8)),
        Chain((0, 9), (8,), (9, 10)),
        through_11,
    ]
    # a kept degree-2 bus ends the runs on both sides of it, and turns the
    # bare cycle into a loop through itself
    assert degree2_chains(net, keep={11, 13})[-3:] == [
        Chain((5, 11), (10,), (11, 12)),
        Chain((0, 11), (12,), (14, 13)),
        Chain((13, 13), (14, 15), (15, 16, 17)),
    ]
    for chain in degree2_chains(net):
        walk = [chain.ends[0], *chain.buses, chain.ends[1]]
        for a, b, lid in zip(walk, walk[1:], chain.lines):
            ln = net.line_by_id[lid]
            assert {ln.from_bus, ln.to_bus} == {a, b}
