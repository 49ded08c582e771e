"""Network model: parsing, merging, partitions, bridges, switching."""

import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

from gridtree.errors import CaseParseError, NetworkValidationError
from gridtree.network import (
    Chain,
    Partition,
    apply_switching,
    bridges,
    connected_without,
    degree2_chains,
    is_connected,
    network_to_json,
    parse_case,
    reduced_graph,
)

from conftest import CASES_DIR, build_net, random_connected_net

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
    assert str(err.value) == "line 11: malformed row in mpc.branch"
    assert err.value.line_no == 11
    # a malformed row is reported before the missing "]" that follows it
    open_table = bad.rsplit("];", 1)[0]
    with pytest.raises(CaseParseError, match=r"^line 11: malformed row in mpc\.branch$"):
        parse_case(open_table)
    unterminated = TWO_BUS_CASE.rsplit("];", 1)[0]
    with pytest.raises(CaseParseError, match=r"^line 10: table mpc\.branch not terminated$"):
        parse_case(unterminated)


def test_parse_accepts_inf_in_columns_it_does_not_read():
    # MATPOWER files carry Inf in limits such as VMAX, QMAX and ANGMAX
    case = (TWO_BUS_CASE.replace("1 1.1 0.9;", "1 Inf -Inf;")
            .replace("1 100 0 0 0 1 100 1 200 0;", "1 100 Inf -Inf 0 1 100 1 Inf 0;")
            .replace("0 0 0 0 0 0 1;", "0 0 0 0 0 0 1 -Inf Inf;"))
    assert "Inf" in case and parse_case(case) == parse_case(TWO_BUS_CASE)


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


def test_parse_reads_no_table_header_inside_a_comment():
    bare = TWO_BUS_CASE.replace("mpc.bus = [", "% mpc.bus = [")
    with pytest.raises(CaseParseError, match=r"^table mpc\.bus not found$"):
        parse_case(bare)
    # a commented header ahead of the real one is not where the table starts
    shadowed = TWO_BUS_CASE.replace("mpc.bus = [", "% mpc.bus = [ 9 9 9;\nmpc.bus = [")
    assert parse_case(shadowed) == parse_case(TWO_BUS_CASE)


def test_parse_reads_a_table_whose_header_follows_other_text():
    inline = TWO_BUS_CASE.replace("mpc.bus = [\n    ", "x = 1; mpc.bus = [ ")
    assert "x = 1; mpc.bus = [ 1 3 0" in inline
    assert parse_case(inline) == parse_case(TWO_BUS_CASE)


THREE_BUS_CASE = """
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0 0 0 1 1 0 0 1 1.1 0.9;
    2 2 0  0 0 0 1 1 0 0 1 1.1 0.9;
    3 1 90 0 0 0 1 1 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 60 0 0 0 1 100 1 200 0;
    2 30 0 0 0 1 100 1 200 0;
];
mpc.branch = [
    1 2 0 0.1 0 0 0 0 0 0 1;
    2 3 0 0.1 0 0 0 0 1 0 1;
    1 3 0 0.2 0 0 0 0 0 0 1;
];
"""


@pytest.mark.parametrize(
    "old, new, message",
    [("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 0 0 0 0.5 0 1;",
      "line 14: TAP 0.5 is not modelled: an off-nominal transformer ratio"),
     ("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 0 0 0 1 10 1;",
      "line 14: SHIFT 10 is not modelled: a phase-shifting transformer"),
     ("2 30 0 0 0 1 100 1 200 0;", "2 30 0 0 0 1 100 0 200 0;",
      "line 10: GEN_STATUS 0 is not modelled: an out-of-service generator"),
     ("3 1 90", "3 4 90", "line 6: BUS_TYPE 4 is not modelled: an isolated bus"),
     ("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 0 0 0 nan 0 1;",
      "line 14: TAP must be finite, got nan"),
     ("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 0 0 0 inf 0 1;",
      "line 14: TAP must be finite, got inf"),
     ("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 0 0 0 1 nan 1;",
      "line 14: SHIFT must be finite, got nan"),
     ("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 0 0 0 1 -inf 1;",
      "line 14: SHIFT must be finite, got -inf"),
     ("2 30 0 0 0 1 100 1 200 0;", "2 30 0 0 0 1 100 nan 200 0;",
      "line 10: GEN_STATUS must be finite, got nan"),
     ("2 30 0 0 0 1 100 1 200 0;", "2 30 0 0 0 1 100 inf 200 0;",
      "line 10: GEN_STATUS must be finite, got inf"),
     ("3 1 90", "3 nan 90", "line 6: BUS_TYPE must be finite, got nan"),
     ("3 1 90", "3 inf 90", "line 6: BUS_TYPE must be finite, got inf"),
     ("3 1 90", "3 7 90",
      "line 6: BUS_TYPE 7 is not a MATPOWER bus type (1 PQ, 2 PV, 3 reference, 4 isolated)"),
     ("3 1 90", "3 2.5 90",
      "line 6: BUS_TYPE 2.5 is not a MATPOWER bus type (1 PQ, 2 PV, 3 reference, 4 isolated)"),
     # MATPOWER reads any nonzero RATE_A as a limit
     ("2 3 0 0.1 0 0 0 0 1 0 1;", "2 3 0 0.1 0 -50 0 0 1 0 1;",
      "line 14: RATE_A -50 is negative: only 0 means unlimited")],
    ids=["tap", "shift", "gen-status", "isolated-bus", "tap-nan", "tap-inf", "shift-nan",
         "shift-inf", "gen-status-nan", "gen-status-inf", "bus-type-nan", "bus-type-inf",
         "bus-type-7", "bus-type-2.5", "rate-a-negative"],
)
def test_parse_refuses_a_case_column_it_does_not_model(old, new, message):
    # MATPOWER's DC model reads these columns; ignoring them would misread the
    # case, and a non-finite value in one is refused as non-finite
    assert old in THREE_BUS_CASE and parse_case(THREE_BUS_CASE).m == 3
    with pytest.raises(CaseParseError, match=f"^{re.escape(message)}$"):
        parse_case(THREE_BUS_CASE.replace(old, new))


def test_parse_reads_tap_and_shift_of_in_service_branches_and_gen_status_when_present():
    # an out-of-service branch's TAP, SHIFT and RATE_A, and a gen row
    # without GEN_STATUS, change nothing
    case = (THREE_BUS_CASE
            .replace("    1 3 0 0.2 0 0 0 0 0 0 1;", "    1 3 0 0.2 0 0 0 0 0 0 1;\n"
                     "    1 3 0 0.2 0 -50 0 0 0.5 10 0;")
            .replace("2 30 0 0 0 1 100 1 200 0;", "2 30;"))
    assert parse_case(case) == parse_case(THREE_BUS_CASE)


def _branch_case(n_buses, branches):
    """Case text with ``n_buses`` buses (ids 1..n) and one branch row per
    (from id, to id, BR_X, RATE_A, BR_STATUS)."""
    buses = "\n".join(f"    {i} 1 0 0 0 0 1 1 0 0 1 1.1 0.9;" for i in range(1, n_buses + 1))
    rows = "\n".join(f"    {f} {t} 0 {x!r} 0 {rate!r} 0 0 0 0 {status};"
                     for f, t, x, rate, status in branches)
    return (f"mpc.baseMVA = 100;\nmpc.bus = [\n{buses}\n];\n"
            f"mpc.gen = [\n    1 0 0 0 0 1 100 1 0 0;\n];\nmpc.branch = [\n{rows}\n];\n")


def test_parse_merges_parallel_branches_in_the_same_direction():
    net = parse_case(_branch_case(2, [(1, 2, 1.0, 30.0, 1), (1, 2, 0.5, 20.0, 1)]))
    assert len(net.lines) == 1
    (ln,) = net.lines
    assert (ln.id, ln.from_bus, ln.to_bus) == (0, 0, 1)
    assert ln.susceptance == 3.0 and ln.capacity_mw == 50.0 and ln.flow_mw == 0.0


def test_parse_orients_opposite_parallel_branches_from_the_lower_index():
    # the pair keeps the place of its first branch, which runs 3 -> 2
    net = parse_case(_branch_case(3, [(3, 2, 1.0, 10.0, 1), (1, 2, 2.0, 5.0, 1),
                                      (2, 3, 0.5, 7.0, 1)]))
    assert [(ln.id, ln.from_bus, ln.to_bus, ln.susceptance, ln.capacity_mw)
            for ln in net.lines] == [(0, 1, 2, 3.0, 17.0), (1, 0, 1, 0.5, 5.0)]


def test_parse_leaves_a_pair_with_an_unlimited_branch_unlimited():
    # RATE_A 0 means unlimited, whichever branch of the pair has it
    for rates in [(0.0, 40.0), (40.0, 0.0)]:
        net = parse_case(_branch_case(2, [(1, 2, 1.0, rates[0], 1), (2, 1, 1.0, rates[1], 1)]))
        assert net.lines[0].capacity_mw is None and net.lines[0].susceptance == 2.0


def test_parse_single_branch_and_empty_branch_table():
    net = parse_case(_branch_case(2, [(2, 1, 0.4, 0.0, 1)]))
    assert [(ln.from_bus, ln.to_bus, ln.susceptance, ln.capacity_mw) for ln in net.lines] == [
        (0, 1, 2.5, None)
    ]
    assert parse_case(_branch_case(1, [])).lines == ()


def test_parse_merges_random_parallel_branches():
    # each unordered pair: susceptances summed in file order, capacities
    # summed unless a branch is unlimited, out-of-service branches dropped,
    # lines numbered in the order their pairs first appear
    rng = np.random.default_rng(7)
    for _ in range(20):
        branches = [(b, b + 1, 1.0, 0.0, 1) for b in range(1, 5)]  # keeps it connected
        for _ in range(30):
            f, t = rng.choice(np.arange(1, 6), size=2, replace=False).tolist()
            rate = float(rng.choice([0.0, 10.0, 25.5]))
            branches.append((f, t, float(rng.uniform(0.05, 2.0)), rate, int(rng.random() < 0.8)))
        want = {}
        for f, t, x, rate, status in branches:
            if status:
                slot = want.setdefault((min(f, t) - 1, max(f, t) - 1), [0.0, 0.0, False])
                slot[0] += 1.0 / x
                slot[1] += max(rate, 0.0)
                slot[2] |= rate <= 0
        net = parse_case(_branch_case(5, branches))
        assert [(ln.id, ln.from_bus, ln.to_bus, ln.susceptance, ln.capacity_mw)
                for ln in net.lines] == [
            (i, a, b, sus, None if unlimited else cap)
            for i, ((a, b), (sus, cap, unlimited)) in enumerate(want.items())
        ]


def test_cross_edges_single_cluster_empty():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Partition((1, 1, 1, 1), 1)
    assert reduced_graph(net, p).edges == ()


def test_cross_edges_four_cycle_split():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Partition((1, 1, 2, 2), 2)
    assert sorted(e.line_id for e in reduced_graph(net, p).edges) == [1, 3]  # lines (1,2) and (0,3)


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
        assert sorted(e.line_id for e in reduced_graph(net, p).edges) == expect


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
    assert reduced_graph(net, Partition((1, 1, 1, 1), 1)).is_tree()
    assert not reduced_graph(net, Partition((1, 1, 2, 2), 2)).is_tree()
    # removing one cross edge of the 4-cycle split makes it a tree partition
    post = apply_switching(net, [3])
    assert reduced_graph(post, Partition((1, 1, 2, 2), 2)).is_tree()


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
        assert rg.is_tree() == expect


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
    rg = reduced_graph(post, p)
    assert rg.is_tree()
    for e in rg.edges:
        assert e.line_id in bridges(post)


def test_apply_switching_empty_and_bridge():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert apply_switching(net, []) == net
    chopped = apply_switching(net, [0, 1])
    assert not is_connected(chopped)
    with pytest.raises(NetworkValidationError):
        apply_switching(net, [99])


def test_connected_without_matches_a_switched_copy():
    rng = np.random.default_rng(41)
    for _ in range(40):
        net = random_connected_net(rng, 8, int(rng.integers(0, 5)))
        off = [ln.id for ln in net.lines if rng.random() < 0.3]
        assert connected_without(net, off) == is_connected(apply_switching(net, off))
    assert connected_without(net, ()) and is_connected(net)


def test_apply_switching_preserves_line_ids():
    net = build_net(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    post = apply_switching(net, [1])
    assert sorted(post.line_by_id) == [0, 2, 3]


def test_gen_cases_rebuilds_every_bundled_case_without_networkx(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on it
    gen = runpy.run_path(str(CASES_DIR.parent / "tools" / "gen_cases.py"))
    assert sorted(gen["SIZES"]) == sorted(path.stem for path in CASES_DIR.glob("*.m"))
    for name, params in gen["SIZES"].items():
        assert gen["build_case"](*params) == (CASES_DIR / f"{name}.m").read_text(), name


def test_package_exports_defined_in_network_load_no_numpy():
    # both are defined in network, which needs only the standard library
    code = """
import sys
import gridtree
assert gridtree.disruption is sys.modules["gridtree.network"].disruption
assert gridtree.max_weight_spanning_tree is gridtree.network.max_weight_spanning_tree
loaded = sorted(m for m in sys.modules if m == "numpy" or m.split(".")[0] == "gridtree")
assert loaded == ["gridtree", "gridtree.errors", "gridtree.network"], loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
