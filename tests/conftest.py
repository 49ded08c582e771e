"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from gridtree import dcflow
from gridtree.bnb import _Search
from gridtree.coherency import CoherencyGroups
from gridtree.network import Bus, Line, Network, parse_case

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

BRIDGE_CMD = "python3 -m gridtree.milpsolve {model} {solution}"


@pytest.fixture(scope="session", autouse=True)
def _solver_children_import_checkout():
    """Bridge solver children import gridtree from this checkout's src/."""
    path = os.pathsep.join(p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(autouse=True)
def _no_bridge_from_the_shell(monkeypatch):
    """A GRIDTREE_BRIDGE_CMD set in the calling shell reaches no test."""
    monkeypatch.delenv("GRIDTREE_BRIDGE_CMD", raising=False)


def build_net(n, edges, flows=None, susceptances=None, injections=None,
              base_mva=100.0, gen_buses=()):
    """Small-network builder; edges are (a, b) index pairs."""
    flows = flows if flows is not None else [0.0] * len(edges)
    sus = susceptances if susceptances is not None else [1.0] * len(edges)
    inj = injections if injections is not None else [0.0] * n
    gens = set(gen_buses)
    buses = tuple(
        Bus(
            id=i + 1,
            index=i,
            injection_mw=float(inj[i]),
            is_generator=i in gens,
            gen_mw=max(float(inj[i]), 0.0) if i in gens else 0.0,
            load_mw=max(-float(inj[i]), 0.0),
        )
        for i in range(n)
    )
    lines = []
    for lid, ((a, b), f, s) in enumerate(zip(edges, flows, sus)):
        lo, hi = min(a, b), max(a, b)
        signed = f if a < b else -f
        lines.append(Line(id=lid, from_bus=lo, to_bus=hi, susceptance=float(s), flow_mw=float(signed)))
    return Network(buses=buses, lines=tuple(lines), base_mva=base_mva)


def case_net(name):
    """A bundled case with its DC flows at balanced injections, slack bus 0."""
    net = parse_case((CASES_DIR / f"{name}.m").read_text())
    return dcflow.with_flows(net, dcflow.solve_dc(net, 0, dcflow.balanced_injections(net)))


def uncontracted_search(net, k, node_limit=None, fixed=None):
    """The built-in B&B's search on ``net`` itself, with no chain contracted.
    Given ``fixed`` (bus -> cluster), its paths are packed and the fixed
    buses placed, as ``solve_builtin`` does at the root."""
    lines = [(ln, ln.from_bus, ln.to_bus) for ln in net.lines]
    search = _Search(net, net.n, lines, k, node_limit, None)
    if fixed:
        search.pack(fixed)
        for b, r in sorted(fixed.items()):
            search.place(b, r)
    return search


def random_connected_net(rng, n, extra, flow_scale=10.0):
    """Random spanning tree plus `extra` chords, random signed flows."""
    edges = []
    for b in range(1, n):
        a = int(rng.integers(0, b))
        edges.append((a, b))
    existing = set(edges)
    attempts = 0
    while extra > 0 and attempts < 200:
        a, b = sorted(rng.integers(0, n, size=2).tolist())
        attempts += 1
        if a == b or (a, b) in existing:
            continue
        edges.append((a, b))
        existing.add((a, b))
        extra -= 1
    flows = rng.uniform(-flow_scale, flow_scale, size=len(edges))
    sus = rng.uniform(0.5, 5.0, size=len(edges))
    return build_net(n, edges, flows=flows, susceptances=sus)


def random_groups(rng, net, k, max_size=2):
    """k disjoint random groups of 1..max_size buses, marked as generators."""
    order = rng.permutation(net.n).tolist()
    groups = []
    taken = 0
    for _r in range(k):
        size = int(rng.integers(1, max_size + 1))
        members = frozenset(order[taken:taken + size])
        taken += size
        groups.append(members)
    groups.sort(key=min)
    return CoherencyGroups(groups=tuple(groups), k=k)


def flow_consistent_net(rng, n, extra):
    """Network whose stored flows solve the DC equations for its injections."""
    net = random_connected_net(rng, n, extra)
    inj = rng.uniform(-50.0, 50.0, size=n)
    inj[0] -= inj.sum()
    buses = tuple(
        Bus(id=b.id, index=b.index, injection_mw=float(inj[b.index]))
        for b in net.buses
    )
    net = Network(buses=buses, lines=net.lines, base_mva=net.base_mva)
    sol = dcflow.solve_dc(net, 0)
    return dcflow.with_flows(net, sol), sol


@pytest.fixture
def four_cycle():
    """Cycle 0-1-2-3-0 with |flows| 5,1,2,4; singleton groups at 0 and 2."""
    net = build_net(
        4,
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        flows=[5.0, 1.0, 2.0, 4.0],
        gen_buses=(0, 2),
    )
    groups = CoherencyGroups(groups=(frozenset([0]), frozenset([2])), k=2)
    return net, groups


@pytest.fixture(scope="session")
def demo_case_text():
    return (CASES_DIR / "demo9.m").read_text()
