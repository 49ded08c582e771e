"""Graph model for transmission networks.

Buses and lines live in dense 0-based index space; external bus ids from
the case file are kept for reporting only.  All structural notions
(connectivity, bridges, partitions) treat the graph as undirected; the
orientation of a line only fixes the sign convention of its MW flow.
Networks are immutable: switching produces a new value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Container, Iterable, Mapping, Optional, Sequence

from .errors import CaseParseError, NetworkValidationError

__all__ = [
    "Bus",
    "Line",
    "Network",
    "Partition",
    "ReducedEdge",
    "ReducedGraph",
    "Chain",
    "RawBranch",
    "parse_case",
    "serialize_case",
    "merge_parallel",
    "cross_edges",
    "reduced_graph",
    "max_weight_spanning_tree",
    "is_tree_partition",
    "disruption",
    "bridges",
    "apply_switching",
    "components",
    "is_connected",
    "degree2_chains",
    "json_object",
    "network_to_json",
    "network_from_json",
]


@dataclass(frozen=True)
class Bus:
    """A bus with its net MW injection (generation minus load)."""

    id: int
    index: int
    injection_mw: float
    is_generator: bool = False
    gen_mw: float = 0.0
    load_mw: float = 0.0


@dataclass(frozen=True)
class Line:
    """A transmission line in canonical orientation (from_bus < to_bus).

    ``flow_mw`` is signed, positive from ``from_bus`` to ``to_bus``.  The
    ``id`` is assigned at parse time and survives switching, so solution
    line references stay valid on derived networks.
    """

    id: int
    from_bus: int
    to_bus: int
    susceptance: float
    flow_mw: float = 0.0
    capacity_mw: Optional[float] = None

    def other(self, bus: int) -> int:
        return self.to_bus if bus == self.from_bus else self.from_bus


@dataclass(frozen=True)
class RawBranch:
    """An unmerged branch record as read from a case file."""

    from_bus: int
    to_bus: int
    susceptance: float
    flow_mw: float = 0.0
    capacity_mw: Optional[float] = None


@dataclass(frozen=True, eq=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        if len({b.id for b in self.buses}) != len(self.buses):
            raise NetworkValidationError("duplicate bus ids")
        if [b.index for b in self.buses] != list(range(len(self.buses))):
            raise NetworkValidationError("bus indices must be dense and ordered")
        pairs = set()
        for ln in self.lines:
            if ln.from_bus == ln.to_bus:
                raise NetworkValidationError(f"self-loop on bus index {ln.from_bus}")
            if not (0 <= ln.from_bus < len(self.buses) and 0 <= ln.to_bus < len(self.buses)):
                raise NetworkValidationError(f"line {ln.id} references unknown bus index")
            if ln.susceptance <= 0:
                raise NetworkValidationError(f"line {ln.id} has non-positive susceptance")
            key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
            if key in pairs:
                raise NetworkValidationError(f"parallel lines between bus indices {key}")
            pairs.add(key)
        if len({ln.id for ln in self.lines}) != len(self.lines):
            raise NetworkValidationError("duplicate line ids")

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return len(self.lines)

    @cached_property
    def line_by_id(self) -> Mapping[int, Line]:
        return {ln.id: ln for ln in self.lines}

    @cached_property
    def incident(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per bus: tuple of (line id, neighbor bus index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for ln in self.lines:
            adj[ln.from_bus].append((ln.id, ln.to_bus))
            adj[ln.to_bus].append((ln.id, ln.from_bus))
        return tuple(tuple(a) for a in adj)

    def index_of(self, external_id: int) -> int:
        try:
            return self._id_to_index[external_id]
        except KeyError:
            raise NetworkValidationError(f"unknown bus id {external_id}") from None

    @cached_property
    def _id_to_index(self) -> Mapping[int, int]:
        return {b.id: b.index for b in self.buses}


@dataclass(frozen=True)
class Partition:
    """Bus-to-cluster assignment; clusters are numbered 1..k."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self):
        seen = set(self.assignment)
        if not seen.issubset(range(1, self.k + 1)):
            raise NetworkValidationError(f"cluster labels outside 1..{self.k}")
        if len(seen) != self.k:
            missing = sorted(set(range(1, self.k + 1)) - seen)
            raise NetworkValidationError(f"empty clusters: {missing}")

    def clusters(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, r in enumerate(self.assignment):
            out[r - 1].append(i)
        return out


@dataclass(frozen=True)
class ReducedEdge:
    cluster_a: int
    cluster_b: int
    line_id: int
    weight: float


@dataclass(frozen=True)
class ReducedGraph:
    """Cluster-level multigraph: one edge per cross edge of the partition."""

    k: int
    edges: tuple[ReducedEdge, ...]


# ---------------------------------------------------------------------------
# Case file parsing (MATPOWER subset)
# ---------------------------------------------------------------------------

_BASE_RE = re.compile(r"mpc\.baseMVA\s*=\s*([^;]+);")


def _read_table(lines: list[str], name: str) -> list[tuple[int, list[float]]]:
    """Extract rows of ``mpc.<name> = [...]`` as (line_no, values)."""
    header = re.compile(rf"mpc\.{name}\s*=\s*\[")
    start = None
    for idx, text in enumerate(lines):
        if header.search(text):
            start = idx
            break
    if start is None:
        raise CaseParseError(f"table mpc.{name} not found")
    rows: list[tuple[int, list[float]]] = []
    for idx in range(start, len(lines)):
        text = lines[idx]
        if idx == start:
            text = text[header.search(text).end():]
        closed = "]" in text
        if closed:
            text = text[: text.index("]")]
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                rows.append((idx + 1, [float(tok) for tok in chunk.split()]))
            except ValueError:
                raise CaseParseError(f"malformed row in mpc.{name}", line_no=idx + 1)
        if closed:
            return rows
    raise CaseParseError(f"table mpc.{name} not terminated", line_no=start + 1)


def _finite(value: float, column: str, line_no: int) -> float:
    if not math.isfinite(value):
        raise CaseParseError(f"{column} must be finite, got {value!r}", line_no=line_no)
    return value


def _bus_id(value: float, column: str, line_no: int) -> int:
    if not value.is_integer():
        raise CaseParseError(f"{column} must be an integer bus id, got {value!r}", line_no=line_no)
    return int(value)


def merge_parallel(records: Sequence[RawBranch]) -> list[Line]:
    """Merge parallel branches into one line per unordered bus pair.

    Flows are re-signed to the canonical (min index, max index) orientation
    and summed; susceptances add; capacities add unless any branch of the
    pair is unlimited (None), which makes the merged line unlimited.
    """
    order: list[tuple[int, int]] = []
    acc: dict[tuple[int, int], list] = {}
    for rec in records:
        a, b = rec.from_bus, rec.to_bus
        sign = 1.0 if a < b else -1.0
        key = (min(a, b), max(a, b))
        if key not in acc:
            acc[key] = [0.0, 0.0, 0.0, False]  # susceptance, flow, cap, unlimited
            order.append(key)
        slot = acc[key]
        slot[0] += rec.susceptance
        slot[1] += sign * rec.flow_mw
        if rec.capacity_mw is None:
            slot[3] = True
        else:
            slot[2] += rec.capacity_mw
    out = []
    for lid, key in enumerate(order):
        sus, flow, cap, unlimited = acc[key]
        out.append(
            Line(
                id=lid,
                from_bus=key[0],
                to_bus=key[1],
                susceptance=sus,
                flow_mw=flow,
                capacity_mw=None if unlimited else cap,
            )
        )
    return out


def parse_case(text: str) -> Network:
    """Parse a MATPOWER-subset case file into a connected Network.

    Reads baseMVA, bus columns (BUS_I, PD), gen columns
    (GEN_BUS, PG) and branch columns (F_BUS, T_BUS, BR_X, RATE_A,
    BR_STATUS).  Out-of-service branches are dropped, parallel branches
    merged, bus ids remapped to dense 0-based indices.  A non-finite value
    in any of these columns is a CaseParseError naming its line.
    """
    raw_lines = [ln.split("%")[0] for ln in text.splitlines()]

    joined = "\n".join(raw_lines)
    m = _BASE_RE.search(joined)
    if m is None:
        raise CaseParseError("mpc.baseMVA not found")
    try:
        base_mva = float(m.group(1))
    except ValueError:
        raise CaseParseError(f"bad baseMVA value: {m.group(1)!r}")
    _finite(base_mva, "baseMVA", joined.count("\n", 0, m.start()) + 1)
    if base_mva <= 0:
        raise CaseParseError(f"baseMVA must be positive, got {base_mva}")

    bus_rows = _read_table(raw_lines, "bus")
    gen_rows = _read_table(raw_lines, "gen")
    branch_rows = _read_table(raw_lines, "branch")

    ids: list[int] = []
    load: dict[int, float] = {}
    for line_no, row in bus_rows:
        if len(row) < 3:
            raise CaseParseError("bus row needs at least 3 columns", line_no=line_no)
        bus_id = _bus_id(row[0], "BUS_I", line_no)
        if bus_id in load:
            raise NetworkValidationError(f"duplicate bus id {bus_id}")
        ids.append(bus_id)
        load[bus_id] = _finite(row[2], "PD", line_no)

    index = {bus_id: i for i, bus_id in enumerate(ids)}

    gen: dict[int, float] = {}
    for line_no, row in gen_rows:
        if len(row) < 2:
            raise CaseParseError("gen row needs at least 2 columns", line_no=line_no)
        bus_id = _bus_id(row[0], "GEN_BUS", line_no)
        if bus_id not in index:
            raise CaseParseError(f"gen references unknown bus {bus_id}", line_no=line_no)
        gen[bus_id] = gen.get(bus_id, 0.0) + _finite(row[1], "PG", line_no)

    records: list[RawBranch] = []
    for line_no, row in branch_rows:
        if len(row) < 11:
            raise CaseParseError("branch row needs at least 11 columns", line_no=line_no)
        f_id, t_id = _bus_id(row[0], "F_BUS", line_no), _bus_id(row[1], "T_BUS", line_no)
        if f_id not in index or t_id not in index:
            raise CaseParseError(
                f"branch references unknown bus {f_id if f_id not in index else t_id}",
                line_no=line_no,
            )
        if f_id == t_id:
            raise CaseParseError(f"self-loop branch at bus {f_id}", line_no=line_no)
        if _finite(row[10], "BR_STATUS", line_no) == 0:
            continue
        x = _finite(row[3], "BR_X", line_no)
        if x <= 0:
            raise CaseParseError(f"branch reactance must be positive, got {x}", line_no=line_no)
        rate = _finite(row[5], "RATE_A", line_no)
        records.append(
            RawBranch(
                from_bus=index[f_id],
                to_bus=index[t_id],
                susceptance=1.0 / x,
                capacity_mw=rate if rate > 0 else None,
            )
        )

    buses = tuple(
        Bus(
            id=bus_id,
            index=index[bus_id],
            injection_mw=gen.get(bus_id, 0.0) - load[bus_id],
            is_generator=bus_id in gen,
            gen_mw=gen.get(bus_id, 0.0),
            load_mw=load[bus_id],
        )
        for bus_id in ids
    )
    net = Network(buses=buses, lines=tuple(merge_parallel(records)), base_mva=base_mva)
    if not is_connected(net):
        raise NetworkValidationError("network is not connected")
    return net


def serialize_case(net: Network) -> str:
    """Write a Network back to MATPOWER-subset text (flows are not stored)."""
    out = ["function mpc = case_gridtree", "mpc.version = '2';"]
    out.append(f"mpc.baseMVA = {net.base_mva!r};")
    out.append("mpc.bus = [")
    for b in net.buses:
        bus_type = 2 if b.is_generator else 1
        out.append(f"\t{b.id}\t{bus_type}\t{b.load_mw!r}\t0\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;")
    out.append("];")
    out.append("mpc.gen = [")
    for b in net.buses:
        if b.is_generator:
            out.append(f"\t{b.id}\t{b.gen_mw!r}\t0\t0\t0\t1\t{net.base_mva!r}\t1\t{b.gen_mw!r}\t0;")
    out.append("];")
    out.append("mpc.branch = [")
    for ln in net.lines:
        rate = 0 if ln.capacity_mw is None else repr(ln.capacity_mw)
        x = repr(1.0 / ln.susceptance)
        out.append(
            f"\t{net.buses[ln.from_bus].id}\t{net.buses[ln.to_bus].id}"
            f"\t0\t{x}\t0\t{rate}\t0\t0\t0\t0\t1;"
        )
    out.append("];")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def components(net: Network, buses: Iterable[int]) -> list[list[int]]:
    """Connected components of the subgraph induced by ``buses``.

    Each component is sorted; components come in the order of their
    first bus in ``buses``.
    """
    buses = list(buses)
    allowed = set(buses)
    comps = []
    seen: set[int] = set()
    for start in buses:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            b = queue.pop()
            for _lid, o in net.incident[b]:
                if o in allowed and o not in seen:
                    seen.add(o)
                    comp.append(o)
                    queue.append(o)
        comps.append(sorted(comp))
    return comps


def is_connected(net: Network) -> bool:
    return len(components(net, range(net.n))) == 1


@dataclass(frozen=True)
class Chain:
    """A maximal run of degree-2 buses and the two buses it joins.

    ``buses`` runs from ``ends[0]`` to ``ends[1]`` and ``lines`` holds
    the line ids along it, one more than there are buses.
    """

    ends: tuple[int, int]
    buses: tuple[int, ...]
    lines: tuple[int, ...]

    def cut_line(self, net: Network) -> Line:
        """The line a cut of this chain moves to: the least |flow|, ties
        to the lower id."""
        return min((net.line_by_id[lid] for lid in self.lines),
                   key=lambda ln: (abs(ln.flow_mw), ln.id))


def degree2_chains(net: Network, keep: Container[int] = ()) -> list[Chain]:
    """Maximal runs of degree-2 buses outside ``keep``, in the order of
    their lowest bus.

    The ends are the first buses off the run on either side, with
    ``ends[0] <= ends[1]``; both ends are the same bus when the run
    closes a loop through it.  A cycle made only of run buses joins no
    other bus and is left out.
    """
    inner = [len(net.incident[b]) == 2 and b not in keep for b in range(net.n)]
    seen = [False] * net.n
    chains = []
    for start in range(net.n):
        if not inner[start] or seen[start]:
            continue
        seen[start] = True
        halves = []  # per side of start: (end bus, buses outward, lines outward)
        for lid, bus in net.incident[start]:
            buses, lines = [], [lid]
            while inner[bus] and bus != start:
                seen[bus] = True
                buses.append(bus)
                lid, bus = next(step for step in net.incident[bus] if step[0] != lid)
                lines.append(lid)
            halves.append((bus, buses, lines))
        (end_a, buses_a, lines_a), (end_b, buses_b, lines_b) = halves
        if end_a == start:
            continue
        buses = buses_a[::-1] + [start] + buses_b
        lines = lines_a[::-1] + lines_b
        if (end_a, buses[0]) > (end_b, buses[-1]):
            end_a, end_b = end_b, end_a
            buses.reverse()
            lines.reverse()
        chains.append(Chain((end_a, end_b), tuple(buses), tuple(lines)))
    return chains


def cross_edges(net: Network, p: Partition) -> list[int]:
    """Line ids whose endpoints lie in different clusters, sorted."""
    if len(p.assignment) != net.n:
        raise NetworkValidationError("partition does not cover all buses")
    a = p.assignment
    return sorted(ln.id for ln in net.lines if a[ln.from_bus] != a[ln.to_bus])


def reduced_graph(net: Network, p: Partition) -> ReducedGraph:
    """Cluster multigraph with one edge per cross edge, weight |flow|."""
    if len(p.assignment) != net.n:
        raise NetworkValidationError("partition does not cover all buses")
    a = p.assignment
    edges = []
    for ln in net.lines:
        ra, rb = a[ln.from_bus], a[ln.to_bus]
        if ra != rb:
            edges.append(
                ReducedEdge(min(ra, rb), max(ra, rb), ln.id, abs(ln.flow_mw))
            )
    return ReducedGraph(k=p.k, edges=tuple(edges))


def max_weight_spanning_tree(rg: ReducedGraph) -> tuple[frozenset[int], frozenset[int]]:
    """Split reduced-graph edges into (retained tree, switched rest).

    Kruskal's algorithm: edges are taken heaviest first, ties going to
    the lower line id, and kept when they join two components of the
    cluster labels.  Under that strict order the greedy tree is unique
    and its complement has the minimal total weight over all spanning
    trees.  Raises NetworkValidationError when the clusters are not
    connected.
    """
    comp = list(range(rg.k + 1))
    retained: set[int] = set()
    for e in sorted(rg.edges, key=lambda e: (-e.weight, e.line_id)):
        ca, cb = comp[e.cluster_a], comp[e.cluster_b]
        if ca != cb:
            retained.add(e.line_id)
            comp = [cb if c == ca else c for c in comp]
    if len(retained) != rg.k - 1:
        raise NetworkValidationError("reduced graph is disconnected")
    return frozenset(retained), frozenset(e.line_id for e in rg.edges) - retained


def is_tree_partition(net: Network, p: Partition) -> bool:
    """True iff the reduced graph is a tree: k-1 edges joining all k clusters."""
    rg = reduced_graph(net, p)
    if len(rg.edges) != p.k - 1:
        return False
    try:
        max_weight_spanning_tree(rg)
    except NetworkValidationError:
        return False
    return True


def disruption(net: Network, switched: Iterable[int]) -> float:
    """Total absolute MW flow on the switched-off lines, summed in line-id order."""
    by_id = net.line_by_id
    return float(sum(abs(by_id[lid].flow_mw) for lid in sorted(switched)))


def bridges(net: Network) -> list[int]:
    """Line ids whose removal disconnects the network (lowpoint DFS)."""
    n = net.n
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # iterative DFS: stack of (bus, incoming line id, child iterator)
        stack = [(root, -1, iter(net.incident[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            bus, in_line, it = stack[-1]
            advanced = False
            for lid, other in it:
                if lid == in_line:
                    continue
                if disc[other] == -1:
                    disc[other] = low[other] = timer
                    timer += 1
                    stack.append((other, lid, iter(net.incident[other])))
                    advanced = True
                    break
                low[bus] = min(low[bus], disc[other])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[bus])
                    if low[bus] > disc[parent]:
                        out.append(in_line)
    return sorted(out)


def apply_switching(net: Network, switched: Iterable[int]) -> Network:
    """Copy of the network with the given lines removed.

    Line ids are preserved on the remaining lines.  The result may be
    disconnected; callers decide whether that is acceptable.
    """
    switched = set(switched)
    unknown = switched - set(net.line_by_id)
    if unknown:
        raise NetworkValidationError(f"unknown line ids: {sorted(unknown)}")
    return replace(net, lines=tuple(ln for ln in net.lines if ln.id not in switched))


# ---------------------------------------------------------------------------
# JSON dump (fixed field names)
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_id_list(value, width: Optional[int] = None) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and width in (None, len(row)) and all(map(_is_int, row))
        for row in value
    )


_JSON_SHAPES = {
    "int": (_is_int, "an integer"),
    "id lists": (_is_id_list, "a list of lists of bus ids"),
    "id pairs": (lambda v: _is_id_list(v, 2), "a list of [bus id, bus id] pairs"),
    "number": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "text": (lambda v: isinstance(v, str), "a string"),
}


def json_object(text: str, what: str, shapes: Mapping[str, str]) -> dict:
    """Parse a JSON object whose entries have the named ``shapes``
    (keys of ``_JSON_SHAPES``); CaseParseError otherwise."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseParseError(f"{what} is not valid JSON: {exc.msg}", line_no=exc.lineno)
    missing = [key for key in shapes if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise CaseParseError(f"{what} has no {', '.join(repr(k) for k in missing)} entry")
    for key, shape in shapes.items():
        fits, described = _JSON_SHAPES[shape]
        if not fits(doc[key]):
            raise CaseParseError(f"{what} entry {key!r} must be {described}")
    return doc


def network_to_json(net: Network) -> str:
    doc = {
        "buses": [{"id": b.id, "injection_mw": b.injection_mw} for b in net.buses],
        "lines": [
            {
                "from": net.buses[ln.from_bus].id,
                "to": net.buses[ln.to_bus].id,
                "susceptance": ln.susceptance,
                "flow_mw": ln.flow_mw,
                "capacity_mw": ln.capacity_mw,
            }
            for ln in net.lines
        ],
        "base_mva": net.base_mva,
    }
    return json.dumps(doc, indent=2) + "\n"


def network_from_json(text: str) -> Network:
    doc = json.loads(text)
    index = {b["id"]: i for i, b in enumerate(doc["buses"])}
    buses = tuple(
        Bus(id=b["id"], index=i, injection_mw=b["injection_mw"])
        for i, b in enumerate(doc["buses"])
    )
    lines = tuple(
        Line(
            id=lid,
            from_bus=index[ln["from"]],
            to_bus=index[ln["to"]],
            susceptance=ln["susceptance"],
            flow_mw=ln["flow_mw"],
            capacity_mw=ln.get("capacity_mw"),
        )
        for lid, ln in enumerate(doc["lines"])
    )
    return Network(buses=buses, lines=lines, base_mva=doc["base_mva"])
