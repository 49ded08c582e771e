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
from typing import Container, Iterable, Mapping, Optional

from .errors import CaseParseError, NetworkValidationError

__all__ = [
    "Bus",
    "Line",
    "Network",
    "Partition",
    "ReducedEdge",
    "ReducedGraph",
    "Chain",
    "parse_case",
    "reduced_graph",
    "max_weight_spanning_tree",
    "disruption",
    "bridges",
    "apply_switching",
    "components",
    "is_connected",
    "connected_without",
    "degree2_chains",
    "json_object",
    "network_to_json",
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


# the cached views of a Network that its lines' flows do not change
_TOPOLOGY_VIEWS = frozenset({"incident", "_id_to_index", "_connected"})


@dataclass(frozen=True, eq=True)
class Network:
    """Buses and lines, validated when built.

    ``incident``, the id index and connectivity are computed on first use
    and kept.  They depend on the buses and on each line's ends, not on
    its flow, so ``with_flows`` hands them to the network it derives.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        n = len(self.buses)
        if len({b.id for b in self.buses}) != n:
            raise NetworkValidationError("duplicate bus ids")
        if [b.index for b in self.buses] != list(range(n)):
            raise NetworkValidationError("bus indices must be dense and ordered")
        pairs = set()
        for ln in self.lines:
            a, b = ln.from_bus, ln.to_bus
            if a == b:
                raise NetworkValidationError(f"self-loop on bus index {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise NetworkValidationError(f"line {ln.id} references unknown bus index")
            if ln.susceptance <= 0:
                raise NetworkValidationError(f"line {ln.id} has non-positive susceptance")
            key = (a, b) if a < b else (b, a)
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

    @cached_property
    def _connected(self) -> bool:
        return connected_without(self, ())

    def _reflowed(self, lines: tuple[Line, ...]) -> Network:
        """This network with ``lines``, which are its own lines in order
        with other flows.  The copy skips ``__post_init__``, since its
        topology is the validated one, and shares the cached views flows
        do not change."""
        copy = object.__new__(Network)
        copy.__dict__.update(
            {name: view for name, view in self.__dict__.items() if name in _TOPOLOGY_VIEWS},
            buses=self.buses, lines=lines, base_mva=self.base_mva,
        )
        return copy


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

    def is_tree(self) -> bool:
        """True iff k-1 edges join all k clusters."""
        if len(self.edges) != self.k - 1:
            return False
        try:
            max_weight_spanning_tree(self)
        except NetworkValidationError:
            return False
        return True


# ---------------------------------------------------------------------------
# Case file parsing (MATPOWER subset)
# ---------------------------------------------------------------------------

_COMMENT_RE = re.compile(r"%[^\n]*")
_BASE_RE = re.compile(r"mpc\.baseMVA\s*=\s*([^;]+);")
# a table header; [^\S\n] keeps it within one line of the comment-stripped text
_TABLE_RE = re.compile(r"mpc\.(bus|gen|branch)[^\S\n]*=[^\S\n]*\[")


def _read_tables(text: str) -> list[list[tuple[int, list[float]]]]:
    """Rows of mpc.bus, mpc.gen and mpc.branch as (line_no, values).

    ``text`` is the comment-stripped case, its lines joined by newlines.
    A table starts after the first header naming it and ends at the next
    ``]``; within a line, ``;`` separates rows.  An open table's rows are
    read before it is reported, so a malformed row in it names its line.
    """
    headers: dict[str, re.Match] = {}
    for m in _TABLE_RE.finditer(text):
        headers.setdefault(m.group(1), m)
    tables = []
    for name in ("bus", "gen", "branch"):
        m = headers.get(name)
        if m is None:
            raise CaseParseError(f"table mpc.{name} not found")
        first = text.count("\n", 0, m.start()) + 1
        close = text.find("]", m.end())
        rows: list[tuple[int, list[float]]] = []
        body = text[m.end():close] if close >= 0 else text[m.end():]
        for line_no, line in enumerate(body.split("\n"), start=first):
            for chunk in line.split(";"):
                try:
                    values = list(map(float, chunk.split()))
                except ValueError:
                    raise CaseParseError(f"malformed row in mpc.{name}", line_no=line_no)
                if values:
                    rows.append((line_no, values))
        if close < 0:
            raise CaseParseError(f"table mpc.{name} not terminated", line_no=first)
        tables.append(rows)
    return tables


def _not_finite(column: str, value: float, line_no: int) -> CaseParseError:
    return CaseParseError(f"{column} must be finite, got {value!r}", line_no=line_no)


def _not_bus_id(column: str, value: float, line_no: int) -> CaseParseError:
    return CaseParseError(f"{column} must be an integer bus id, got {value!r}", line_no=line_no)


def _unmodelled(column: str, value: float, needs: str, line_no: int) -> CaseParseError:
    """The refusal of a value the model does not represent; a non-finite
    value is refused as such."""
    if not math.isfinite(value):
        return _not_finite(column, value, line_no)
    return CaseParseError(f"{column} {value:g} is not modelled: {needs}", line_no=line_no)


def parse_case(text: str) -> Network:
    """Parse a MATPOWER-subset case file into a connected Network.

    Reads baseMVA, bus columns (BUS_I, BUS_TYPE, PD), gen columns
    (GEN_BUS, PG, GEN_STATUS) and branch columns (F_BUS, T_BUS, BR_X,
    RATE_A, TAP, SHIFT, BR_STATUS).  The model has no isolated bus, offline
    generator, off-nominal tap or phase shift: a bus of type 4, a
    GEN_STATUS of 0 or less, and an in-service branch with a TAP other than
    0 or 1 or a nonzero SHIFT are each a CaseParseError naming its line and
    column, and so is a BUS_TYPE that MATPOWER does not define (1 to 4).
    Out-of-service branches are dropped and bus ids remapped to dense
    0-based indices.  Parallel branches become one line per
    unordered bus pair, in the order each pair first appears, oriented
    from the lower index: susceptances add, and so do capacities unless a
    branch of the pair is unlimited (RATE_A 0), which leaves it unlimited.  A non-finite value
    in any of these columns is a CaseParseError naming its line and column, and so is a
    negative RATE_A on an in-service branch.
    """
    joined = _COMMENT_RE.sub("", "\n".join(text.splitlines()))
    m = _BASE_RE.search(joined)
    if m is None:
        raise CaseParseError("mpc.baseMVA not found")
    try:
        base_mva = float(m.group(1))
    except ValueError:
        raise CaseParseError(f"bad baseMVA value: {m.group(1)!r}")
    if not math.isfinite(base_mva):
        raise _not_finite("baseMVA", base_mva, joined.count("\n", 0, m.start()) + 1)
    if base_mva <= 0:
        raise CaseParseError(f"baseMVA must be positive, got {base_mva}")

    bus_rows, gen_rows, branch_rows = _read_tables(joined)

    ids: list[int] = []
    load: dict[int, float] = {}
    for line_no, row in bus_rows:
        if len(row) < 3:
            raise CaseParseError("bus row needs at least 3 columns", line_no=line_no)
        if not row[0].is_integer():
            raise _not_bus_id("BUS_I", row[0], line_no)
        bus_id = int(row[0])
        if row[1] == 4 or not math.isfinite(row[1]):
            raise _unmodelled("BUS_TYPE", row[1], "an isolated bus", line_no)
        if row[1] not in (1, 2, 3):
            raise CaseParseError(f"BUS_TYPE {row[1]:g} is not a MATPOWER bus type "
                                 "(1 PQ, 2 PV, 3 reference, 4 isolated)", line_no=line_no)
        if bus_id in load:
            raise NetworkValidationError(f"duplicate bus id {bus_id}")
        if not math.isfinite(row[2]):
            raise _not_finite("PD", row[2], line_no)
        ids.append(bus_id)
        load[bus_id] = row[2]

    index = {bus_id: i for i, bus_id in enumerate(ids)}

    gen: dict[int, float] = {}
    for line_no, row in gen_rows:
        if len(row) < 2:
            raise CaseParseError("gen row needs at least 2 columns", line_no=line_no)
        if not row[0].is_integer():
            raise _not_bus_id("GEN_BUS", row[0], line_no)
        bus_id = int(row[0])
        if bus_id not in index:
            raise CaseParseError(f"gen references unknown bus {bus_id}", line_no=line_no)
        if not math.isfinite(row[1]):
            raise _not_finite("PG", row[1], line_no)
        if len(row) > 7 and not 0 < row[7] < math.inf:
            raise _unmodelled("GEN_STATUS", row[7], "an out-of-service generator", line_no)
        gen[bus_id] = gen.get(bus_id, 0.0) + row[1]

    pairs: dict[tuple[int, int], list] = {}  # [susceptance, capacity, unlimited]
    for line_no, row in branch_rows:
        if len(row) < 11:
            raise CaseParseError("branch row needs at least 11 columns", line_no=line_no)
        if not row[0].is_integer():
            raise _not_bus_id("F_BUS", row[0], line_no)
        if not row[1].is_integer():
            raise _not_bus_id("T_BUS", row[1], line_no)
        f_id, t_id = int(row[0]), int(row[1])
        if f_id not in index or t_id not in index:
            raise CaseParseError(
                f"branch references unknown bus {f_id if f_id not in index else t_id}",
                line_no=line_no,
            )
        if f_id == t_id:
            raise CaseParseError(f"self-loop branch at bus {f_id}", line_no=line_no)
        status, x, rate = row[10], row[3], row[5]
        if not math.isfinite(status):
            raise _not_finite("BR_STATUS", status, line_no)
        if status == 0:
            continue
        if not math.isfinite(x):
            raise _not_finite("BR_X", x, line_no)
        if x <= 0:
            raise CaseParseError(f"branch reactance must be positive, got {x}", line_no=line_no)
        if not math.isfinite(rate):
            raise _not_finite("RATE_A", rate, line_no)
        if rate < 0:
            raise CaseParseError(f"RATE_A {rate:g} is negative: only 0 means unlimited",
                                 line_no=line_no)
        if row[8] not in (0, 1):
            raise _unmodelled("TAP", row[8], "an off-nominal transformer ratio", line_no)
        if row[9] != 0:
            raise _unmodelled("SHIFT", row[9], "a phase-shifting transformer", line_no)
        a, b = index[f_id], index[t_id]
        pair = pairs.setdefault((a, b) if a < b else (b, a), [0.0, 0.0, False])
        pair[0] += 1.0 / x
        if rate > 0:
            pair[1] += rate
        else:
            pair[2] = True

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
    lines = tuple(
        Line(lid, a, b, sus, capacity_mw=None if unlimited else cap)
        for lid, ((a, b), (sus, cap, unlimited)) in enumerate(pairs.items())
    )
    net = Network(buses=buses, lines=lines, base_mva=base_mva)
    if not is_connected(net):
        raise NetworkValidationError("network is not connected")
    return net


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
    return net._connected


def connected_without(net: Network, switched: Container[int]) -> bool:
    """Whether the lines outside ``switched`` join every bus: the
    connectivity of ``apply_switching(net, switched)``, without the copy."""
    if not net.n:
        return False
    seen = [False] * net.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for lid, other in net.incident[stack.pop()]:
            if not seen[other] and lid not in switched:
                seen[other] = True
                reached += 1
                stack.append(other)
    return reached == net.n


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
