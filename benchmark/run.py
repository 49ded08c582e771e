#!/usr/bin/env python3
"""gridtree benchmark: a closed loop over (case, k, method, backend) cells.

One process solves one cell at a time, with at most one solver child
alive.  Each cell makes the library calls that ``gridtree solve`` makes,
from case text to a validated solution, and its objective is checked
against the reference optimum stored in ``benchmark/workloads.json``.

    python3 benchmark/run.py --workload desk-builtin --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; their times are scaled to
a reference machine speed measured while they run (see SlowdownMeter).
``--trace 1`` runs one untraced and one traced sweep, reports the
per-layer metrics in wall seconds, and writes every span to
``.bench_out/``.  The last line of standard output is one JSON object.
Run from the root of a source checkout: the benchmark imports
``gridtree`` from ``src/`` and reads ``cases/``.  Its self-tests run
with ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CASES = ROOT / "cases"
OUT = ROOT / ".bench_out"
SPEC_PATH = Path(__file__).with_name("workloads.json")

SETUP_SAMPLES = 5  # one in-process, the rest in fresh interpreters
STARTUP_CALLS = 10
PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.2
PROBE_REFERENCE_S = 0.003  # PROBE_LOOPS on an unloaded 2-CPU x86-64 VM, Python 3.11


# ---------------------------------------------------------------------------
# cells and their checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    case: str
    k: int
    method: str  # "milp" | "ssr" | "two-stage"
    backend: Optional[str]  # "builtin" | "bridge" | None for two-stage
    reference_mw: float

    @property
    def id(self) -> str:
        return f"{self.case}/k{self.k}/{self.method}/{self.backend or '-'}"

    @property
    def exact(self) -> bool:
        return self.method == "milp"


@dataclass
class Outcome:
    cell: Cell
    objective_mw: Optional[float]  # None when no validated solution came back
    total_flow_mw: float  # sum of |flow| over every line of the case
    error: Optional[str] = None  # exception class name
    detail: str = ""
    wall_s: float = 0.0

    @property
    def solved(self) -> bool:
        return self.objective_mw is not None and self.error is None


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_cells(spec: dict, workload: str, seed: int) -> list[Cell]:
    """The workload's cells; seed 0 keeps the listed order, others shuffle it."""
    cells = [
        Cell(c["case"], c["k"], c["method"], c.get("backend"), c["reference_mw"])
        for c in spec["workloads"][workload]["cells"]
    ]
    if seed:
        random.Random(seed).shuffle(cells)
    return cells


def check_outcome(out: Outcome, tol: dict) -> None:
    """Turn a wrong answer into an error on the outcome.

    Exact cells must match the reference within the tolerance; heuristic
    cells (two-stage, SSR) must not beat it.
    """
    if out.objective_mw is None:
        return
    ref = out.cell.reference_mw
    slack = tol["rel"] * abs(ref) + tol["abs"]
    if out.cell.exact and abs(out.objective_mw - ref) > slack:
        out.error, out.detail = "ReferenceMismatch", f"{out.objective_mw!r} != {ref!r}"
    elif not out.cell.exact and out.objective_mw < ref - slack:
        out.error, out.detail = "BeatsReference", f"{out.objective_mw!r} < {ref!r}"


def expected_failure(out: Outcome) -> bool:
    """A heuristic that gives up is a quality outcome, not a broken program."""
    return out.cell.method == "two-stage" and out.error == "InfeasibleError"


def heuristic_ratio(outcomes: list[Outcome]) -> float:
    """Geometric mean of objective/reference over heuristic cells.

    A failed cell is charged the case's total |flow|, which no valid
    answer can exceed, so turning a failure into any valid answer never
    reads as a regression.  The geometric mean keeps such a charge, tens
    of times the optimum, from drowning the other cells' changes.
    """
    ratios = [
        (o.objective_mw if o.solved else o.total_flow_mw) / o.cell.reference_mw
        for o in outcomes
        if not o.cell.exact
    ]
    return statistics.geometric_mean(ratios)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans: [name, start, end, parent index, cell id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cell: Optional[str] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.cell]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def self_times(self) -> Counter:
        """Span duration minus the part its direct children cover, by span name."""
        own = Counter()
        for name, start, end, _parent, _cell in self.spans:
            own[name] += end - start
        for _name, start, end, parent, _cell in self.spans:
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own


class NullTracer:
    """Counts, but records no spans."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.cell: Optional[str] = None

    def span(self, _name):
        return nullcontext()


@contextmanager
def patched(tracer: Tracer, gt):
    """Time the library's internal calls by wrapping module attributes.

    ``solve_via_bridge`` looks up ``build_model``, ``run_bridge`` and
    ``decode_values`` in ``gridtree.milp`` at call time, and
    ``export_lp`` looks up ``write_lp`` there, so replacing those
    attributes times each call from the benchmark's side without
    touching the package.
    """
    def model_size(model):
        binaries = [v for v in model.variables if v.kind == "binary"]
        tracer.counts["milp.vars"] += len(model.variables)
        tracer.counts["milp.binaries"] += len(binaries)
        tracer.counts["milp.rows"] += len(model.constraints)
        tracer.counts["milp.fixed_binaries"] += sum(
            1 for v in binaries if v.lb is not None and v.lb == v.ub
        )

    def lp_size(text):
        tracer.counts["milp.lp_bytes"] += len(text.encode())

    targets = [
        (gt.milp, "build_model", "milp.build_model", model_size),
        (gt.milp, "write_lp", "milp.write_lp", lp_size),
        (gt.milp, "run_bridge", "milp.run_bridge", None),
        (gt.milp, "decode_values", "solution.decode_values", None),
        (gt.milp, "validate_solution", "solution.validate_solution", None),
        (gt.bnb, "validate_solution", "solution.validate_solution", None),
        (gt.twostage, "validate_solution", "solution.validate_solution", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    for mod, attr, name, hook in targets:
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), hook))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def bridge_for(gt, time_limit_s: float):
    """The bundled HiGHS bridge, run by this interpreter on the checkout's code."""
    command = (
        f"{shlex.quote(sys.executable)} -m gridtree.milpsolve {{model}} {{solution}} "
        "--time-limit {timeout}"
    )
    return gt.milp.SolverBridge(command=command, timeout_s=time_limit_s)


def solve_cell(gt, cell: Cell, text: str, bridge, tracer) -> Outcome:
    span = tracer.span
    total_flow = 0.0
    try:
        with span("network.parse_case"):
            net = gt.parse_case(text)
        with span("dcflow.solve"):
            flows = gt.solve_dc(net, 0, gt.balanced_injections(net))
            net = gt.with_flows(net, flows)
        total_flow = sum(abs(ln.flow_mw) for ln in net.lines)
        with span("coherency.slow_coherency"):
            groups = gt.slow_coherency(net, cell.k)
        if cell.method == "two-stage":
            with span("twostage.two_stage"):
                sol = gt.two_stage(net, groups)
        else:
            fixings = None
            tag = gt.solution.METHOD_MILP
            if cell.method == "ssr":
                with span("steiner.steiner_tree"):
                    trees = [gt.steiner_tree(net, g) for g in groups.groups]
                with span("steiner.build_fixings"):
                    fixings = gt.build_fixings(net, trees)
                tracer.counts["steiner.fixed_buses"] += len(fixings.bus_fix)
                tracer.counts["steiner.buses"] += net.n
                tracer.counts["steiner.fixed_lines"] += len(fixings.edge_fix)
                tag = gt.solution.METHOD_SSR
            if cell.backend == "bridge":
                with span("milp.solve_via_bridge"):
                    sol = gt.solve_via_bridge(net, groups, bridge, ssr=fixings, method=tag)
            else:
                with span("bnb.solve_builtin"):
                    sol, stats = gt.solve_builtin(net, groups, ssr=fixings, method=tag)
                tracer.counts["bnb.nodes"] += stats.nodes
        with span("solution.validate_solution"):
            gt.validate_solution(net, sol, groups)
    except gt.GridTreeError as exc:
        return Outcome(cell, None, total_flow, type(exc).__name__, str(exc)[:200])
    return Outcome(cell, sol.disruption_mw, total_flow)


@dataclass
class Sweep:
    outcomes: list[Outcome]
    wall_s: float  # without the slowdown probes
    norm_s: float  # at the reference machine's speed; see SlowdownMeter


def slowdown_probe() -> float:
    """Time of a fixed pure-Python loop over its time on the reference machine."""
    start = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    for i in range(PROBE_LOOPS):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023]
    return (time.perf_counter() - start) / PROBE_REFERENCE_S


class SlowdownMeter:
    """Wall time of a block, and the same time at the reference machine's speed.

    The benchmark shares its CPUs with other tenants, whose load moves
    every timing by tens of percent within seconds.  A SIGALRM handler
    probes the speed every PROBE_INTERVAL_S; the normalised time is the
    wall time times the mean sampled speed, so it sums each interval at
    the speed it ran.  The probes' own time is left out of both.  The
    probe runs in this process, so it follows a solver child's speed
    only loosely.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.probe_s = 0.0
        self.wall_s = self.norm_s = 0.0

    def _tick(self, _signum=None, _frame=None):
        start = time.perf_counter()
        self.speeds.append(1.0 / slowdown_probe())
        self.probe_s += time.perf_counter() - start

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start, self._probe_start = time.perf_counter(), self.probe_s
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start - (self.probe_s - self._probe_start)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self.norm_s = self.wall_s * statistics.fmean(self.speeds)


def sweep(gt, cells, texts, bridge, tol, tracer) -> Sweep:
    """Solve every cell once."""
    outcomes = []
    with SlowdownMeter() as meter:
        for cell in cells:
            tracer.cell = cell.id
            start = time.perf_counter()
            with tracer.span("cell"):
                out = solve_cell(gt, cell, texts[cell.case], bridge, tracer)
                check_outcome(out, tol)
            out.wall_s = time.perf_counter() - start
            outcomes.append(out)
    tracer.cell = None
    return Sweep(outcomes, meter.wall_s, meter.norm_s)


def startup_probe(gt, bridge) -> float:
    """Median wall time of the bridge on a one-variable LP."""
    model = gt.milp.MilpModel("startup")
    model.add_variable("x", "continuous", 0.0, 1.0)
    model.add_constraint("c", ((1.0, "x"),), ">=", 0.0)
    model.set_objective(((1.0, "x"),))
    times = []
    for _ in range(STARTUP_CALLS):
        start = time.perf_counter()
        gt.milp.run_bridge(model, bridge)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(case_names):
    """Import gridtree and read the case texts.

    Returns (module, texts, (wall seconds, slowdown-normalised seconds)).
    """
    with SlowdownMeter() as meter:
        sys.path.insert(0, str(SRC))
        import gridtree
        texts = {name: (CASES / f"{name}.m").read_text() for name in case_names}
    return gridtree, texts, (meter.wall_s, meter.norm_s)


def setup_in_fresh_interpreter(workload: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, norm = proc.stdout.split()[-2:]
    return float(wall), float(norm)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def print_cells(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        obj = "-" if o.objective_mw is None else f"{o.objective_mw:.4f}"
        status = o.error or "ok"
        print(f"  {o.cell.id:28s} {o.wall_s:7.3f}s  obj {obj:>11s}  "
              f"ref {o.cell.reference_mw:.4f}  {status} {o.detail}")


def summarize(outcomes: list[Outcome]) -> tuple[bool, int, int]:
    correct = all(o.solved or expected_failure(o) for o in outcomes)
    failed = sum(1 for o in outcomes if not o.solved)
    return correct, len(outcomes), failed


def end_to_end(sweeps: list[Sweep], setup_samples) -> dict:
    outcomes = [o for sw in sweeps for o in sw.outcomes]
    _correct, attempted, failed = summarize(outcomes)
    ratio = heuristic_ratio(outcomes)
    print(f"fail_frac {failed}/{attempted}; heuristic_excess_pct {100.0 * (ratio - 1.0):.4f} %")
    return {
        "sweep_s": metric(statistics.median(sw.norm_s for sw in sweeps), "s"),
        "setup_s": metric(statistics.median(norm for _wall, norm in setup_samples), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "solved_frac": metric((attempted - failed) / attempted, "ratio"),
        "heuristic_ratio": metric(ratio, "ratio"),
    }


def per_layer(tracer: Tracer, traced: Sweep, untraced: Sweep, startup_s) -> dict:
    own = tracer.self_times()
    counts = tracer.counts

    def layer(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix + "."))

    bridge_spans = [end - start for name, start, end, *_ in tracer.spans if name == "milp.run_bridge"]
    bridge_calls, bridge_s = len(bridge_spans), sum(bridge_spans)
    write_lp_s = own["milp.write_lp"]
    bnb_s = layer("bnb")
    return {
        "milpsolve.startup_s": metric(startup_s, "s"),
        "milp.bridge_calls": metric(bridge_calls, "count"),
        "milp.bridge_s": metric(bridge_s, "s"),
        # derived: bridge wall minus LP text and per-call interpreter start-up
        "milpsolve.work_s": metric(
            bridge_s - write_lp_s - startup_s * bridge_calls, "s"
        ),
        "steiner.tree_s": metric(own["steiner.steiner_tree"], "s"),
        "steiner.fixings_s": metric(own["steiner.build_fixings"], "s"),
        "steiner.fixed_bus_share": metric(
            counts["steiner.fixed_buses"] / counts["steiner.buses"]
            if counts["steiner.buses"] else 0.0, "ratio"
        ),
        "steiner.fixed_lines": metric(counts["steiner.fixed_lines"], "count"),
        "bnb.solve_s": metric(bnb_s, "s"),
        "bnb.nodes": metric(counts["bnb.nodes"], "count"),
        "bnb.nodes_per_s": metric(counts["bnb.nodes"] / bnb_s if bnb_s else 0.0, "1/s"),
        "milp.build_s": metric(own["milp.build_model"], "s"),
        "milp.vars": metric(counts["milp.vars"], "count"),
        "milp.binaries": metric(counts["milp.binaries"], "count"),
        "milp.rows": metric(counts["milp.rows"], "count"),
        "milp.fixed_binaries": metric(counts["milp.fixed_binaries"], "count"),
        "milp.write_lp_s": metric(write_lp_s, "s"),
        "milp.lp_bytes": metric(counts["milp.lp_bytes"], "bytes"),
        "twostage.two_stage_s": metric(layer("twostage"), "s"),
        "twostage.fail_count": metric(
            sum(1 for o in traced.outcomes if o.cell.method == "two-stage" and not o.solved),
            "count",
        ),
        "network.parse_s": metric(layer("network"), "s"),
        "dcflow.solve_s": metric(layer("dcflow"), "s"),
        "coherency.slow_coherency_s": metric(layer("coherency"), "s"),
        "solution.decode_s": metric(layer("solution"), "s"),
        "trace.overhead_pct": metric(100.0 * (traced.norm_s - untraced.norm_s) / untraced.norm_s, "%"),
    }


def write_spans(tracer: Tracer, path: Path, notes: dict) -> None:
    own = tracer.self_times()
    doc = {
        "notes": notes,
        "self_s": {name: own[name] for name in sorted(own)},
        "counts": dict(sorted(tracer.counts.items())),
        "spans": [
            {"name": n, "start": s, "end": e, "parent": p, "cell": c}
            for n, s, e, p, c in tracer.spans
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridtree").is_dir() or not CASES.is_dir():
        sys.stderr.write(f"error: {ROOT} has no src/gridtree or cases/; run from a source checkout\n")
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    cells = workload_cells(spec, args.workload, args.seed)
    case_names = sorted({c.case for c in cells})

    if args.setup_probe:
        print(*setup(case_names)[2])
        return 0

    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    # keep the bridge's model and solution files inside the checkout
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # the solver child imports gridtree from this checkout, not an installed copy
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )

    gt, texts, first_setup = setup(case_names)
    tol = spec["tolerance"]
    bridge = bridge_for(gt, spec["bridge"]["time_limit_s"])

    if args.trace:
        untraced = sweep(gt, cells, texts, bridge, tol, NullTracer())
        tracer = Tracer()
        with patched(tracer, gt):
            traced = sweep(gt, cells, texts, bridge, tol, tracer)
        startup_s = startup_probe(gt, bridge)
        print_cells(traced.outcomes)
        metrics = per_layer(tracer, traced, untraced, startup_s)
        outcomes = untraced.outcomes + traced.outcomes
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(tracer, spans_path, {
            "workload": args.workload,
            "seed": args.seed,
            "write_lp_timing": "wrapped gridtree.milp.write_lp, which export_lp calls "
                               "inside run_bridge; the span excludes the file write",
            "milpsolve.work_s": "derived: milp.bridge_s - milp.write_lp_s - "
                                "milpsolve.startup_s * milp.bridge_calls",
            "probes": "the slowdown probes (SIGALRM, about 1.5 % of the time) "
                      "fall inside whichever span is open, so self times include them",
            "untraced_sweep_s": untraced.wall_s,
            "traced_sweep_s": traced.wall_s,
        })
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        setup_samples = [first_setup] + [
            setup_in_fresh_interpreter(args.workload) for _ in range(SETUP_SAMPLES - 1)
        ]
        sweeps = []
        started = time.perf_counter()
        while True:
            sweeps.append(sweep(gt, cells, texts, bridge, tol, NullTracer()))
            # another sweep only if it is expected to finish within --seconds
            last = time.perf_counter() - started
            if last + last / len(sweeps) > args.seconds:
                break
        print_cells(sweeps[0].outcomes)
        print(f"{len(sweeps)} sweep(s) of {len(cells)} cells, wall/normalised: "
              + " ".join(f"{sw.wall_s:.3f}/{sw.norm_s:.3f}s" for sw in sweeps)
              + "; set-up samples: " + " ".join(f"{w:.3f}/{n:.3f}s" for w, n in setup_samples))
        metrics = end_to_end(sweeps, setup_samples)
        outcomes = [o for sw in sweeps for o in sw.outcomes]

    correct, attempted, failed = summarize(outcomes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
