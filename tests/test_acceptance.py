"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Budgeted criteria assert their own wall-clock limits.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from gridtree import bnb, coherency, dcflow, milp, oracle, render, steiner, twostage
from gridtree.cli import main as cli_main
from gridtree.coherency import CoherencyGroups
from gridtree.errors import BudgetError, GridTreeError, InfeasibleError
from gridtree.milp import SolverBridge, build_model, solve_via_bridge
from gridtree.network import degree2_chains, parse_case
from gridtree.solution import validate_solution
from gridtree.twostage import max_weight_spanning_tree

from conftest import BRIDGE_CMD, CASES_DIR, build_net, flow_consistent_net, random_connected_net, random_groups
from test_localization import random_tree_partition
from test_steiner import brute_force_min_edges
from test_twostage import _rg, brute_force_min_switched_weight


def _case_net(name):
    net = parse_case((CASES_DIR / f"{name}.m").read_text())
    flows = dcflow.solve_dc(net, 0, dcflow.balanced_injections(net))
    return dcflow.with_flows(net, flows)


# ---------------------------------------------------------------------------
# 1. Oracle equivalence of the built-in exact solver
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    """200 random instances: built-in B&B equals exhaustive enumeration."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240101)
    solved = infeasible = 0
    for _ in range(200):
        n = int(rng.integers(5, 11))
        extra = int(rng.integers(0, min(6, 15 - (n - 1)) + 1))
        net = random_connected_net(rng, n, extra)
        k = int(rng.integers(2, 4))
        groups = random_groups(rng, net, k, max_size=2)
        try:
            want = oracle.enumerate_optimal(net, groups)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                bnb.solve_builtin(net, groups)
            infeasible += 1
            continue
        got, stats = bnb.solve_builtin(net, groups)
        assert stats.proved_optimal
        assert got.disruption_mw == want.disruption_mw, "objective mismatch"
        assert got.partition.assignment == want.partition.assignment, "tie-break mismatch"
        assert got.switched == want.switched
        solved += 1
    elapsed = time.perf_counter() - start
    assert solved >= 150
    assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 1] PASS oracle equivalence on {solved} solved + "
          f"{infeasible} infeasible instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Formulation soundness: decoded feasible set == valid tree partitions
# ---------------------------------------------------------------------------

def _q_system_feasible(model, fixed_values):
    qvars = sorted(
        {v for con in model.constraints for _, v in con.terms if v.startswith("q_")}
    )
    idx = {v: i for i, v in enumerate(qvars)}
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for con in model.constraints:
        qterms = [(c, v) for c, v in con.terms if v.startswith("q_")]
        if not qterms:
            continue
        shift = sum(c * fixed_values[v] for c, v in con.terms if not v.startswith("q_"))
        row = [0.0] * len(qvars)
        for c, v in qterms:
            row[idx[v]] += c
        rhs = con.rhs - shift
        if con.sense == "=":
            a_eq.append(row)
            b_eq.append(rhs)
        elif con.sense == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        else:
            a_ub.append([-x for x in row])
            b_ub.append(-rhs)
    bounds = [model.variable(v).effective_bounds() for v in qvars]
    res = linprog(
        c=np.zeros(len(qvars)),
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=bounds,
        method="highs",
    )
    return res.status == 0


def _combinatorial_ok(model, values, tol=1e-9):
    for con in model.constraints:
        if any(v.startswith("q_") for _, v in con.terms):
            continue
        lhs = sum(c * values[v] for c, v in con.terms)
        if con.sense == "<=" and lhs > con.rhs + tol:
            return False
        if con.sense == ">=" and lhs < con.rhs - tol:
            return False
        if con.sense == "=" and abs(lhs - con.rhs) > tol:
            return False
    return True


def _definition_valid(net, assignment, switched, k):
    active = [ln for ln in net.lines if ln.id not in switched]
    active_cross = [
        ln for ln in active if assignment[ln.from_bus] != assignment[ln.to_bus]
    ]
    if len(active_cross) != k - 1:
        return False
    if len(set(assignment)) != k:
        return False
    seen = {0}
    stack = [0]
    adj = {}
    for ln in active:
        adj.setdefault(ln.from_bus, []).append(ln.to_bus)
        adj.setdefault(ln.to_bus, []).append(ln.from_bus)
    while stack:
        b = stack.pop()
        for o in adj.get(b, []):
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return len(seen) == net.n


def test_criterion_2_formulation_soundness():
    """All assignments x all switch sets on n<=7: model feasibility matches
    the combinatorial definition in both directions."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240202)
    suite = []
    for n, k in [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3)]:
        net = random_connected_net(rng, n, int(rng.integers(1, 4)))
        groups = random_groups(rng, net, k, max_size=1)
        suite.append((net, groups))
    checked = agreements = 0
    for net, groups in suite:
        model = build_model(net, groups)
        k = groups.k
        fixed = {b: r for r, g in enumerate(groups.groups, 1) for b in g}
        free = [i for i in range(net.n) if i not in fixed]
        for combo in itertools.product(range(1, k + 1), repeat=len(free)):
            assignment = [0] * net.n
            for b, r in fixed.items():
                assignment[b] = r
            for b, r in zip(free, combo):
                assignment[b] = r
            cross = [
                ln.id
                for ln in net.lines
                if assignment[ln.from_bus] != assignment[ln.to_bus]
            ]
            if len(cross) < k - 1:
                continue
            for keep in itertools.combinations(cross, k - 1):
                switched = frozenset(set(cross) - set(keep))
                values = {}
                for i in range(net.n):
                    for r in range(1, k + 1):
                        values[f"x_{i}_{r}"] = 1.0 if assignment[i] == r else 0.0
                for ln in net.lines:
                    internal = assignment[ln.from_bus] == assignment[ln.to_bus]
                    for r in range(1, k + 1):
                        values[f"y_{ln.from_bus}_{ln.to_bus}_{r}"] = (
                            1.0 if internal and assignment[ln.from_bus] == r else 0.0
                        )
                    active = ln.id not in switched
                    values[f"z_{ln.from_bus}_{ln.to_bus}"] = 1.0 if active else 0.0
                    values[f"w_{ln.from_bus}_{ln.to_bus}"] = (
                        1.0 if active and not internal else 0.0
                    )
                milp_ok = _combinatorial_ok(model, values) and _q_system_feasible(
                    model, values
                )
                def_ok = _definition_valid(net, assignment, switched, k)
                assert milp_ok == def_ok, (
                    f"feasibility mismatch: milp={milp_ok} definition={def_ok} "
                    f"assignment={assignment} switched={sorted(switched)}"
                )
                checked += 1
                agreements += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 2] PASS feasible sets agree on {checked} candidate "
          f"solutions across {len(suite)} instances in {elapsed:.1f}s")


def _candidate_values(net, assignment, switched, k):
    """x, y, z and w of one (assignment, switched set) candidate."""
    values = {}
    for i in range(net.n):
        for r in range(1, k + 1):
            values[f"x_{i}_{r}"] = 1.0 if assignment[i] == r else 0.0
    for ln in net.lines:
        internal = assignment[ln.from_bus] == assignment[ln.to_bus]
        for r in range(1, k + 1):
            values[f"y_{ln.from_bus}_{ln.to_bus}_{r}"] = (
                1.0 if internal and assignment[ln.from_bus] == r else 0.0
            )
        active = ln.id not in switched
        values[f"z_{ln.from_bus}_{ln.to_bus}"] = 1.0 if active else 0.0
        values[f"w_{ln.from_bus}_{ln.to_bus}"] = 1.0 if active and not internal else 0.0
    return values


def test_criterion_2_chain_rows_cut_chains_only_at_their_lightest_line():
    """Criterion 2's n<=7 suite with the bridge's chain rows added: the
    model is feasible exactly when the definition holds and every cut
    degree-2 chain is cut at its lightest line (ties to the lower id)."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240202)
    suite = []
    for n, k in [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3)]:
        net = random_connected_net(rng, n, int(rng.integers(1, 4)))
        groups = random_groups(rng, net, k, max_size=1)
        suite.append((net, groups))
    checked = cut_elsewhere = rows = 0
    for net, groups in suite:
        model = build_model(net, groups)
        milp.add_chain_rows(model, net, groups)
        rows += len(model.constraints) - len(build_model(net, groups).constraints)
        k = groups.k
        fixed = {b: r for r, g in enumerate(groups.groups, 1) for b in g}
        held = [
            net.line_by_id[lid]
            for c in degree2_chains(net, fixed)
            for lid in c.lines
            if lid != min(c.lines, key=lambda i: (abs(net.line_by_id[i].flow_mw), i))
        ]
        free = [i for i in range(net.n) if i not in fixed]
        for combo in itertools.product(range(1, k + 1), repeat=len(free)):
            assignment = [0] * net.n
            for b, r in fixed.items():
                assignment[b] = r
            for b, r in zip(free, combo):
                assignment[b] = r
            at_lightest = all(assignment[ln.from_bus] == assignment[ln.to_bus] for ln in held)
            cross = [
                ln.id
                for ln in net.lines
                if assignment[ln.from_bus] != assignment[ln.to_bus]
            ]
            for keep in itertools.combinations(cross, k - 1):
                switched = frozenset(set(cross) - set(keep))
                values = _candidate_values(net, assignment, switched, k)
                milp_ok = _combinatorial_ok(model, values) and _q_system_feasible(
                    model, values
                )
                def_ok = _definition_valid(net, assignment, switched, k)
                assert milp_ok == (def_ok and at_lightest), (
                    f"feasibility mismatch: milp={milp_ok} definition={def_ok} "
                    f"at_lightest={at_lightest} assignment={assignment} "
                    f"switched={sorted(switched)}"
                )
                checked += 1
                cut_elsewhere += def_ok and not at_lightest
    # the rows must cut off some partitions the definition admits
    assert rows > 0 and cut_elsewhere > 0, (rows, cut_elsewhere)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion budget exceeded: {elapsed:.1f}s"
    print(f"[criterion 2, chain rows] PASS feasible sets agree on {checked} candidate "
          f"solutions ({rows} chain rows, {cut_elsewhere} valid partitions cut off) "
          f"across {len(suite)} instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Stage-2 closed form vs spanning-tree brute force
# ---------------------------------------------------------------------------

def test_criterion_3_stage2_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(20240303)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        n_edges = int(rng.integers(k - 1, 9))
        triples = [(r - 1, r, float(rng.uniform(0.1, 10))) for r in range(2, k + 1)]
        for _e in range(n_edges - (k - 1)):
            a, b = rng.integers(1, k + 1, size=2).tolist()
            if a != b:
                triples.append((int(a), int(b), float(rng.uniform(0.1, 10))))
        rg = _rg(k, triples)
        retained, switched = max_weight_spanning_tree(rg)
        by_id = {e.line_id: e.weight for e in rg.edges}
        got = sum(by_id[lid] for lid in switched)
        assert got == pytest.approx(brute_force_min_switched_weight(rg), abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[criterion 3] PASS 100 reduced multigraphs match spanning-tree "
          f"brute force in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Dominance: heuristic >= exact, restricted >= exact
# ---------------------------------------------------------------------------

def test_criterion_4_dominance_inequalities():
    rng = np.random.default_rng(20240404)
    two_stage_checked = ssr_checked = 0
    for _ in range(40):
        n = int(rng.integers(6, 11))
        net = random_connected_net(rng, n, int(rng.integers(2, 6)))
        k = int(rng.integers(2, 4))
        groups = random_groups(rng, net, k, max_size=2)
        try:
            exact, _ = bnb.solve_builtin(net, groups)
        except InfeasibleError:
            continue
        try:
            heur = twostage.two_stage(net, groups)
            assert heur.disruption_mw >= exact.disruption_mw - 1e-6
            two_stage_checked += 1
        except (InfeasibleError, GridTreeError):
            pass
        trees = [steiner.steiner_tree(net, sorted(g)) for g in groups.groups]
        fixings = steiner.build_fixings(net, trees)
        try:
            restricted, _ = bnb.solve_builtin(net, groups, ssr=fixings)
        except InfeasibleError:
            continue
        assert restricted.disruption_mw >= exact.disruption_mw - 1e-6
        ssr_checked += 1
    assert two_stage_checked >= 15 and ssr_checked >= 25
    print(f"[criterion 4] PASS dominance held on {two_stage_checked} two-stage "
          f"and {ssr_checked} restricted comparisons")


# ---------------------------------------------------------------------------
# 5. Localization property on random tree partitions
# ---------------------------------------------------------------------------

def test_criterion_5_localization():
    rng = np.random.default_rng(20240505)
    partitions = removals = 0
    while partitions < 50:
        n = int(rng.integers(8, 21))
        net, _ = flow_consistent_net(rng, n, int(rng.integers(3, 8)))
        k = int(rng.integers(2, 4))
        sol = random_tree_partition(rng, net, k)
        if sol is None:
            continue
        partitions += 1
        assign = sol.partition.assignment
        for ln in net.lines:
            if ln.id in sol.switched:
                continue
            if assign[ln.from_bus] != assign[ln.to_bus]:
                continue
            report = dcflow.check_localization(net, sol, ln.id, tol=1e-6)
            if report.outcome == "islanding":
                continue
            assert report.outcome == "pass", (
                f"flow leaked outside cluster: {report.max_outside_delta_mw} MW"
            )
            removals += 1
    assert removals >= 200
    print(f"[criterion 5] PASS {removals} internal-line outages across "
          f"{partitions} tree partitions stayed below 1e-6 MW outside")


# ---------------------------------------------------------------------------
# 6. Steiner exactness and conflict-free fixings
# ---------------------------------------------------------------------------

def test_criterion_6_steiner_exactness_and_fixings():
    start = time.perf_counter()
    rng = np.random.default_rng(20240606)
    for _ in range(30):
        n = int(rng.integers(5, 13))
        net = random_connected_net(rng, n, int(rng.integers(0, n)))
        t = int(rng.integers(2, min(6, n) + 1))
        terminals = sorted(rng.choice(n, size=t, replace=False).tolist())
        tree = steiner.steiner_tree(net, terminals)
        assert len(tree.edges) == brute_force_min_edges(net, set(terminals))

    conflicts = 0
    for _ in range(500):
        n = int(rng.integers(8, 16))
        net = random_connected_net(rng, n, int(rng.integers(2, n)))
        k = int(rng.integers(2, 4))
        picks = rng.permutation(n)[: 2 * k].tolist()
        trees = [
            steiner.steiner_tree(net, picks[2 * r: 2 * r + 2]) for r in range(k)
        ]
        fixings = steiner.build_fixings(net, trees)  # raises on conflict
        for lid, r in fixings.edge_fix.items():
            ln = net.line_by_id[lid]
            if fixings.bus_fix.get(ln.from_bus) != r or fixings.bus_fix.get(ln.to_bus) != r:
                conflicts += 1
    assert conflicts == 0
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] PASS exact Steiner on 30 graphs + 500 conflict-free "
          f"fixing trials in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Benchmark structure across methods and case sizes
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_benchmark_structure():
    """Objective values depend on the grouping and dispatch inputs, so the
    harness asserts the relations that must hold for any consistent inputs:
    exact <= heuristic, restricted >= exact, and the reduction winning the
    runtime race on the largest cases."""
    cells = []  # (case, k, milp, milp_proved, milp_rt, ssr, ssr_rt, two_stage)
    plan = [
        ("net057", (2, 3, 5), 60.0),
        ("net118", (2, 3, 5), 90.0),
        ("net240", (5,), 300.0),
        ("net300", (5,), 60.0),
    ]
    for name, ks, limit in plan:
        net = _case_net(name)
        for k in ks:
            groups = coherency.slow_coherency(net, k)
            bridge = SolverBridge(
                command=f"{BRIDGE_CMD} --time-limit {limit}", timeout_s=limit + 60
            )
            t0 = time.perf_counter()
            try:
                msol = solve_via_bridge(net, groups, bridge)
                milp_rt = time.perf_counter() - t0
                milp_obj, proved = msol.disruption_mw, True
            except BudgetError:
                milp_rt = time.perf_counter() - t0
                milp_obj, proved = None, False
            t0 = time.perf_counter()
            trees = [steiner.steiner_tree(net, sorted(g)) for g in groups.groups]
            fixings = steiner.build_fixings(net, trees)
            ssol = solve_via_bridge(net, groups, bridge, ssr=fixings, method="SSR")
            ssr_rt = time.perf_counter() - t0
            try:
                tsol = twostage.two_stage(net, groups)
                ts_obj = tsol.disruption_mw
            except GridTreeError:
                ts_obj = None
            cells.append((name, k, milp_obj, proved, milp_rt, ssol.disruption_mw, ssr_rt, ts_obj))

    lines = ["case k MILP(MW) SSR(MW) 2ST(MW) t_milp t_ssr"]
    for name, k, mobj, proved, mrt, sobj, srt, tobj in cells:
        mtxt = f"{mobj:.2f}" if proved else f">limit"
        ttxt = f"{tobj:.2f}" if tobj is not None else "infeasible"
        lines.append(f"{name} {k} {mtxt} {sobj:.2f} {ttxt} {mrt:.1f}s {srt:.1f}s")

    # structure: the exact optimum never exceeds the heuristic or the
    # restricted solve, and the reduction wins the runtime race at scale
    zero_increase = []
    for name, k, mobj, proved, mrt, sobj, srt, tobj in cells:
        if proved and tobj is not None:
            assert mobj <= tobj + 1e-6, f"{name} k={k}: exact above two-stage"
        if proved:
            assert sobj >= mobj - 1e-6, f"{name} k={k}: restriction beat the optimum"
            if abs(sobj - mobj) <= 1e-6:
                zero_increase.append((name, k))
    big = [c for c in cells if c[0] in ("net240", "net300")]
    assert big, "no >=240-bus cells ran"
    for name, k, _mobj, _proved, mrt, _sobj, srt, _tobj in big:
        assert srt < mrt, f"{name} k={k}: reduction did not win the runtime race"
    assert ("net118", 5) in zero_increase, "118-bus zero-increase row missing"
    print("[criterion 7] PASS benchmark structure:\n  " + "\n  ".join(lines))


# ---------------------------------------------------------------------------
# 8. Performance envelope of the built-in solver at 30-bus scale
# ---------------------------------------------------------------------------

def _spread_groups(rng, net, k, min_dist=2):
    """Doubleton groups whose members sit >= min_dist apart."""
    for _ in range(200):
        picks = rng.permutation(net.n)[: 2 * k].tolist()
        groups = [frozenset(picks[2 * r: 2 * r + 2]) for r in range(k)]
        ok = True
        for g in groups:
            a, b = sorted(g)
            # BFS distance
            seen = {a: 0}
            queue = [a]
            while queue:
                cur = queue.pop(0)
                for _lid, o in net.incident[cur]:
                    if o not in seen:
                        seen[o] = seen[cur] + 1
                        queue.append(o)
            if seen.get(b, 0) < min_dist:
                ok = False
                break
        if ok:
            return CoherencyGroups(groups=tuple(sorted(groups, key=min)), k=k)
    return None


def test_criterion_8_performance_envelope():
    rng = np.random.default_rng(20240808)
    trials = []
    net30 = _case_net("net030")
    for k in (2, 3):
        trials.append((net30, coherency.slow_coherency(net30, k)))
    while len(trials) < 10:
        net = random_connected_net(rng, 30, int(rng.integers(10, 16)))
        groups = _spread_groups(rng, net, int(rng.integers(2, 4)))
        if groups is not None:
            trials.append((net, groups))

    reduced = 0
    total = 0
    start = time.perf_counter()
    for net, groups in trials:
        t0 = time.perf_counter()
        try:
            plain_sol, plain = bnb.solve_builtin(net, groups, time_limit_s=300)
        except InfeasibleError:
            continue
        solve_time = time.perf_counter() - t0
        assert plain.proved_optimal, "no proof within the 300s budget"
        assert solve_time < 300.0
        trees = [steiner.steiner_tree(net, sorted(g)) for g in groups.groups]
        fixings = steiner.build_fixings(net, trees)
        ssr_sol, with_ssr = bnb.solve_builtin(net, groups, ssr=fixings, time_limit_s=300)
        assert ssr_sol.disruption_mw >= plain_sol.disruption_mw - 1e-6
        total += 1
        if with_ssr.nodes < plain.nodes:
            reduced += 1
    elapsed = time.perf_counter() - start
    assert total >= 8
    assert reduced / total >= 0.8, f"node reduction only in {reduced}/{total} trials"
    print(f"[criterion 8] PASS proved optimality on {total} 30-bus instances "
          f"({elapsed:.1f}s total); search-space reduction shrank the tree in "
          f"{reduced}/{total}")


# ---------------------------------------------------------------------------
# 9. Determinism of emitted artifacts
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path, capsys):
    demo = str(CASES_DIR / "demo9.m")

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    outputs = []
    for _ in range(2):
        sol = run("solve", "--case", demo, "--k", "2", "--method", "milp", "--no-timing")
        bench = run(
            "bench", "--cases", demo, "--k-values", "2,3",
            "--methods", "two-stage,milp,ssr", "--no-timing",
        )
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(sol)
        dot = run("export-dot", "--case", demo, "--solution", str(sol_path))
        outputs.append((sol, bench, dot))
    assert outputs[0] == outputs[1], "reruns differ byte-for-byte"
    print("[criterion 9] PASS solve JSON, bench CSV and DOT are byte-identical "
          "across reruns")
