#!/usr/bin/env python3
"""Generate the deterministic synthetic benchmark cases under cases/.

Each network is built from a fixed seed: buses are scattered in a few
geographic clumps, connected by a Euclidean minimum spanning tree plus
short chords up to a target line/bus ratio, with dispatchable generation
spread across the clumps.  The output is MATPOWER-subset text consumed
by the package parser.  Re-running the script reproduces the committed
files byte for byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from gridtree.network import Bus, Line, Network, apply_switching, bridges, components  # noqa: E402

# name -> (buses, clumps, chord ratio, seed, clump spread, cross chords per pair)
SIZES = {
    "demo9": (9, 2, 0.40, 101, 1.1, (2, 5)),
    "net030": (30, 3, 0.40, 103, 1.1, (2, 5)),
    "net057": (57, 3, 0.42, 107, 1.1, (2, 5)),
    "net118": (118, 3, 0.45, 109, 1.1, (2, 5)),
    "net240": (240, 4, 0.55, 113, 2.2, (6, 12)),
    "net300": (300, 5, 0.55, 139, 2.2, (6, 12)),
}


def build_case(n: int, clumps: int, extra_ratio: float, seed: int, spread: float, cross: tuple[int, int]) -> str:
    rng = np.random.default_rng(seed)

    centers = rng.uniform(0, 10, size=(clumps, 2))
    which = rng.integers(0, clumps, size=n)
    pos = centers[which] + rng.normal(0, spread, size=(n, 2))

    # Euclidean MST (Prim) keeps the network connected
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    in_tree = [0]
    best_link = dist[0].copy()
    best_from = np.zeros(n, dtype=int)
    edges = set()
    for _ in range(n - 1):
        cand = best_link.copy()
        cand[in_tree] = np.inf
        nxt = int(np.argmin(cand))
        a, b = best_from[nxt], nxt
        edges.add((min(a, b), max(a, b)))
        in_tree.append(nxt)
        closer = dist[nxt] < best_link
        best_link[closer] = dist[nxt][closer]
        best_from[closer] = nxt

    # add short chords until the target m/n ratio
    target_extra = int(round(extra_ratio * n))
    order = np.argsort(dist, axis=None)
    for flat in order:
        if target_extra == 0:
            break
        a, b = divmod(int(flat), n)
        if a >= b:
            continue
        if (a, b) in edges:
            continue
        if dist[a, b] > np.median(dist) * (0.45 if n > 20 else 1.0):
            break
        # skip a fraction to avoid purely local meshes
        if rng.random() < 0.35:
            continue
        edges.add((a, b))
        target_extra -= 1

    # mesh the clump boundaries: a few shortest cross-clump chords per pair
    for ca in range(clumps):
        for cb in range(ca + 1, clumps):
            in_a = np.where(which == ca)[0]
            in_b = np.where(which == cb)[0]
            if len(in_a) == 0 or len(in_b) == 0:
                continue
            pairs = sorted(
                ((dist[a, b], min(a, b), max(a, b)) for a in in_a for b in in_b)
            )
            wanted = int(rng.integers(cross[0], cross[1]))
            for _, a, b in pairs:
                if wanted == 0:
                    break
                if (a, b) not in edges:
                    edges.add((a, b))
                    wanted -= 1

    # real grids are (near) 2-edge-connected: reinforce every bridge with a
    # short chord across its cut until none remain, leaves included
    # (line ids follow the sorted pairs, so the first bridge is the least pair)
    buses = tuple(Bus(id=i, index=i, injection_mw=0.0) for i in range(n))
    while True:
        pairs = sorted(edges)
        net = Network(buses, tuple(Line(lid, a, b, 1.0) for lid, (a, b) in enumerate(pairs)))
        cut_lines = bridges(net)
        if not cut_lines:
            break
        a, b = pairs[cut_lines[0]]
        sides = components(apply_switching(net, cut_lines[:1]), range(n))
        side_a = next(side for side in sides if a in side)
        side_b = next(side for side in sides if b in side)
        candidates = sorted(
            (dist[u, v], min(u, v), max(u, v))
            for u in side_a
            for v in side_b
            if (min(u, v), max(u, v)) not in edges
        )
        if not candidates:
            break
        _, u, v = candidates[0]
        edges.add((u, v))

    edges = sorted(edges)
    x_vals = {
        e: 0.02 + 0.02 * dist[e] + rng.uniform(0.0, 0.02) for e in edges
    }

    n_gen = max(2 * clumps, int(round((0.22 if n < 200 else 0.13) * n)))
    gen_buses = sorted(rng.choice(n, size=n_gen, replace=False))
    pg = np.round(rng.uniform(30, 260, size=n_gen), 1)

    load_buses = list(range(n))
    pd_raw = rng.uniform(3, 80, size=len(load_buses))
    pd = np.round(pd_raw * (pg.sum() / pd_raw.sum()), 1)

    out = ["function mpc = case_synthetic", "mpc.version = '2';", "mpc.baseMVA = 100;"]
    out.append("mpc.bus = [")
    loads = dict(zip(load_buses, pd))
    gens = set(gen_buses)
    for i in range(n):
        bus_type = 2 if i in gens else 1
        out.append(
            f"\t{i + 1}\t{bus_type}\t{loads.get(i, 0.0)}\t0\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;"
        )
    out.append("];")
    out.append("mpc.gen = [")
    for bus, p in zip(gen_buses, pg):
        out.append(f"\t{bus + 1}\t{p}\t0\t0\t0\t1\t100\t1\t{p}\t0;")
    out.append("];")
    out.append("mpc.branch = [")
    for a, b in edges:
        out.append(f"\t{a + 1}\t{b + 1}\t0\t{x_vals[(a, b)]:.6f}\t0\t0\t0\t0\t0\t0\t1;")
    out.append("];")
    return "\n".join(out) + "\n"


def main() -> int:
    out_dir = Path(__file__).resolve().parents[1] / "cases"
    out_dir.mkdir(exist_ok=True)
    for name, (n, clumps, extra, seed, spread, cross) in SIZES.items():
        text = build_case(n, clumps, extra, seed, spread, cross)
        (out_dir / f"{name}.m").write_text(text)
        print(f"wrote {name}.m ({n} buses)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
