"""Slow-coherency grouping of generators.

Pipeline: susceptance-weighted Laplacian over all buses, Kron reduction
onto the generator buses, inertia scaling, then k-means over the slow
(smallest-eigenvalue) eigenbasis.  Every step is deterministic: dense
symmetric eigendecomposition with a fixed sign convention, farthest-first
seeding, and index-based tie-breaking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .dcflow import laplacian
from .errors import NetworkValidationError
from .network import Network, json_object

__all__ = [
    "CoherencyGroups",
    "slow_coherency",
    "kron_reduction",
    "spectral_embedding",
    "groups_to_json",
    "groups_from_json",
]


@dataclass(frozen=True)
class CoherencyGroups:
    """k disjoint, non-empty sets of generator bus indices."""

    groups: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self):
        if self.k != len(self.groups):
            raise NetworkValidationError("k does not match the number of groups")
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise NetworkValidationError("empty coherency group")
            if seen & g:
                raise NetworkValidationError("coherency groups overlap")
            seen |= g

    @cached_property
    def cluster_of(self) -> dict[int, int]:
        """Bus index -> its group's 1-based cluster, group by group."""
        return {b: r for r, g in enumerate(self.groups, start=1) for b in g}

    def all_members(self) -> set[int]:
        return set(self.cluster_of)


def kron_reduction(net: Network, keep: Sequence[int]) -> np.ndarray:
    """Eliminate all buses outside ``keep`` from the susceptance Laplacian."""
    keep = list(keep)
    lap = laplacian(net)
    kept = set(keep)
    drop = [i for i in range(net.n) if i not in kept]
    if not drop:
        return lap[np.ix_(keep, keep)]
    l_kk = lap[np.ix_(keep, keep)]
    l_kd = lap[np.ix_(keep, drop)]
    l_dd = lap[np.ix_(drop, drop)]
    reduced = l_kk - l_kd @ np.linalg.solve(l_dd, l_kd.T)
    return (reduced + reduced.T) / 2.0


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, c])))
        if out[lead, c] < 0:
            out[:, c] = -out[:, c]
    return out


def spectral_embedding(net: Network, gens: Sequence[int], k: int, h: np.ndarray) -> np.ndarray:
    """Rows of the k slowest eigenvectors of the inertia-scaled reduced Laplacian."""
    reduced = kron_reduction(net, gens)
    inv_sqrt = 1.0 / np.sqrt(h)
    sym = inv_sqrt[:, None] * reduced * inv_sqrt[None, :]
    try:
        _, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NetworkValidationError(f"eigendecomposition failed: {exc}")
    slow = _fix_signs(vectors[:, :k])
    return inv_sqrt[:, None] * slow


def _farthest_first_seeds(rows: np.ndarray, k: int) -> list[int]:
    n = rows.shape[0]
    d = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
    upper = np.triu_indices(n, 1)
    pair = int(np.argmax(d[upper]))  # the first farthest pair in row-major order
    seeds = [int(upper[0][pair]), int(upper[1][pair])]
    while len(seeds) < k:
        min_d = d[:, seeds].min(axis=1)
        min_d[seeds] = -1.0
        seeds.append(int(np.argmax(min_d)))
    return seeds[:k]


def _kmeans(rows: np.ndarray, centroids: np.ndarray, pinned: int = 0,
            max_iter: int = 200) -> np.ndarray:
    """Deterministic Lloyd iteration from the given initial centroids.

    Rows 0..pinned-1 stay in clusters 0..pinned-1.  A cluster left empty
    is revived with the point farthest from its centroid, never draining
    a singleton cluster; with every cluster pinned none can empty.
    """
    n, k = rows.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    labels = np.full(n, -1, dtype=int)
    labels[:pinned] = np.arange(pinned)
    for _it in range(max_iter):
        dist = np.linalg.norm(rows[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = np.argmin(dist, axis=1)  # argmin takes lowest index on ties
        new_labels[:pinned] = np.arange(pinned)
        for r in range(k):
            if np.any(new_labels == r):
                continue
            counts = np.bincount(new_labels, minlength=k)
            residual = dist[np.arange(n), new_labels]
            residual = np.where(counts[new_labels] > 1, residual, -1.0)
            new_labels[int(np.argmax(residual))] = r
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for r in range(k):
            centroids[r] = rows[labels == r].mean(axis=0)
    return labels


def slow_coherency(
    net: Network,
    k: int,
    inertia_h: Union[float, Mapping[int, float]] = 1.0,
    generator_buses: Optional[Sequence[int]] = None,
) -> CoherencyGroups:
    """Identify k coherent generator groups.

    By default the grouping runs over the actively dispatching generator
    buses (positive case generation); if fewer than k of those exist it
    falls back to all generator buses.  Supplying ``generator_buses``
    overrides the selection.
    """
    if k < 2:
        raise NetworkValidationError("slow coherency needs k >= 2")
    if generator_buses is not None:
        gens = sorted(generator_buses)
        for g in gens:
            if not net.buses[g].is_generator:
                raise NetworkValidationError(f"bus index {g} is not a generator")
    else:
        gens = sorted(b.index for b in net.buses if b.is_generator and b.gen_mw > 0)
        if len(gens) < k:
            gens = sorted(b.index for b in net.buses if b.is_generator)
    if k > len(gens):
        raise NetworkValidationError(f"k={k} exceeds generator count {len(gens)}")

    if isinstance(inertia_h, Mapping):
        h = np.array([float(inertia_h.get(g, 1.0)) for g in gens])
    else:
        h = np.full(len(gens), float(inertia_h))
    if np.any(h <= 0):
        raise NetworkValidationError("inertia constants must be positive")

    if k == len(gens):
        groups = [frozenset([g]) for g in gens]
    else:
        rows = spectral_embedding(net, gens, k, h)
        labels = _kmeans(rows, rows[_farthest_first_seeds(rows, k)])
        groups = [
            frozenset(g for g, lab in zip(gens, labels) if lab == r) for r in range(k)
        ]
    groups.sort(key=min)
    return CoherencyGroups(groups=tuple(groups), k=k)


def groups_to_json(net: Network, groups: CoherencyGroups) -> str:
    doc = {
        "k": groups.k,
        "groups": [sorted(net.buses[i].id for i in g) for g in groups.groups],
    }
    return json.dumps(doc, indent=2) + "\n"


def groups_from_json(net: Network, text: str) -> CoherencyGroups:
    doc = json_object(text, "groups file", {"groups": "id lists", "k": "int"})
    groups = []
    for members in doc["groups"]:
        idxs = frozenset(net.index_of(bus_id) for bus_id in members)
        for i in idxs:
            if not net.buses[i].is_generator:
                raise NetworkValidationError(
                    f"bus {net.buses[i].id} in groups file is not a generator"
                )
        groups.append(idxs)
    return CoherencyGroups(groups=tuple(groups), k=doc["k"])
