"""Slow-coherency grouping of generators.

Pipeline: susceptance-weighted Laplacian over all buses, Kron reduction
onto the generator buses, then k-means over the slow (smallest-eigenvalue)
eigenbasis.  Every step is deterministic: dense symmetric
eigendecomposition with a fixed sign convention, farthest-first seeding,
and index-based tie-breaking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
        if self.k < 1:
            raise NetworkValidationError(f"k={self.k}: a partition needs at least one group")
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


def kron_reduction(net: Network, keep: Sequence[int]) -> np.ndarray:
    """Eliminate all buses outside ``keep`` from the susceptance Laplacian."""
    keep = list(keep)
    lap = laplacian(net)
    kept = set(keep)
    drop = [i for i in range(net.n) if i not in kept]
    l_kk = lap[np.ix_(keep, keep)]
    l_kd = lap[np.ix_(keep, drop)]
    l_dd = lap[np.ix_(drop, drop)]
    reduced = l_kk - l_kd @ np.linalg.solve(l_dd, l_kd.T)
    return (reduced + reduced.T) / 2.0


def _slow_modes(sym: np.ndarray, k: int) -> np.ndarray:
    """The k smallest-eigenvalue eigenvectors of a symmetric matrix, as
    columns, each signed so that its largest-magnitude entry is positive."""
    try:
        _, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NetworkValidationError(f"eigendecomposition failed: {exc}")
    slow = vectors[:, :k].copy()
    for c in range(slow.shape[1]):
        lead = int(np.argmax(np.abs(slow[:, c])))
        if slow[lead, c] < 0:
            slow[:, c] = -slow[:, c]
    return slow


def spectral_embedding(net: Network, gens: Sequence[int], k: int) -> np.ndarray:
    """Rows of the k slowest eigenvectors of the reduced Laplacian."""
    return _slow_modes(kron_reduction(net, gens), k)


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


_KMEANS_MAX_ITER = 200


def _kmeans(rows: np.ndarray, centroids: np.ndarray, pinned: int = 0) -> np.ndarray:
    """Deterministic Lloyd iteration from the given initial centroids.

    Rows 0..pinned-1 stay in clusters 0..pinned-1.  A cluster left empty
    is revived with the point farthest from its centroid, never draining
    a singleton cluster; with every cluster pinned none can empty.
    """
    n, k = rows.shape[0], centroids.shape[0]
    centroids = centroids.copy()
    labels = np.full(n, -1, dtype=int)
    labels[:pinned] = np.arange(pinned)
    for _it in range(_KMEANS_MAX_ITER):
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


def slow_coherency(net: Network, k: int) -> CoherencyGroups:
    """Identify k coherent generator groups.

    The grouping runs over the actively dispatching generator buses
    (positive case generation); if fewer than k of those exist it falls
    back to all generator buses.
    """
    if k < 2:
        raise NetworkValidationError("slow coherency needs k >= 2")
    gens = [b.index for b in net.buses if b.is_generator and b.gen_mw > 0]
    if len(gens) < k:
        gens = [b.index for b in net.buses if b.is_generator]
    if k > len(gens):
        raise NetworkValidationError(f"k={k} exceeds generator count {len(gens)}")

    if k == len(gens):
        groups = [frozenset([g]) for g in gens]
    else:
        rows = spectral_embedding(net, gens, k)
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
