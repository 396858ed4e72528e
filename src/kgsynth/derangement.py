"""Random derangements, plain and constrained.

Two generators live here. ``derange`` rejection-samples uniform permutations
until none keeps its original value, which is cheap (about e attempts for
distinct values) and uniform over all derangements. ``bipartite_derange``
handles the constrained case: a bipartite graph pairs each position with the
positions whose value it may receive, excluding same-value pairs and any
(from_value, to_value) pair in ``removed``, and a maximum matching picks the
rearrangement. Both are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import InfeasibleError
from .kg import KnowledgeGraph

# (from_value, to_value) pairs that the constrained derangement must avoid.
RemovedEdges = set[tuple[Hashable, Hashable]]

_INF = float("inf")
_MAX_REJECTION_ATTEMPTS = 1000


@dataclass(frozen=True)
class DerangementResult:
    """A rearrangement ``res`` with ``res[i] = original[permutation[i]]``."""

    res: tuple
    permutation: tuple[int, ...]


def _check_feasible(items: Sequence[Hashable]) -> None:
    # A value-level derangement of a multiset exists iff no value fills more
    # than half the positions (Hall's condition on the value graph).
    n = len(items)
    if n <= 1:
        raise InfeasibleError(f"no derangement exists for {n} item(s)")
    value, count = Counter(items).most_common(1)[0]
    if 2 * count > n:
        raise InfeasibleError(
            f"no derangement exists: value {value!r} occupies {count} of {n} positions"
        )


def derange(items: Sequence[Hashable], seed: int) -> DerangementResult:
    """Uniform random derangement of ``items`` (no position keeps its value)."""
    _check_feasible(items)
    n = len(items)
    rng = random.Random(seed)
    perm = list(range(n))
    for _ in range(_MAX_REJECTION_ATTEMPTS):
        rng.shuffle(perm)
        if all(items[perm[i]] != items[i] for i in range(n)):
            return DerangementResult(
                res=tuple(items[perm[i]] for i in range(n)),
                permutation=tuple(perm),
            )
    # Heavily repeated values make acceptance vanishingly rare even when a
    # derangement exists; the matching construction is guaranteed to find one.
    return bipartite_derange(items, set(), seed)


def bipartite_derange(
    arr: Sequence[Hashable], removed: RemovedEdges, seed: int
) -> DerangementResult:
    """Derangement of ``arr`` avoiding every (old_value, new_value) pair in ``removed``.

    Positions and candidate lists are shuffled under ``seed`` before matching,
    so distinct seeds can yield distinct valid results.
    """
    n = len(arr)
    if n == 0:
        raise InfeasibleError("cannot derange an empty array")
    rng = random.Random(seed)

    groups: dict[Hashable, list[int]] = {}
    for j, value in enumerate(arr):
        groups.setdefault(value, []).append(j)

    # Adjacency depends only on the value at a position, so compatibility is
    # computed once per distinct value and the list shared by its positions.
    values = list(groups)
    neighbors_of: dict[Hashable, list[int]] = {}
    for u in values:
        nbrs: list[int] = []
        for v in values:
            if u != v and (u, v) not in removed:
                nbrs.extend(groups[v])
        rng.shuffle(nbrs)
        neighbors_of[u] = nbrs

    left_order = list(range(n))
    rng.shuffle(left_order)
    adjacency = [neighbors_of[arr[p]] for p in left_order]

    matching = _hopcroft_karp(adjacency, n)
    if len(matching) < n:
        unmatched = sorted(left_order[k] for k in range(n) if k not in matching)
        raise InfeasibleError(
            f"no constrained derangement exists; unmatched positions: {unmatched}"
        )

    perm = [0] * n
    for k, j in matching.items():
        perm[left_order[k]] = j
    return DerangementResult(
        res=tuple(arr[perm[i]] for i in range(n)),
        permutation=tuple(perm),
    )


def _hopcroft_karp(adjacency: list[list[int]], right_size: int) -> dict[int, int]:
    """Maximum bipartite matching, left u -> right v, where v is in ``adjacency[u]``."""
    n_left = len(adjacency)
    match_left = [-1] * n_left
    match_right = [-1] * right_size
    dist: list[float] = [0.0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        shortest = _INF
        while queue:
            u = queue.popleft()
            if dist[u] >= shortest:
                continue
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    if shortest == _INF:
                        shortest = dist[u] + 1
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return shortest != _INF

    def try_augment(root: int) -> bool:
        # Iterative DFS along the BFS layering; augmenting paths can be long,
        # so recursion is avoided. ``path`` holds the edge taken into each frame.
        stack = [(root, iter(adjacency[root]))]
        path: list[tuple[int, int]] = []
        while stack:
            u, neighbors = stack[-1]
            advanced = False
            for v in neighbors:
                w = match_right[v]
                if w == -1:
                    path.append((u, v))
                    for pu, pv in path:
                        match_left[pu] = pv
                        match_right[pv] = pu
                    return True
                if dist[w] == dist[u] + 1:
                    path.append((u, v))
                    stack.append((w, iter(adjacency[w])))
                    advanced = True
                    break
            if not advanced:
                dist[u] = _INF
                stack.pop()
                if path:
                    path.pop()
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                try_augment(u)
    return {u: v for u, v in enumerate(match_left) if v != -1}


def build_removed_edges(kg: KnowledgeGraph) -> RemovedEdges:
    """Relation-name pairs whose swap would leave some triple unchanged.

    (name_a, name_b) is removed iff some ordered (head, tail) pair carries both
    relations anywhere in train/valid/test. Pairs are over surface names because
    that is what the derangement shuffles; both orders are inserted since the
    co-occurrence condition is symmetric.
    """
    rels_by_pair: dict[tuple[str, str], set[str]] = {}
    for h, r, t in kg.all_triples:
        rels_by_pair.setdefault((h, t), set()).add(r)

    names = kg.relation_names
    removed: RemovedEdges = set()
    for rel_ids in rels_by_pair.values():
        if len(rel_ids) < 2:
            continue
        rel_names = [names[r] for r in rel_ids]
        for a in rel_names:
            for b in rel_names:
                if a != b:
                    removed.add((a, b))
    return removed
