"""Clique-style sandwich bounds on the hyper-minrank.

Upper bound: partition the receivers into cliques that one sender can
serve with a single XOR (mutual side info inside the clique, all of it
stored at the serving sender).  The partition size certifies itself:
we build the induced one-row-per-clique code and verify it.  The
smallest partition is found by branch and bound on the lowest
uncovered receiver, over bit masks: receiver k is bit k-1 of the
uncovered set and of each clique, a clique fits when its mask lies
inside the uncovered one, and cliques with the same receivers are
tested once.  Past EXACT_NODE_CAP search nodes it stops and keeps the
best partition found, flagged inexact.

Lower bound: in the complement hypergraph, a vertex set that forms a
full directed clique with self-loops inside some sender's projection,
and that meets the per-sender hypothesis everywhere else, forces that
many independent rows in any valid selection.  Such a set is exactly a
clique of one K-vertex compatibility graph: two vertices are compatible
when every sender either has a self-loop on both, with both directed
pairs between them, or has a self-loop on neither.  A branch and bound
over bit masks (Carraghan & Pardalos, 1990) finds its largest clique,
the first in ascending vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple
from itertools import combinations

from .codec import LinearCode, verify_code
from .hypergraph import build, complement, sender_projection_pairs
from .instance import Instance, check_valid

__all__ = [
    "ImplementableClique",
    "CliqueCover",
    "ComplementCliqueWitness",
    "enumerate_implementable_cliques",
    "clique_cover_upper",
    "complement_clique_lower",
    "induced_code",
    "EXACT_NODE_CAP",
]

EXACT_NODE_CAP = 500_000

COND_CONTAINS = "contains-clique"
COND_NO_LOOPS = "no-self-loops"


@dataclass(frozen=True)
class ImplementableClique:
    """Receivers with mutual side info, all stored at one sender."""

    receivers: FrozenSet[int]
    sender: int


@dataclass(frozen=True)
class CliqueCover:
    cliques: Tuple[ImplementableClique, ...]
    exact: bool


@dataclass(frozen=True)
class ComplementCliqueWitness:
    """A complement clique meeting the per-sender hypothesis.

    sender_conditions[n-1] records which branch sender n satisfies:
    its projection contains the whole clique, or it has no self-loop
    on any clique vertex.
    """

    vertices: FrozenSet[int]
    host_sender: int
    edges: FrozenSet[Tuple[int, int]]
    sender_conditions: Tuple[str, ...]


def _clique_key(c: ImplementableClique) -> Tuple:
    return (tuple(sorted(c.receivers)), c.sender)


def enumerate_implementable_cliques(inst: Instance) -> List[ImplementableClique]:
    """Every nonempty subset of some sender's store with mutual side info."""
    check_valid(inst)
    found = set()
    for n in range(1, inst.N + 1):
        store = sorted(inst.sender_stores[n - 1])
        for size in range(1, len(store) + 1):
            for subset in combinations(store, size):
                if all(
                    k2 in inst.side_info[k - 1]
                    for k in subset
                    for k2 in subset
                    if k2 != k
                ):
                    found.add(ImplementableClique(frozenset(subset), n))
    return sorted(found, key=_clique_key)


def _greedy_cover(
    cliques: List[ImplementableClique], K: int
) -> List[ImplementableClique]:
    order = sorted(cliques, key=lambda c: (-len(c.receivers),) + _clique_key(c))
    uncovered = set(range(1, K + 1))
    chosen = []
    while uncovered:
        pick = next(c for c in order if c.receivers <= uncovered)
        chosen.append(pick)
        uncovered -= pick.receivers
    return chosen


def _receiver_mask(receivers: FrozenSet[int]) -> int:
    """Receiver k as bit k-1."""
    mask = 0
    for k in receivers:
        mask |= 1 << (k - 1)
    return mask


def _exact_cover(
    cliques: List[ImplementableClique],
    K: int,
    seed: List[ImplementableClique],
) -> Tuple[List[ImplementableClique], bool]:
    """Branch-and-bound set partition on the lowest uncovered receiver.

    The uncovered set and every clique are receiver masks; cliques with
    the same mask form one group, tested for fit once.  Every child
    counts as a node toward EXACT_NODE_CAP before it is tested, as in a
    search that enters each child, so a child cut at once costs no call.
    Returns the best partition found and whether the cap tripped.
    """
    max_size = max(len(c.receivers) for c in cliques)
    cap = EXACT_NODE_CAP
    best = list(seed)
    best_m = len(seed)
    # The root is node 1, and its bound alone may prove the seed minimal.
    if cap < 1:
        return best, True
    if -(-K // max_size) >= best_m:
        return best, False
    order = sorted(cliques, key=lambda c: (-len(c.receivers),) + _clique_key(c))
    # The sort puts cliques with the same receivers next to each other.
    groups: List[Tuple[int, int, List[ImplementableClique]]] = []
    for c in order:
        mask = _receiver_mask(c.receivers)
        if groups and groups[-1][0] == mask:
            groups[-1][2].append(c)
        else:
            groups.append((mask, len(c.receivers), [c]))
    by_low = [[g for g in groups if g[0] >> k & 1] for k in range(K)]
    full = (1 << K) - 1
    nodes = 1
    parts: List[ImplementableClique] = []

    def rec(uncovered: int) -> bool:
        """Branch on the lowest uncovered receiver; True once capped."""
        nonlocal best, best_m, nodes
        depth = len(parts) + 1
        left = uncovered.bit_count()
        covered = full ^ uncovered
        children = iter(by_low[(uncovered & -uncovered).bit_length() - 1])
        for mask, width, same in children:
            if mask & covered:
                continue
            if width < left and depth - (width - left) // max_size >= best_m:
                # Cliques come largest first, so this child and every
                # later one that fits are cut by the same bound.
                nodes += len(same) + sum(
                    len(g) for m, _, g in children if not m & covered
                )
                return nodes > cap
            for c in same:
                nodes += 1
                if nodes > cap:
                    return True
                if width == left:
                    if depth < best_m:
                        best_m = depth
                        best = parts + [c]
                elif depth - (width - left) // max_size < best_m:
                    parts.append(c)
                    if rec(uncovered ^ mask):
                        return True
                    parts.pop()
        return False

    capped = rec(full)
    return best, capped


def induced_code(cover: CliqueCover, inst: Instance) -> LinearCode:
    """One all-ones transmission per clique, sent by its serving sender."""
    per_sender: List[List[int]] = [[] for _ in range(inst.N)]
    for c in cover.cliques:
        per_sender[c.sender - 1].append(_receiver_mask(c.receivers))
    return LinearCode(K=inst.K, senders=tuple(tuple(v) for v in per_sender))


def clique_cover_upper(
    inst: Instance, mode: str = "exact"
) -> Tuple[int, CliqueCover]:
    """Smallest found partition of [K] into implementable cliques.

    Exact mode proves minimality by branch and bound; if the node cap
    trips, the best partition found so far is returned with
    exact=False.  The induced code is verified before returning, so m
    transmissions provably suffice.
    """
    check_valid(inst)
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    cliques = enumerate_implementable_cliques(inst)
    greedy = _greedy_cover(cliques, inst.K)
    if mode == "greedy":
        chosen, exact = greedy, False
    else:
        chosen, capped = _exact_cover(cliques, inst.K, greedy)
        exact = not capped
    cover = CliqueCover(cliques=tuple(chosen), exact=exact)
    code = induced_code(cover, inst)
    if not verify_code(code, inst, mode="algebraic"):
        raise RuntimeError("induced cover code failed verification")
    return len(chosen), cover


def _first_maximum_clique(adj: List[int], vertices: int) -> List[int]:
    """Largest clique among the set bits of `vertices`, first in
    ascending order of its sorted bit positions.

    adj[v] is the neighbour mask of bit v.  Branches run from the
    lowest candidate up and a clique replaces the best only when it is
    strictly larger, so the first maximum clique found is the first in
    combinations order.
    """
    best: List[int] = []
    current: List[int] = []

    def expand(candidates: int) -> None:
        nonlocal best
        while candidates:
            if len(current) + candidates.bit_count() <= len(best):
                return
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            current.append(v)
            below = candidates & adj[v]
            if below:
                expand(below)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()

    expand(vertices)
    return best


def complement_clique_lower(
    inst: Instance,
) -> Tuple[int, Optional[ComplementCliqueWitness]]:
    """Largest complement clique satisfying the per-sender hypothesis.

    The returned value never exceeds the hyper-minrank.  A feasible
    instance always admits a singleton witness, so 0 only appears for
    degenerate inputs rejected elsewhere.  Among the largest cliques the
    witness is the first in ascending vertex order; its host is the
    first sender whose projection contains it.
    """
    check_valid(inst)
    pairs = sender_projection_pairs(complement(build(inst)))
    K = inst.K
    loops = [[(k, k) in p for k in range(1, K + 1)] for p in pairs]
    looped = 0
    for k in range(1, K + 1):
        if any(at[k - 1] for at in loops):
            looped |= 1 << (k - 1)
    adj = [0] * K
    for a in range(1, K + 1):
        for b in range(a + 1, K + 1):
            if all(
                at[a - 1] == at[b - 1]
                and (not at[a - 1] or ((a, b) in p and (b, a) in p))
                for at, p in zip(loops, pairs)
            ):
                adj[a - 1] |= 1 << (b - 1)
                adj[b - 1] |= 1 << (a - 1)
    clique = [v + 1 for v in _first_maximum_clique(adj, looped)]
    if not clique:
        return 0, None
    first = clique[0] - 1
    witness = ComplementCliqueWitness(
        vertices=frozenset(clique),
        host_sender=next(n for n, at in enumerate(loops, 1) if at[first]),
        edges=frozenset((a, b) for a in clique for b in clique),
        sender_conditions=tuple(
            COND_CONTAINS if at[first] else COND_NO_LOOPS for at in loops
        ),
    )
    return len(clique), witness
