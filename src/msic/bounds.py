"""Clique-style sandwich bounds on the hyper-minrank.

Upper bound: partition the receivers into cliques that one sender can
serve with a single XOR (mutual side info inside the clique, all of it
stored at the serving sender).  The partition size certifies itself:
we build the induced one-row-per-clique code and verify it.  The
cover works on receiver masks from end to end: receiver k is bit k-1.
Each receiver set that some sender can serve is enumerated once, as
its mask with the senders storing it, and the sets are sorted once,
largest first, on an int key.  The greedy cover is one pass over that
list, and the smallest partition is found by branch and bound on the
lowest uncovered receiver over the same list: a set fits when its
mask lies inside the uncovered one, and it is tested once for all its
senders.  A subtree searched without improving the partition is not
searched again: its node count is reused.  Past EXACT_NODE_CAP search
nodes it stops and keeps the best partition found, flagged inexact.
Cliques are built only for the partition returned.

Lower bound: in the complement hypergraph, a vertex set that forms a
full directed clique with self-loops inside some sender's projection,
and that meets the per-sender hypothesis everywhere else, forces that
many independent rows in any valid selection.  Such a set is exactly a
clique of one K-vertex compatibility graph: two vertices are compatible
when every sender either has a self-loop on both, with both directed
pairs between them, or has a self-loop on neither.  Unfolding
`hypergraph.complement` for a != b and one sender n gives that graph
in closed form:

  - n has a self-loop on k exactly when n stores k (demand edges);
  - n lacks the pair (a, b) exactly when n holds b and either a knows
    b (a cached edge) or b has two or more holders (coupled edges);
  - so a and b are compatible exactly when they share one single
    holder and neither knows the other's message.

The graph is read from per-message holder masks and per-receiver
side-information masks, and a branch and bound over bit masks
(Carraghan & Pardalos, 1990) finds its largest clique, the first in
ascending vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .codec import LinearCode, verify_code
from .gf2 import support
from .instance import Instance

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
    sender_conditions: Tuple[str, ...]

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """Every ordered pair of clique vertices, self-loops included:
        |vertices|^2 pairs, built on each access."""
        return frozenset((a, b) for a in self.vertices for b in self.vertices)


def _receivers(mask: int) -> FrozenSet[int]:
    """The receivers of a mask: bit k-1 is receiver k."""
    return frozenset(k + 1 for k in support(mask))


def _implementable_sets(inst: Instance) -> List[Tuple[int, int, int, Tuple[int, ...]]]:
    """(key, mask, size, senders) for each receiver set with mutual side
    info that some sender stores whole, in ascending order of its sorted
    receivers.

    A set grows, in ascending receiver order, only by higher receivers
    that know, and are known by, every member, and it carries the AND of
    its members' holder masks: the senders storing it all, ascending in
    `senders`.  A branch ends once that AND is 0, so each set comes out
    once, whatever the number of senders storing it.  The walk is
    depth first with the lowest receiver tried first, which gives the
    order of the sorted receiver tuples.

    The key is size << K plus the bit-reversed mask (receiver k at bit
    K - k).  Among sets of one size, a larger reversed mask is a smaller
    sorted receiver tuple, so descending keys are ascending
    (-size, sorted receivers).
    """
    K = inst.K
    mutual = [0] * K
    for k, known in enumerate(inst.side_info, 1):
        for m in known:
            if k in inst.side_info[m - 1]:
                mutual[k - 1] |= 1 << (m - 1)
    holders = [_receiver_mask(h) for h in inst.holders]
    senders: Dict[int, Tuple[int, ...]] = {}  # sender mask -> its senders
    found = []
    # stack[i] is [mask, reversed mask, size, senders' AND, candidates]
    # for the set of the lowest i members on the current branch.
    stack = [[0, 0, 0, (1 << inst.N) - 1, (1 << K) - 1]]
    while stack:
        frame = stack[-1]
        mask, rev, size, common, candidates = frame
        if not candidates:
            stack.pop()
            continue
        low = candidates & -candidates
        frame[4] = candidates ^ low
        k = low.bit_length() - 1
        common &= holders[k]
        if common:
            mask |= low
            rev |= 1 << (K - 1 - k)
            size += 1
            if common not in senders:
                senders[common] = tuple(n + 1 for n in support(common))
            found.append((size << K | rev, mask, size, senders[common]))
            stack.append([mask, rev, size, common, frame[4] & mutual[k]])
    return found


def enumerate_implementable_cliques(inst: Instance) -> List[ImplementableClique]:
    """Every nonempty subset of some sender's store with mutual side info,
    ordered by sorted receivers, then sender."""
    return [
        ImplementableClique(_receivers(mask), n)
        for _, mask, _, senders in _implementable_sets(inst)
        for n in senders
    ]


def _cover_groups(inst: Instance) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """(mask, size, senders) for each implementable receiver set, largest
    first and then by sorted receivers: the one sort both covers read."""
    found = _implementable_sets(inst)
    found.sort(reverse=True)
    return [(mask, size, senders) for _, mask, size, senders in found]


def _greedy_cover(groups: List[Tuple[int, int, Tuple[int, ...]]], K: int) -> List[Tuple[int, int]]:
    """(mask, sender) parts: the first group that fits the uncovered set,
    at its lowest sender, until every receiver is covered.  A group that
    does not fit never fits again, so one pass over the groups does it."""
    uncovered = (1 << K) - 1
    chosen = []
    for mask, _, senders in groups:
        if not mask & ~uncovered:
            chosen.append((mask, senders[0]))
            uncovered ^= mask
            if not uncovered:
                break
    return chosen


def _receiver_mask(receivers: Iterable[int]) -> int:
    """Receiver (or sender) k as bit k-1."""
    mask = 0
    for k in receivers:
        mask |= 1 << (k - 1)
    return mask


def _exact_cover(
    groups: List[Tuple[int, int, Tuple[int, ...]]],
    K: int,
    seed: List[Tuple[int, int]],
) -> Tuple[List[Tuple[int, int]], bool]:
    """Branch-and-bound set partition on the lowest uncovered receiver.

    `groups` is `_cover_groups`' list and a part is a (mask, sender)
    pair, as in the greedy `seed`.  A group is tested for fit once, and
    each of its senders is a child.  Every child counts as a node toward
    EXACT_NODE_CAP before it is tested, as in a search that enters each
    child, so a child cut at once costs no call.  Returns the best
    partition found and whether the cap tripped.

    The search runs on its own stack of frames, so a partition may have
    as many parts as there are receivers, past the recursion limit.  A
    frame is a `rec` generator over one subtree's children: it yields
    the uncovered set of each child it enters, and the loop at the end
    pushes a frame for it, pops a frame once it is exhausted, and stops
    as soon as a frame sets `capped`.

    A subtree reads only its uncovered set and its slack, best_m less
    depth, keyed as (slack << K) | uncovered.  A frame that ends
    uncapped without improving best stores the nodes it added.  Before
    entering a child, its parent looks up the child's key, and on a hit
    adds the stored count instead, so a repeat builds no frame.  Walked
    again it would count the same nodes and find nothing better, so the
    cap trips at the same node with the same partition.  One key per
    completed frame keeps at most EXACT_NODE_CAP keys.
    """
    max_size = groups[0][1]
    cap = EXACT_NODE_CAP
    best = list(seed)
    best_m = len(seed)
    # The root is node 1, and its bound alone may prove the seed minimal.
    if cap < 1:
        return best, True
    if -(-K // max_size) >= best_m:
        return best, False
    by_low = [[g for g in groups if g[0] >> k & 1] for k in range(K)]
    full = (1 << K) - 1
    nodes = 1
    capped = False
    parts: List[Tuple[int, int]] = []
    searched: Dict[int, int] = {}

    def rec(uncovered: int) -> Iterator[int]:
        """Branch on the lowest uncovered receiver; yields each child's
        uncovered set, and sets `capped` once the cap trips."""
        nonlocal best, best_m, nodes, capped
        depth = len(parts) + 1
        slack = best_m - depth
        start = nodes
        left = uncovered.bit_count()
        covered = full ^ uncovered
        children = iter(by_low[(uncovered & -uncovered).bit_length() - 1])
        for mask, width, senders in children:
            if mask & covered:
                continue
            if width < left and depth - (width - left) // max_size >= best_m:
                # Groups come largest first, so this child and every
                # later one that fits are cut by the same bound.
                nodes += len(senders) + sum(
                    len(s) for m, _, s in children if not m & covered
                )
                if nodes > cap:
                    capped = True
                    return
                break
            for n in senders:
                nodes += 1
                if nodes > cap:
                    capped = True
                    return
                if width == left:
                    if depth < best_m:
                        best_m = depth
                        best = parts + [(mask, n)]
                elif depth - (width - left) // max_size < best_m:
                    rest = uncovered ^ mask
                    key = (best_m - depth - 1) << K | rest
                    if key in searched:
                        nodes += searched[key]
                        if nodes > cap:
                            capped = True
                            return
                        continue
                    parts.append((mask, n))
                    yield rest
                    parts.pop()
        if best_m - depth == slack:
            searched[slack << K | uncovered] = nodes - start

    stack = [rec(full)]
    while stack and not capped:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(rec(child))
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

    Both modes read one sorted list of receiver masks (`_cover_groups`).
    Greedy mode takes the first set that fits, at its lowest sender,
    until all are covered.  Exact mode starts from that cover and proves
    minimality by branch and bound; if the node cap trips, the best
    partition found so far is returned with exact=False.  The induced
    code is verified before returning, so m transmissions provably
    suffice.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    groups = _cover_groups(inst)
    greedy = _greedy_cover(groups, inst.K)
    if mode == "greedy":
        chosen, exact = greedy, False
    else:
        chosen, capped = _exact_cover(groups, inst.K, greedy)
        exact = not capped
    cover = CliqueCover(
        cliques=tuple(ImplementableClique(_receivers(mask), n) for mask, n in chosen),
        exact=exact,
    )
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
    combinations order.  The search keeps its own stack, so a clique
    may be as deep as the vertex count.
    """
    best: List[int] = []
    current: List[int] = []
    # stack[i] holds the candidates left at depth i, below current[:i].
    stack = [vertices]
    while stack:
        candidates = stack[-1]
        if not candidates or len(current) + candidates.bit_count() <= len(best):
            stack.pop()
            if current:
                current.pop()
            continue
        low = candidates & -candidates
        stack[-1] = candidates ^ low
        v = low.bit_length() - 1
        below = stack[-1] & adj[v]
        if below:
            current.append(v)
            stack.append(below)
        elif len(current) >= len(best):
            best = current + [v]
    return best


def complement_clique_lower(
    inst: Instance,
) -> Tuple[int, ComplementCliqueWitness]:
    """Largest complement clique satisfying the per-sender hypothesis.

    The returned value never exceeds the hyper-minrank.  Receivers a and
    b are compatible when they share one single holder and neither
    knows the other's message; the module docstring derives this from
    `hypergraph.complement`.  Every message has a holder, so every
    receiver is a vertex and a singleton witness always exists.  Among
    the largest cliques the witness is the first in ascending vertex
    order; its host is the lowest sender storing its messages.
    """
    K = inst.K
    holders = [_receiver_mask(h) for h in inst.holders]
    # Bit j-1 of apart[k] is set when j != k+1 and neither of receivers
    # j and k+1 knows the other's message.
    apart = [~(1 << k) & ~_receiver_mask(known) for k, known in enumerate(inst.side_info)]
    for k, known in enumerate(inst.side_info):
        for m in known:
            apart[m - 1] &= ~(1 << k)
    alone = {}  # single holder mask -> the messages only it stores
    for k, h in enumerate(holders):
        if not h & (h - 1):
            alone[h] = alone.get(h, 0) | 1 << k
    adj = [alone.get(h, 0) & apart[k] for k, h in enumerate(holders)]
    clique = [v + 1 for v in _first_maximum_clique(adj, (1 << K) - 1)]
    hosts = holders[clique[0] - 1]
    witness = ComplementCliqueWitness(
        vertices=frozenset(clique),
        host_sender=(hosts & -hosts).bit_length(),
        sender_conditions=tuple(
            COND_CONTAINS if hosts >> n & 1 else COND_NO_LOOPS for n in range(inst.N)
        ),
    )
    return len(clique), witness
