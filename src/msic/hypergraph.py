"""Side-information hypergraph, composite adjacency and fitting tests.

Edges are 4-tuples (k, k2, n, n2): receiver k, message k2, sender pair
{n, n2}.  Three classes exist:

  demand   (k, k, n, n)    sender n stores the demanded message k
  cached   (k, k2, n, n)   receiver k already holds k2 and sender n stores it
  coupled  (k, k2, n, n2)  n != n2 both store k2, which k neither holds nor wants

The composite adjacency of a hypergraph (or of a selected sub-hypergraph)
is a list of N bit matrices A_1..A_N, one K x K block per sender.

Each rule is stated once.  `build` holds the edge classes, and
`adjacency` reads a hypergraph's edges rather than restating them.
`fits` holds the fitting criterion and the normalized form of a
selection; `sub_adjacency` checks only a selection's shape and index
ranges and then asks `fits` to give the selection back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Dict, FrozenSet, List, Optional, Tuple

from .gf2 import gf2_rank
from .instance import Instance

__all__ = [
    "HyperEdge",
    "SideInfoHypergraph",
    "CompositeAdjacency",
    "SubChoice",
    "build",
    "adjacency",
    "sub_adjacency",
    "fits",
    "complement",
    "sender_projection_pairs",
]

DEMAND = "demand"
CACHED = "cached"
COUPLED = "coupled"


@dataclass(frozen=True, order=True)
class HyperEdge:
    k: int
    k2: int
    n: int
    n2: int
    kind: str

    def __post_init__(self):
        if self.kind == DEMAND:
            if self.k != self.k2 or self.n != self.n2:
                raise ValueError(f"demand edge must have k==k2 and n==n2: {self}")
        elif self.kind == CACHED:
            if self.k == self.k2 or self.n != self.n2:
                raise ValueError(f"cached edge must have k!=k2 and n==n2: {self}")
        elif self.kind == COUPLED:
            if self.k == self.k2 or self.n >= self.n2:
                raise ValueError(f"coupled edge must have k!=k2 and n<n2: {self}")
        else:
            raise ValueError(f"unknown edge kind {self.kind!r}")


@dataclass(frozen=True)
class SideInfoHypergraph:
    inst: Instance
    demand: FrozenSet[HyperEdge]
    cached: FrozenSet[HyperEdge]
    coupled: FrozenSet[HyperEdge]


@dataclass(frozen=True)
class CompositeAdjacency:
    """N blocks of K rows; row bit m-1 is the column for message m."""

    K: int
    N: int
    blocks: Tuple[Tuple[int, ...], ...]

    def entry(self, k: int, k2: int, n: int) -> int:
        return (self.blocks[n - 1][k - 1] >> (k2 - 1)) & 1

    def sum_rank(self) -> int:
        return sum(gf2_rank(block) for block in self.blocks)


@dataclass(frozen=True)
class SubChoice:
    """One edge selection per receiver, normalized.

    demand_senders[k-1]   senders whose demand edge for k is selected
    cached_edges[k-1]     selected cached edges as (message, sender) pairs
    coupled_senders[k-1]  pairs (message k2, even sender set), k2 ascending,
                          each k2 once, empty sender sets omitted

    All three fields and each coupled_senders entry are tuples.  The
    normalized form is what `fits` returns; it is the one place that
    states it, and `sub_adjacency` rejects any other form.
    """

    demand_senders: Tuple[FrozenSet[int], ...]
    cached_edges: Tuple[FrozenSet[Tuple[int, int]], ...]
    coupled_senders: Tuple[Tuple[Tuple[int, FrozenSet[int]], ...], ...]


def build(inst: Instance) -> SideInfoHypergraph:
    """All demand, cached and coupled edges of an instance."""
    holders = inst.holders
    demand = set()
    cached = set()
    coupled = set()
    for k in range(1, inst.K + 1):
        for n in holders[k - 1]:
            demand.add(HyperEdge(k, k, n, n, DEMAND))
        for m in inst.side_info[k - 1]:
            for n in holders[m - 1]:
                cached.add(HyperEdge(k, m, n, n, CACHED))
        for k2 in range(1, inst.K + 1):
            if k2 == k or k2 in inst.side_info[k - 1]:
                continue
            for i, n in enumerate(holders[k2 - 1]):
                for n2 in holders[k2 - 1][i + 1:]:
                    coupled.add(HyperEdge(k, k2, n, n2, COUPLED))
    return SideInfoHypergraph(
        inst=inst,
        demand=frozenset(demand),
        cached=frozenset(cached),
        coupled=frozenset(coupled),
    )


def adjacency(hg: SideInfoHypergraph) -> CompositeAdjacency:
    """Composite adjacency of a hypergraph, read from its edges.

    A demand or cached edge (k, k2, n, n) sets entry (k, k2) of A_n.  A
    coupled edge (k, k2, n, n2) flips entry (k, k2) of A_n and of A_n2,
    so a position covered only by coupled edges carries the parity of
    the number of partner senders.  The edge classes themselves are
    `build`'s (or `complement`'s); nothing here restates them.
    """
    inst = hg.inst
    rows = [[0] * inst.K for _ in range(inst.N)]
    for e in hg.demand | hg.cached:
        rows[e.n - 1][e.k - 1] |= 1 << (e.k2 - 1)
    for e in hg.coupled:
        rows[e.n - 1][e.k - 1] ^= 1 << (e.k2 - 1)
        rows[e.n2 - 1][e.k - 1] ^= 1 << (e.k2 - 1)
    return CompositeAdjacency(K=inst.K, N=inst.N, blocks=tuple(map(tuple, rows)))


def sub_adjacency(choice: SubChoice, inst: Instance) -> CompositeAdjacency:
    """Composite adjacency of the sub-hypergraph selected by `choice`.

    Only the shape is checked here: one entry per receiver, and every
    selected cell names a message in 1..K and a sender in 1..N.  Each
    cell is ORed into its block, and the matrix is returned only when
    `fits` maps it back to `choice` itself, so `fits` is the one
    statement of the fitting criterion and of the normalized form.
    Anything else raises ValueError.
    """
    K, N = inst.K, inst.N
    if any(len(f) != K for f in (choice.demand_senders, choice.cached_edges, choice.coupled_senders)):
        raise ValueError("choice must carry one entry per receiver")
    messages, senders = range(1, K + 1), range(1, N + 1)
    rows = [[0] * K for _ in range(N)]
    for k in messages:
        cells = [(k, n) for n in choice.demand_senders[k - 1]]
        cells += choice.cached_edges[k - 1]
        cells += [(k2, n) for k2, ns in choice.coupled_senders[k - 1] for n in ns]
        for m, n in cells:
            if m not in messages or n not in senders:
                raise ValueError(f"receiver {k}: no cell for message {m!r} at sender {n!r}")
            rows[n - 1][k - 1] |= 1 << (m - 1)
    A = CompositeAdjacency(K=K, N=N, blocks=tuple(map(tuple, rows)))
    if fits(A, inst) != choice:
        raise ValueError("choice is not a normalized fitting selection of the instance")
    return A


def fits(A: CompositeAdjacency, inst: Instance) -> Optional[SubChoice]:
    """Witness selection whose sub-adjacency equals A, or None.

    This is the one map from a matrix back to a `SubChoice`; the solver
    recovers its witness selection through it.  It checks the fitting
    criterion in its parity form: every row of sender n lies inside n's
    store (so each 1 is a demand, cached or coupled edge of n), and the
    XOR of receiver k's rows over the senders, restricted to the
    messages k does not know, is e_k (an odd sender set for the demand,
    an even one for each unknown message).  Then the rows split into
    the demand senders, the cached (message, sender) cells and the
    coupled sender set of each unknown message.  Only the set bits of
    receiver k's rows are visited, so the split is linear in them.
    """
    K = inst.K
    if (
        A.K != K
        or A.N != inst.N
        or len(A.blocks) != inst.N
        or any(len(block) != K for block in A.blocks)
    ):
        return None
    for block, store in zip(A.blocks, inst.sender_stores):
        allowed = sum(1 << (m - 1) for m in store)
        if any(row & ~allowed for row in block):
            return None
    demand_sel: List[FrozenSet[int]] = []
    cached_sel: List[FrozenSet[Tuple[int, int]]] = []
    coupled_sel: List[Tuple[Tuple[int, FrozenSet[int]], ...]] = []
    everything = (1 << K) - 1
    for k in range(1, K + 1):
        rows = [block[k - 1] for block in A.blocks]
        known = inst.side_info[k - 1]
        demand = 1 << (k - 1)
        parity = everything & ~sum(1 << (m - 1) for m in known) | demand
        if reduce(xor, rows) & parity != demand:
            return None
        # holding[m]: the senders whose row sets bit m - 1
        holding: Dict[int, List[int]] = {}
        for n, row in enumerate(rows, start=1):
            while row:
                low = row & -row
                row ^= low
                holding.setdefault(low.bit_length(), []).append(n)
        senders = {m: frozenset(ns) for m, ns in holding.items()}
        demand_sel.append(senders[k])
        cached_sel.append(frozenset((m, n) for m in known for n in senders.get(m, ())))
        coupled_sel.append(tuple(
            (m, senders[m]) for m in sorted(senders) if m != k and m not in known
        ))
    return SubChoice(
        demand_senders=tuple(demand_sel),
        cached_edges=tuple(cached_sel),
        coupled_senders=tuple(coupled_sel),
    )


def complement(hg: SideInfoHypergraph) -> SideInfoHypergraph:
    """Complement hypergraph: marks pairs a sender serves in no way.

    Demand edges are copied.  For k != k2, the edge (k, k2, n, n) exists
    iff no edge of hg serves the pair through sender n: not cached at n,
    and no coupled edge for (k, k2) touches n.  Exclusions win whenever
    the two readings collide.  The result has no coupled edges.

    This is the literal construction; `bounds.complement_clique_lower`
    reads its closed form from bit masks instead, and the tests check
    that bound against a scan over this complement.
    """
    inst = hg.inst
    blocked: Dict[Tuple[int, int], set] = {}
    for e in hg.cached:
        blocked.setdefault((e.k, e.k2), set()).add(e.n)
    for e in hg.coupled:
        blocked.setdefault((e.k, e.k2), set()).update((e.n, e.n2))
    off_diag = set()
    for k in range(1, inst.K + 1):
        for k2 in range(1, inst.K + 1):
            if k2 == k:
                continue
            taken = blocked.get((k, k2), set())
            for n in range(1, inst.N + 1):
                if n not in taken:
                    off_diag.add(HyperEdge(k, k2, n, n, CACHED))
    return SideInfoHypergraph(
        inst=inst,
        demand=hg.demand,
        cached=frozenset(off_diag),
        coupled=frozenset(),
    )


def sender_projection_pairs(hg: SideInfoHypergraph) -> Tuple[FrozenSet[Tuple[int, int]], ...]:
    """Per sender n, the directed pairs (k, k2) of same-sender edges (n, n)."""
    pairs: List[set] = [set() for _ in range(hg.inst.N)]
    for e in hg.demand | hg.cached:
        if e.n == e.n2:
            pairs[e.n - 1].add((e.k, e.k2))
    return tuple(frozenset(p) for p in pairs)
