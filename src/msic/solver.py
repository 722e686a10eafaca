"""Exact minimum total rank over all valid edge selections.

The search walks the Cartesian product of per-receiver selections
(odd demand subsets x any cached subset x even coupled sender sets per
unknown message), maintaining one XOR basis per sender so each block's
rank updates incrementally.  A basis is a list of K pivot slots indexed
by bit position.  The bases above a level stay the same for its whole
loop, so the loop walks the level's options as a coset modulo them.  A
receiver's options are an affine space (see below) and reduction
modulo a row space is linear, so option idx + 1, reduced, is option
idx, reduced, XOR one reduced sum of generators.  A reduced row is
nonzero exactly when it adds one to its sender's rank, so the rank an
option adds is its count of nonzero reduced rows, and an option whose
count reaches the room left below the incumbent is cut inside the
walk, without touching a basis.  A surviving option's reduced rows
have no bit at any pivot, so each goes straight into the slot of its
top bit and is undone by zeroing that slot.

The last receiver's options are never inserted.  The
fitting criterion ties the senders together only through parities: the
demand must reach an odd number of senders and each message the
receiver does not know an even number, so that the signals cancel.  So
an option of receiver k is any choice of one row r_n per sender n in
V_n, the span of the messages n stores, with sigma_k(sum of the r_n) =
e_k, where sigma_k keeps bit k and the bits of the messages k does not
know.  Let d* be the least rank increase any option can add to the
current bases.  Every basis row of sender n lies in V_n, so d* = 0
exactly when e_k lies in the span of sigma_k(b) over every basis row b
of every sender: one elimination over at most K bits.  Otherwise d* = 1,
since option 0 (the demand at its first holder, nothing else) adds at
most one.  So a probe of the last level counts all its options as
leaves and then either skips (rank + d* reaches the incumbent), takes
option 0 (d* = 1), or walks, in canonical order, to the first
option that adds nothing (d* = 0): the option a full enumeration would
end on.  The greedy seed picks its options the same way, and with
pruning an inner level whose room has fallen to one returns at once
when its d* is 1, since every option left there would be cut.

With pruning, the search also skips repeated states.  The best
completion below a node depends only on its level and on each sender's
row space, not on the options that built them.  So before entering an
inner level the search keys the state by every sender's basis in
reduced row echelon form, and skips the subtree if that level was
already entered with the same key.  The incumbent only falls and only
strict improvements are accepted in canonical order, so a repeated
state cannot improve on what its first entry left: the optimum and the
canonically first witness stay the same, and only the leaf count
falls.  Entries into the probed last level are not keyed, nor entries
into a level that only one path reaches (every level above it has one
option), since its key could never repeat.

With pruning, the search also cuts by the residual MAIS bound (after
Bar-Yossef, Birk, Jayram and Kol, FOCS 2006).  Let S be a set of the
receivers still to place that is acyclic in the side-information
digraph (k -> m when k knows m), and r the rank of every basis row of
every sender masked to the columns S.  Every completion adds at least
|S| - r.  Proof: for k in S, k's option summed over the senders and
masked to S has bit k and no bit of a message k does not know, so these
sums form a unit triangular block on S; project the final row spaces
onto S, then take the quotient by the current ones.  The cut is tested
before an inner child's state key is looked up or stored.  The rows
above a level are fixed for its loop, so the loop eliminates them,
masked to S, at most once, and each option then reduces only its own
masked rows against a copy.  There is no elimination while
rank + |S| stays below the incumbent, nor any copy when the bound still
reaches the incumbent with one added to r for each of the option's
nonzero masked rows.  At the root the bound is the MAIS itself, so
once the incumbent falls to it the search stops: only strict
improvements are accepted.

When the greedy seed is above the MAIS, the root stop uses a sender-group
bound instead, if it is larger (in the spirit of Li, Ong and Johnson's
cooperative multi-sender index coding, IEEE Trans. IT 2019).  Split the
senders into groups, and let R_g be the receivers whose demand has every
holder in group g.  Sum the blocks of group g.  For k and m in R_g,
no sender outside g stores m, so bit m of the summed row k is bit m of
the sum over every sender: 1 for m = k, and 0 when k does not know m.
So the sum, restricted to the rows and columns of R_g, fits G[R_g],
the side-information digraph on R_g, and its rank is at least
MAIS(G[R_g]).  The rank of a sum is at most the sum of the ranks, and
the groups are disjoint, so the summed block ranks are at least B =
the sum over g of MAIS(G[R_g]).  The search takes the larger B of two
partitions (`_group_bound`): every sender alone, and the components
that shared demand holders join.  When every two receivers share a
holder, at most one group has receivers, so B is at most the MAIS and
is not computed.

One search stores at most VISITED_STATE_CAP = 65,536 keys over all
levels.  Past the cap keys are still looked up but no longer added, so
the search stays exact and deterministic.  A key is an int of at most
b = 1 + K(K + 1) + N bits and costs about 56 + b / 7.5 bytes with its
set slot (CPython 3.11), so the sets take at most 4.5 MB at K = 10,
N = 4 (b = 115) and 13.8 MB at K = N = 34 (b = 1225).

An option's N per-sender rows are one int, sender n's row at bit
(n - 1)(K + 1), as receiver k's rows of the composite adjacency
[A_1 ... A_N] are one row; the tables, the walk and the witness use
this format and no other (see `_ReceiverTable`).  No table stores its
options, and the search stores no rows but the bases.  A level's loop
computes its first option from the generators, reduces each sum of
generators the first time a step uses it, and steps with one XOR.
Beyond the bases, a live loop holds at most one reduced sum per
generator of its table and the masked basis of the residual cut, so
the search's memory is bounded by K, N and the depth, not by the size
of its tables.

The canonical order on selections lives here and nowhere else: in the
option tables built by `_ReceiverTable`.  It is the ascending order of
each option's mask key (odd demand mask over the message's holders,
cached mask over the (message, holder) cells, then one even coupled
mask per unknown message), and every key of one table has the same
length.  By the parity criterion above, a receiver's options are an
affine space over GF(2), so a table is option 0 and one generator
per free bit, in ascending significance: option idx is
option 0 XOR the generators that idx's bits pick, and index order is
key order (see `_ReceiverTable`).  Receiver 1 is the outermost loop,
hence the tuple of option indices orders selections exactly as the
concatenated keys would, depth-first order is the canonical order and
the first minimizer found is the canonically smallest witness.  The
witness selection is recovered from the witness matrix by
`hypergraph.fits`, which checks the same parity criterion.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations
from operator import xor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# Not called here; only bench/pin.py reads it.
from .gf2 import basis_add  # noqa: F401
from .hypergraph import CompositeAdjacency, SubChoice, fits
from .instance import Instance, derive_stats

__all__ = [
    "SolveReport",
    "ComplexityProfile",
    "SearchCapError",
    "SearchCapConfigError",
    "hyperminrank",
    "search_space_size",
    "complexity_exponents",
    "minrank_single",
    "DEFAULT_SEARCH_CAP",
]

DEFAULT_SEARCH_CAP = 34
SEARCH_CAP_ENV = "MSIC_SEARCH_CAP"
# Not used here; only bench/pin.py reads it.
PARALLEL_MIN_EXPONENT = 16
# Visited-state keys one search stores, over all levels (see above).
VISITED_STATE_CAP = 1 << 16
# Nodes the search for one level's acyclic set may visit (`_acyclic_sets`).
ACYCLIC_NODE_CAP = 1 << 12


class SearchCapError(RuntimeError):
    """Search-space exponent exceeds the configured cap."""


class SearchCapConfigError(ValueError):
    """MSIC_SEARCH_CAP is set but is not an integer."""


@dataclass(frozen=True)
class SolveReport:
    hyperminrank: int
    witness: CompositeAdjacency
    witness_choice: SubChoice
    candidates_examined: int
    elapsed: float


@dataclass(frozen=True)
class ComplexityProfile:
    search_space: int
    e1: int
    e2: int
    e3: int
    total_load: int
    e_embedded: Optional[int]
    threshold_holds: bool
    threshold_lhs: Fraction
    threshold_rhs: Fraction


# ---- exponent calculators ----


def search_space_size(inst: Instance) -> Tuple[int, int]:
    """(2**E1, E1): the advertised enumeration size and its exponent."""
    profile = complexity_exponents(inst)
    return profile.search_space, profile.e1


def _search_exponent(inst: Instance, replication: Sequence[int]) -> int:
    """E1 from the replication degrees (replication[m - 1] senders store
    message m): over the receivers k, |R(k)| plus the holders past the
    first of every message k does not know, its demand included.
    `complexity_exponents` and the cap check of `hyperminrank` both
    compute E1 here."""
    extra = [max(dm - 1, 0) for dm in replication]
    total_extra = sum(extra)
    return sum(
        len(known) + total_extra - sum(extra[m - 1] for m in known)
        for known in inst.side_info
    )


def complexity_exponents(inst: Instance) -> ComplexityProfile:
    """Search exponents, the per-sender quadratic cost exponent, the
    replication threshold verdict, and the embedded-case exponent when
    the instance has K == N with every node storing exactly what it
    knows."""
    stats = derive_stats(inst)
    d = stats.replication
    e1 = _search_exponent(inst, d)
    # E2 counts every holder of a known message, where E1 counts one.
    e2 = e1 + sum(d[m - 1] - 1 for known in inst.side_info for m in known)
    e3 = sum((len(s) ** 2 + len(s)) // 2 for s in inst.sender_stores)
    embedded = inst.K == inst.N and all(
        inst.sender_stores[n - 1] == inst.side_info[n - 1] for n in range(1, inst.N + 1)
    )
    e_embedded = None
    if embedded:
        e_embedded = stats.total_load + sum(
            (dm - 1) * (inst.K - dm) for dm in d
        )
    lhs = Fraction(stats.r0, inst.K) + stats.delta
    rhs = (1 + stats.delta) ** 2 / Fraction(2 * inst.N)
    return ComplexityProfile(
        search_space=1 << e1,
        e1=e1,
        e2=e2,
        e3=e3,
        total_load=stats.total_load,
        e_embedded=e_embedded,
        threshold_holds=lhs <= rhs,
        threshold_lhs=lhs,
        threshold_rhs=rhs,
    )


# ---- enumeration tables ----


class _ReceiverTable:
    """All selections of one receiver, in canonical ascending order.

    The fitting criterion makes them an affine space over GF(2): option
    idx is `first` (option 0, the demand at its first holder) XOR
    gens[i] for each set bit i of idx, and there are count = 2 **
    len(gens) options.  An option and each generator are one int that
    packs the per-sender rows: sender n's row of K bits at bit
    (n - 1)(K + 1), with a spare 0 bit above it (`_packing`), and
    `cell(n, m)` is the bit of message m in sender n's row;
    `_nonzero_rows` splits such an int back into rows.  The generators
    come in ascending significance, groups last first: each unknown
    message from the last, then the cached (message, holder) cells of
    the side information one by one, then the demand.  A parity group
    (the demand or an unknown message, holders h_0 < h_1 < ...) gives,
    for j >= 1, its bit at h_j together with its bit at h_0: so the
    group's option j is its j-th odd (demand) or even (unknown message)
    holder set in ascending mask order, and index order is the order of
    the (demand mask, cached mask, coupled masks...) keys (see the
    module docstring).

    The table stores no option.  `row` computes any one, and the search
    walks a range of them modulo its bases (`_walk`), one XOR of
    flips[t], the XOR of gens[:t + 1], per step.  Options are numbered
    in canonical order, so `keys` is range(count).  `demand` is the
    receiver's message bit and `parity` (sigma) adds the bits of the
    messages it does not know: the coordinates whose sums over the
    senders the fitting criterion fixes.
    `holders` has bit n - 1 set when sender n stores the demand.
    """

    def __init__(self, inst: Instance, k: int):
        holders = inst.holders

        def cell(n: int, m: int) -> int:
            return 1 << (n - 1) * (inst.K + 1) + m - 1

        def parity_group(m: int) -> List[int]:
            h0, *rest = holders[m - 1]
            return [cell(h0, m) | cell(n, m) for n in rest]

        known = inst.side_info[k - 1]
        unknown = [m for m in range(1, inst.K + 1) if m != k and m not in known]
        # a message with one holder adds no generator: skip it without a call
        coupled = [m for m in reversed(unknown) if len(holders[m - 1]) > 1]
        gens = [gen for m in coupled for gen in parity_group(m)]
        gens += [cell(n, m) for m in sorted(known) for n in holders[m - 1]]
        gens += parity_group(k)
        self.demand = 1 << (k - 1)
        self.holders = sum(1 << (n - 1) for n in holders[k - 1])
        self.parity = sum(1 << (m - 1) for m in unknown) | self.demand
        self.first = cell(holders[k - 1][0], k)
        self.gens = gens
        self.flips = list(accumulate(gens, xor))
        self.count = 1 << len(gens)
        self.keys = range(self.count)

    def row(self, idx: int) -> int:
        """Option idx, computed, not stored: `first` XOR the generators
        that idx's bits pick."""
        row = self.first
        while idx:
            low = idx & -idx
            row ^= self.gens[low.bit_length() - 1]
            idx ^= low
        return row


def _build_tables(inst: Instance) -> List[_ReceiverTable]:
    return [_ReceiverTable(inst, k) for k in range(1, inst.K + 1)]


# ---- the search itself ----


def _nonzero_rows(packed: int, K: int) -> List[Tuple[int, int]]:
    """(n, row) for each nonzero row of the packed rows (see
    `_ReceiverTable`), n from 0: the rows of an option, or, when packed
    holds them modulo the bases, the rows it adds to its senders' bases."""
    rows = []
    n = 0
    while packed:
        row = packed & ((1 << K) - 1)
        if row:
            rows.append((n, row))
        packed >>= K + 1
        n += 1
    return rows


@cache
def _packing(K: int, N: int) -> Tuple[int, int, int]:
    """(unit, spare, ones) of the packing of N rows of K bits (see
    `_ReceiverTable`): unit has bit 0 of each row set, spare the bit
    above each row and ones the K bits of each row, so s * unit packs
    the row s for every sender.  (packed + ones) & spare keeps the spare
    bit of every nonzero row, since adding K ones carries into it
    exactly then."""
    unit = sum(1 << n * (K + 1) for n in range(N))
    spare = unit << K
    return unit, spare, spare - unit


def _modulo(pivots: List[List[int]], rows: int) -> int:
    """The packed `rows` modulo the bases: each sender's row with every
    pivot bit cleared by that sender's basis rows, so it keeps only bits
    at empty slots.  That is the one such representative of the row's
    coset modulo the sender's span, so the map is linear, and a row adds
    one to its sender's rank exactly when its result is nonzero.  One
    loop runs over the set bits, top down: bit p is bit q of sender
    n + 1's row, and reduces by that sender's pivot row at q, if any."""
    width = len(pivots[0]) + 1
    packed = 0
    while rows:
        p = rows.bit_length() - 1
        n, q = divmod(p, width)
        v = pivots[n][q]
        if v:
            rows ^= v << p - q
        else:
            packed |= 1 << p
            rows ^= 1 << p
    return packed


def _walk(
    pivots: List[List[int]], table: _ReceiverTable, indices: range, room: List[int]
) -> Iterator[Tuple[int, int, int]]:
    """(idx, rank increase, rows) for the options `indices` (a unit-step
    range) of `table` modulo the bases, in index order, whose increase
    is below room[0].

    `room` is a one-item list the walk reads at every step: the caller
    may lower room[0] while the walk waits at a yield, and the options
    after it are then cut against the new value.  A cut option costs
    one XOR and one count and is never yielded.  Most options are cut
    (15,797 of the 16,524 that the walks of search-wide's seeds 0-3
    step over, probes and greedy seeds included), and yielding each of
    them to a test in the caller made search-wide's solves about 4-5%
    slower (in process, 2 vCPUs, Python 3.11.7).

    rows is `_modulo` of option idx, and the increase is its count of
    nonzero rows (`_packing`).  idx + 1 is idx with its t trailing ones
    cleared and bit t set, so option idx + 1 is option idx XOR flips[t],
    the XOR of gens[:t + 1].  Reduction is linear, so the same holds
    modulo the bases.  The table holds option idx and flips[t] packed,
    so each step is one XOR of two ints, and each flips[t] is reduced,
    packed to packed, the first time a step uses it.  The bases must be
    the same at every step.
    """
    _, spare, ones = _packing(len(pivots[0]), len(pivots))
    flips = table.flips
    reduced: List[Optional[int]] = [None] * len(flips)
    start = indices.start
    rows = 0
    for idx in indices:
        if idx == start:
            rows = _modulo(pivots, table.row(idx))
        else:
            t = (idx & -idx).bit_length() - 1
            flip = reduced[t]
            if flip is None:
                flip = reduced[t] = _modulo(pivots, flips[t])
            rows ^= flip
        increase = ((rows + ones) & spare).bit_count()
        if increase < room[0]:
            yield idx, increase, rows


def _least_increase(pivots: List[List[int]], table: _ReceiverTable) -> int:
    """d*: the least rank any option of `table` adds to the bases, 0 or 1.

    Per-sender rows form an option exactly when each row lies in V_n,
    the span of sender n's stored messages, and their sum over the
    senders, masked to `table.parity` (sigma), is the demand bit e_k.
    Every basis row of sender n lies in V_n, so some option adds nothing
    exactly when e_k lies in the span of sigma(b) over every basis row b
    of every sender: e_k raises that masked rank by 0 or 1
    (`_masked_rank`).  Otherwise option 0 (the demand at its first
    holder, nothing else) adds one.
    """
    basis: Dict[int, int] = {}
    rank = _masked_rank(basis, filter(None, chain.from_iterable(pivots)), table.parity)
    return _masked_rank(basis, (table.demand,), table.parity) - rank


def _cheapest(
    pivots: List[List[int]], table: _ReceiverTable, indices: range, room: int
) -> Optional[Tuple[int, int]]:
    """(rank increase, index) of the first option in `indices` whose
    increase is the least there, if it is below `room`; else None.

    No option adds less than d* (`_least_increase`), so nothing is
    walked when d* >= room, and the walk stops at the first option that
    adds d*.  Over the whole table that is option 0 when d* = 1, and the
    first option that adds nothing when d* = 0.  An option adds one per
    sender whose row is nonzero modulo the bases, and the walk yields
    only options below the room, which falls to each one found (`_walk`).
    """
    floor = _least_increase(pivots, table)
    if floor >= room:
        return None
    if floor and indices.start == 0 < indices.stop:
        return 1, 0  # option 0 puts the demand at its first holder only
    found = None
    below = [room]
    for idx, delta, _ in _walk(pivots, table, indices, below):
        found = delta, idx
        if delta == floor:
            break
        below[0] = delta
    return found


def _acyclic_sets(knows: List[int]) -> List[int]:
    """sets[c]: the mask of an acyclic set of the receivers of levels
    c..K-1 in the side-information digraph; knows[k] has bit m set when
    the receiver of level k knows message m + 1 (an arc k -> m).

    Built from the last level up: a set one larger than sets[c + 1]
    must contain c.  So level c takes sets[c + 1] plus c if acyclic,
    else the first acyclic set of |sets[c + 1]| + 1 receivers from c on
    in combinations order, else sets[c + 1].  Each set is a maximum one
    unless a level's search would pass ACYCLIC_NODE_CAP nodes; that
    level keeps sets[c + 1], still a valid bound, so the solve stays
    exact and deterministic.  Adding u to an acyclic set closes a cycle
    exactly when u reaches, inside the set, a receiver that knows u.

    An acyclic set keeps at most one end of each 2-cycle, so levels
    c..K-1 hold none larger than K - c less the number of disjoint
    2-cycles among them.  A greedy matching of mutual pairs, grown as
    the levels go up, counts such cycles; where that rules out the
    target, the level is not searched, as the search would find nothing.
    """
    K = len(knows)
    full = (1 << K) - 1
    known_by = [0] * K
    for k, known in enumerate(knows):
        while known:
            low = known & -known
            known ^= low
            known_by[low.bit_length() - 1] |= 1 << k

    def closes_cycle(u: int, chosen: int) -> bool:
        reach = frontier = knows[u] & chosen
        while frontier and not reach & known_by[u]:
            step = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                step |= knows[bit.bit_length() - 1]
            frontier = step & chosen & ~reach
            reach |= frontier
        return bool(reach & known_by[u])

    sets = [1 << (K - 1)] * K
    unmatched = 1 << (K - 1)  # levels above c in no matched 2-cycle
    pairs = 0
    for c in range(K - 2, -1, -1):
        partner = knows[c] & known_by[c] & unmatched
        if partner:
            unmatched ^= partner & -partner
            pairs += 1
        else:
            unmatched |= 1 << c
        if not closes_cycle(c, sets[c + 1]):
            sets[c] = sets[c + 1] | 1 << c
            continue
        target = sets[c + 1].bit_count() + 1
        if K - c - pairs < target:
            sets[c] = sets[c + 1]
            continue
        chosen = 1 << c
        size = 1
        # stack[i] holds the candidates left to follow members[i].
        stack = [full ^ ((2 << c) - 1)]
        members = [c]
        nodes = 0
        found = 0
        while stack and nodes < ACYCLIC_NODE_CAP:
            candidates = stack[-1]
            if size + candidates.bit_count() < target:
                stack.pop()
                chosen ^= 1 << members.pop()
                size -= 1
                continue
            nodes += 1
            low = candidates & -candidates
            stack[-1] = candidates ^ low
            u = low.bit_length() - 1
            if closes_cycle(u, chosen):
                continue
            chosen |= low
            size += 1
            if size == target:
                found = chosen
                break
            members.append(u)
            stack.append(stack[-1])
        sets[c] = found or sets[c + 1]
    return sets


def _group_bound(holders: Sequence[int], knows: Sequence[int], mais: int) -> int:
    """max(mais, B): the root bound of the search (see the module docstring).

    holders[k] and knows[k] are the masks of the senders that store the
    demand of level k and of the levels whose messages it knows; mais is
    the size of an acyclic set of every level.  B is the larger of the
    sums of MAIS(G[R_g]) over two partitions of the senders: each sender
    alone, and the components that shared demand holders join.  Each
    MAIS is `_acyclic_sets` run on G[R_g].  A single component has the
    whole MAIS, so it is not recomputed.
    """
    masks = set(holders)
    if all(a & b for a, b in combinations(masks, 2)):
        return mais  # one group at most has receivers
    components: List[int] = []
    for mask in masks:
        for group in [g for g in components if g & mask]:
            components.remove(group)
            mask |= group
        components.append(mask)

    @cache
    def group_mais(group: int) -> int:
        members = [k for k, h in enumerate(holders) if not h & ~group]
        sub = [sum(1 << i for i, m in enumerate(members) if knows[k] >> m & 1) for k in members]
        return _acyclic_sets(sub)[0].bit_count()

    # alone, a sender's group holds only the receivers it alone can serve
    partitions = [[m for m in masks if not m & (m - 1)]]
    if len(components) > 1:
        partitions.append(components)
    return max(mais, *(sum(map(group_mais, groups)) for groups in partitions))


def _masked_rank(basis: Dict[int, int], rows: Iterable[int], mask: int) -> int:
    """The rank of `basis` ({pivot bit: row}) and `rows` masked to
    `mask`.  The rows go into `basis` in place."""
    for row in rows:
        row &= mask
        while row:
            p = row.bit_length() - 1
            v = basis.get(p)
            if v is None:
                basis[p] = row
                break
            row ^= v
    return len(basis)


def _state_key(pivots: List[List[int]], width: int) -> int:
    """The bases as one int (see `_search`): a leading 1 bit, then for
    each sender its rows in reduced row echelon form in pivot order,
    each as a 1 flag bit and its width - 1 row bits, and a closing 0
    bit.  Only the filled slots are read.

    The rows are taken in ascending pivot order.  A reduced row has no
    bit at a lower pivot and none above its own, so XORing it into a
    later row clears that pivot's bit and no other pivot's: each pivot
    bit a row has below its own costs one XOR.
    """
    flag = 1 << (width - 1)
    key = 1
    for pv in pivots:
        reduced = {}  # pivot: the reduced row of the rows so far
        below = 0  # their pivot bits
        for row in filter(None, pv):
            hit = row & below
            while hit:
                q = hit.bit_length() - 1
                row ^= reduced[q]
                hit ^= 1 << q
            p = row.bit_length() - 1
            reduced[p] = row
            below |= 1 << p
            key = key << width | flag | row
        key <<= 1
    return key


def _greedy_dive(tables: Sequence[_ReceiverTable], N: int) -> int:
    """One greedy root-to-leaf descent, used only to seed the incumbent.

    Picking the option with the smallest immediate rank increase (ties
    to the smallest index) usually lands close to the optimum, which
    lets the exact pass prune hard from the start.  Any seed >= the
    true minimum keeps the canonically-first witness reachable, so this
    never changes the reported result.  The smallest increase is d*,
    0 or 1 (`_least_increase`), so each level takes option 0 or walks
    to its first option that adds nothing; no table is walked whole.
    The option's rows go in modulo the bases (`_modulo`), each into the
    slot of its top bit, as in `_search`.
    """
    K = len(tables)
    pivots = [[0] * K for _ in range(N)]
    total = 0
    for table in tables:
        delta, idx = _cheapest(pivots, table, range(table.count), N + 1)
        for n, row in _nonzero_rows(_modulo(pivots, table.row(idx)), K):
            pivots[n][row.bit_length() - 1] = row
        total += delta
    return total


def _search(
    tables: Sequence[_ReceiverTable],
    N: int,
    prune: bool,
    first_range: range,
    incumbent: int,
) -> Tuple[Optional[int], Optional[Tuple[int, ...]], int]:
    """Depth-first scan; returns (value, option indices, leaves).

    The scan runs on its own stack of frames, not on the Python call
    stack, so it may go K levels deep whatever the recursion limit.
    A frame is a `descend` generator over one level's options:
    where it would enter a child, it yields (child, indices, rank), and
    the loop at the end pushes a frame for that child, pops a frame once
    it is exhausted and resumes the one below.  A frame takes its
    option's rows out of the bases when it resumes, as a returning call
    would, so the bases are the same at every option of one frame.

    Sender n's XOR basis is pivots[n], a list of K slots indexed by the
    pivot bit (0 = empty slot).  A frame walks its options modulo those
    fixed bases (`_walk`): one XOR of packed rows per option, and an
    option adds one rank per sender whose reduced row is nonzero.  With
    pruning, the walk itself cuts an option when that count reaches the
    room left below the incumbent, so a cut option touches no slot and
    reaches no code of the frame.  Only a survivor's probe or subtree
    can lower the incumbent, so the frame lowers the walk's room after
    each survivor.  A survivor's nonzero reduced rows have no bit at a
    pivot, so each goes straight from the packed rows into the slot of
    its top bit and is zeroed from there on the way back.  A level stops
    once its parent's rank alone reaches the incumbent, or once the room
    left is one and its d* is 1 (`_least_increase`): then every option
    left would be cut, so no leaf and no state key changes.

    The last level is only probed, through d* (see the module
    docstring): every last-level option counts as a leaf, also when the
    probe is skipped, and the probe takes the option a full enumeration
    in canonical order would end on, the first that adds the least rank
    below the room (`_cheapest`).

    With pruning, an inner child is cut first when rank + |sets[child]|,
    less the rank r of the bases masked to sets[child], reaches the
    incumbent.  The bases above the level are fixed for the frame, so
    the frame eliminates them once, at its first cut test
    (`_masked_rank`), and each option reduces only its own masked rows,
    against a copy, unless the bound reaches the incumbent with one
    added to r per nonzero masked row, read off the packed rows masked
    by spreads[child], sets[child] repeated for every sender.  Once
    a probe brings the incumbent down to the root bound, its frame
    returns and the loop stops (see the module docstring).  The
    root bound is |sets[0]|, or `_group_bound` when the incumbent starts
    above |sets[0]| + 1.

    With pruning, an inner child that survives the cut is entered only
    if its state key is new at its level (see the module docstring).
    The key is an int built from the filled slots (`_state_key`).
    seen[c] holds the keys of level c, at most VISITED_STATE_CAP of them
    over all levels.  Levels above first_keyed have one path into them
    and are not keyed.

    No rows are stored beyond the bases and, per live frame, its masked
    basis, the reduced flips its walk has used and the nonzero rows of
    its current option (`_nonzero_rows`).  `first_range` is
    any unit-step range of first-level options, not only the whole
    level.
    """
    K = len(tables)
    last = K - 1
    last_table = tables[last]
    full = [range(table.count) for table in tables]
    pivots = [[0] * K for _ in range(N)]
    combo = [0] * K
    best = incumbent
    found: Optional[Tuple[int, ...]] = None
    leaves = 0
    unit, spare, ones = _packing(K, N)
    seen = [set() for _ in range(K)]
    stored = 0
    # A level with one path into it is entered at most once, so its key
    # could never match: keying starts at the first level with more.
    first_keyed = last
    # stop - start, as len() of a range past 2^63 - 1 raises
    paths = first_range.stop - first_range.start
    for child in range(1, last):
        if paths > 1:
            first_keyed = child
            break
        paths *= tables[child].count
    if prune:
        # a receiver knows the messages outside its table's parity
        knows = [((1 << K) - 1) & ~table.parity for table in tables]
        sets = _acyclic_sets(knows)
        sizes = [s.bit_count() for s in sets]
        spreads = [s * unit for s in sets]
        root = sizes[0]
        if incumbent > root + 1:  # the seed is above the MAIS
            root = _group_bound([t.holders for t in tables], knows, root)
    else:
        root = -1

    def probe(indices: range, rank: int) -> None:
        nonlocal best, found, leaves
        leaves += indices.stop - indices.start
        cheapest = _cheapest(pivots, last_table, indices, best - rank)
        if cheapest is not None:
            delta, combo[last] = cheapest
            best = rank + delta
            found = tuple(combo)

    def descend(level: int, indices: range, rank: int) -> Iterator[Tuple[int, range, int]]:
        nonlocal stored
        table = tables[level]
        child = level + 1
        visited = seen[child]
        # the bases masked to sets[child], eliminated at the first cut test
        basis: Optional[Dict[int, int]] = None
        # the walk cuts an option whose increase reaches the room
        room = [best - rank if prune else N + 1]
        if room[0] == 1 and _least_increase(pivots, table):
            return  # every option adds one: all are cut
        for idx, added, packed in _walk(pivots, table, indices, room):
            if prune and child < last and (slack := rank + added + sizes[child] - best) >= 0:
                if basis is None:
                    basis = {}
                    _masked_rank(basis, filter(None, chain.from_iterable(pivots)), sets[child])
                r = len(basis)
                # each of the option's masked rows adds at most one to r
                if r + (((packed & spreads[child]) + ones) & spare).bit_count() <= slack or (
                    r <= slack
                    and _masked_rank(
                        basis.copy(), (v for _, v in _nonzero_rows(packed, K)), sets[child]
                    )
                    <= slack
                ):
                    continue  # cut: the residual acyclic-set bound reaches the incumbent
            combo[level] = idx
            filled = _nonzero_rows(packed, K)
            for n, row in filled:
                pivots[n][row.bit_length() - 1] = row
            if child == last:
                probe(full[last], rank + added)
                if best <= root:
                    return  # no later option can improve on it
            elif not prune or child < first_keyed:
                yield child, full[child], rank + added
            else:
                key = _state_key(pivots, K + 1)
                if key not in visited:
                    if stored < VISITED_STATE_CAP:
                        visited.add(key)
                        stored += 1
                    yield child, full[child], rank + added
            for n, row in filled:
                pivots[n][row.bit_length() - 1] = 0
            if prune and best - rank < room[0]:
                room[0] = best - rank
                if room[0] <= 0 or room[0] == 1 and _least_increase(pivots, table):
                    return  # every option left would be cut

    if last == 0:
        probe(first_range, 0)
    else:
        stack = [descend(0, first_range, 0)]
        while stack and best > root:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(descend(*child))
    if found is None:
        return None, None, leaves
    return best, found, leaves


def _effective_cap(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get(SEARCH_CAP_ENV)
    if raw is None:
        return DEFAULT_SEARCH_CAP
    try:
        return int(raw)
    except ValueError:
        raise SearchCapConfigError(f"{SEARCH_CAP_ENV} must be an integer, got {raw!r}") from None


def hyperminrank(
    inst: Instance,
    prune: bool = True,
    cap: Optional[int] = None,
) -> SolveReport:
    """Exact minimum of the summed block ranks, with witness.

    One sequential depth-first search over the option tables, seeded
    by a greedy descent, so every field but `elapsed` depends only on
    the instance and `prune`.  With pruning it stops once the incumbent
    reaches the root lower bound: the MAIS, or, when the seed is above
    it, the larger sender-group bound (see the module docstring).

    Raises SearchCapError when the advertised exponent exceeds the cap
    (default 34, overridable via the MSIC_SEARCH_CAP variable or `cap`)
    and SearchCapConfigError when MSIC_SEARCH_CAP is not an integer.
    """
    e1 = _search_exponent(inst, [len(h) for h in inst.holders])
    effective = _effective_cap(cap)
    if e1 > effective:
        raise SearchCapError(
            f"search exponent E1={e1} exceeds cap {effective}; "
            f"raise {SEARCH_CAP_ENV} or pass a larger cap to proceed"
        )
    started = time.perf_counter()
    tables = _build_tables(inst)
    if prune:
        incumbent = _greedy_dive(tables, inst.N) + 1
    else:
        incumbent = inst.K + 1
    value, combo, leaves = _search(tables, inst.N, prune, range(tables[0].count), incumbent)
    assert combo is not None
    blocks = [[0] * inst.K for _ in range(inst.N)]
    for k, (table, idx) in enumerate(zip(tables, combo)):
        for n, row in _nonzero_rows(table.row(idx), inst.K):
            blocks[n][k] = row
    witness = CompositeAdjacency(K=inst.K, N=inst.N, blocks=tuple(map(tuple, blocks)))
    choice = fits(witness, inst)
    assert choice is not None
    assert witness.sum_rank() == value
    return SolveReport(
        hyperminrank=value,
        witness=witness,
        witness_choice=choice,
        candidates_examined=leaves,
        elapsed=time.perf_counter() - started,
    )


# ---- single-sender classical minimum rank ----


def minrank_single(inst: Instance, cap: Optional[int] = None) -> int:
    """Minimum rank over matrices with unit diagonal and off-diagonal
    support inside the side-information sets, for a single sender (who
    stores every message, since the instance is valid).

    A depth-first search with one row per receiver, run on its own stack
    of generator frames like `_search` but independent of it, so tests
    can use it as the classical reference at any K."""
    if inst.N != 1:
        raise ValueError(f"needs a single sender, got N={inst.N}")
    exponent = sum(len(r) for r in inst.side_info)
    effective = _effective_cap(cap)
    if exponent > effective:
        raise SearchCapError(
            f"free-entry exponent {exponent} exceeds cap {effective}"
        )
    K = inst.K
    side_bits = []
    for k in range(1, K + 1):
        bits = [1 << (m - 1) for m in sorted(inst.side_info[k - 1])]
        side_bits.append(bits)
    best = K + 1
    pivots = [0] * K

    def rows(k: int, rank: int) -> Iterator[Tuple[int, int]]:
        """Reduce each row of receiver k into `pivots` in turn and yield
        the child (k + 1, its rank); the row leaves `pivots` on resume."""
        base = 1 << (k - 1)
        bits = side_bits[k - 1]
        for mask in range(1 << len(bits)):
            row = base
            for i, bit in enumerate(bits):
                if (mask >> i) & 1:
                    row |= bit
            slot = -1
            while row:
                p = row.bit_length() - 1
                v = pivots[p]
                if not v:
                    pivots[p] = row
                    slot = p
                    break
                row ^= v
            yield k + 1, rank + (slot >= 0)
            if slot >= 0:
                pivots[slot] = 0

    stack = [rows(1, 0)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child[1] < best:
            if child[0] > K:
                best = child[1]
            else:
                stack.append(rows(*child))
    return best
