"""Exact minimum total rank over all valid edge selections.

The search walks the Cartesian product of per-receiver selections
(odd demand subsets x any cached subset x even coupled sender sets per
unknown message), maintaining one XOR basis per sender so each block's
rank updates incrementally.  A basis is a list of K pivot slots indexed
by bit position; rows are inserted in place and undone by zeroing the
slot they filled.

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
option 0 (d* = 1), or scans lazily, in canonical order, to the first
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
before an inner child's state key is looked up or stored, with no
elimination while rank + |S| stays below the incumbent.  At the root
the bound is the MAIS itself, so once the incumbent falls to it the
search stops: only strict improvements are accepted.

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

No table stores its options.  The search scans a level lazily, and
keeps the level's rows for its later entries only once a loop over
the whole level has run to its end.  A level that only one path
reaches is entered once and never kept.  So the rows one search
stores never exceed the options it has scanned: its memory is bounded
by its work, not by the size of its tables.

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
from itertools import accumulate, combinations
from operator import xor
from typing import Iterator, List, Optional, Sequence, Tuple

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


def _xor(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(map(xor, a, b))


class _ReceiverTable:
    """All selections of one receiver, in canonical ascending order.

    The fitting criterion makes them an affine space over GF(2): option
    idx is `first` (option 0, the demand at its first holder) XOR
    gens[i] for each set bit i of idx, and there are count = 2 **
    len(gens) options.  An option and each generator are tuples of
    per-sender rows.  The generators come in ascending significance,
    groups last first: each unknown message from the last, then the
    cached (message, holder) cells of the side information one by one,
    then the demand.  A parity group (the demand or an unknown message,
    holders h_0 < h_1 < ...) gives, for j >= 1, its bit at h_j together
    with its bit at h_0: so the group's option j is its j-th odd
    (demand) or even (unknown message) holder set in ascending mask
    order, and index order is the order of the (demand mask, cached
    mask, coupled masks...) keys (see the module docstring).

    The table stores no option.  `row` computes any one, and `scan`
    walks any range of them lazily: idx + 1 is idx with its t trailing
    ones cleared and bit t set, so each step XORs in flips[t], the XOR
    of gens[:t + 1].  Only the search keeps rows (see `_search`).
    Options are numbered in canonical order, so `keys` is
    range(count).  `demand` is the receiver's message bit and `parity`
    (sigma) adds the bits of the messages it does not know: the
    coordinates whose sums over the senders the fitting criterion fixes.
    `holders` has bit n - 1 set when sender n stores the demand.
    """

    def __init__(self, inst: Instance, k: int):
        holders = inst.holders

        def cells(*pairs: Tuple[int, int]) -> Tuple[int, ...]:
            row = [0] * inst.N
            for n, bit in pairs:
                row[n - 1] ^= bit
            return tuple(row)

        def parity_group(m: int) -> List[Tuple[int, ...]]:
            h0, *rest = holders[m - 1]
            return [cells((h0, 1 << (m - 1)), (n, 1 << (m - 1))) for n in rest]

        known = inst.side_info[k - 1]
        unknown = [m for m in range(1, inst.K + 1) if m != k and m not in known]
        # a message with one holder adds no generator: skip it without a call
        coupled = [m for m in reversed(unknown) if len(holders[m - 1]) > 1]
        gens = [gen for m in coupled for gen in parity_group(m)]
        gens += [cells((n, 1 << (m - 1))) for m in sorted(known) for n in holders[m - 1]]
        gens += parity_group(k)
        self.demand = 1 << (k - 1)
        self.holders = sum(1 << (n - 1) for n in holders[k - 1])
        self.parity = sum(1 << (m - 1) for m in unknown) | self.demand
        self.first = cells((holders[k - 1][0], self.demand))
        self.gens = gens
        self.flips = list(accumulate(gens, _xor))
        self.count = 1 << len(gens)
        self.keys = range(self.count)

    def row(self, idx: int) -> Tuple[int, ...]:
        """Option idx, computed, not stored: `first` XOR the generators
        that idx's bits pick."""
        row = self.first
        for i, gen in enumerate(self.gens):
            if idx >> i & 1:
                row = _xor(row, gen)
        return row

    def scan(self, indices: range) -> Iterator[Tuple[int, ...]]:
        """The rows of options `indices` (a unit-step range), in index
        order, one tuple XOR per step."""
        flips = self.flips
        row = self.row(indices.start)
        yield row
        for idx in range(indices.start, indices.stop - 1):
            row = tuple(map(xor, row, flips[(idx ^ (idx + 1)).bit_length() - 1]))
            yield row


def _build_tables(inst: Instance) -> List[_ReceiverTable]:
    return [_ReceiverTable(inst, k) for k in range(1, inst.K + 1)]


# ---- the search itself ----


def _least_increase(pivots: List[List[int]], table: _ReceiverTable) -> int:
    """d*: the least rank any option of `table` adds to the bases, 0 or 1.

    Per-sender rows form an option exactly when each row lies in V_n,
    the span of sender n's stored messages, and their sum over the
    senders, masked to `table.parity` (sigma), is the demand bit e_k.
    Every basis row of sender n lies in V_n, so some option adds nothing
    exactly when e_k lies in the span of sigma(b) over every basis row b
    of every sender: one elimination over at most K bits.  Otherwise
    option 0 (the demand at its first holder, nothing else) adds one.
    """
    parity = table.parity
    basis = [0] * len(pivots[0])
    for pv in pivots:
        for row in filter(None, pv):
            row &= parity
            while row:
                p = row.bit_length() - 1
                v = basis[p]
                if not v:
                    basis[p] = row
                    break
                row ^= v
    row = table.demand
    while row:
        v = basis[row.bit_length() - 1]
        if not v:
            return 1
        row ^= v
    return 0


def _cheapest(
    pivots: List[List[int]], table: _ReceiverTable, indices: range, room: int
) -> Optional[Tuple[int, int]]:
    """(rank increase, index) of the first option in `indices` whose
    increase is the least there, if it is below `room`; else None.

    No option adds less than d* (`_least_increase`), so nothing is
    scanned when d* >= room, and the scan stops at the first option that
    adds d*.  Over the whole table that is option 0 when d* = 1, and the
    first option that adds nothing when d* = 0.
    """
    floor = _least_increase(pivots, table)
    if floor >= room:
        return None
    if floor and indices.start == 0 < indices.stop:
        return 1, 0  # option 0 puts the demand at its first holder only
    found = None
    for idx, rows in zip(indices, table.scan(indices)):
        delta = 0
        for pv, row in zip(pivots, rows):
            while row:
                v = pv[row.bit_length() - 1]
                if not v:
                    delta += 1
                    break
                row ^= v
            if delta >= room:
                break
        else:
            found = delta, idx
            if delta == floor:
                break
            room = delta
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


def _rank_above(pivots: List[List[int]], mask: int, limit: int) -> bool:
    """Whether every basis row of every sender, masked to `mask`, spans
    more than `limit` dimensions; the elimination stops once it does."""
    basis = [0] * len(pivots[0])
    rank = 0
    for pv in pivots:
        for row in filter(None, pv):
            row &= mask
            while row:
                p = row.bit_length() - 1
                v = basis[p]
                if not v:
                    basis[p] = row
                    rank += 1
                    if rank > limit:
                        return True
                    break
                row ^= v
    return False


def _greedy_dive(tables: Sequence[_ReceiverTable], N: int) -> int:
    """One greedy root-to-leaf descent, used only to seed the incumbent.

    Picking the option with the smallest immediate rank increase (ties
    to the smallest index) usually lands close to the optimum, which
    lets the exact pass prune hard from the start.  Any seed >= the
    true minimum keeps the canonically-first witness reachable, so this
    never changes the reported result.  The smallest increase is d*,
    0 or 1 (`_least_increase`), so each level takes option 0 or scans
    to its first option that adds nothing; no table is scanned whole.
    """
    K = len(tables)
    pivots = [[0] * K for _ in range(N)]
    total = 0
    for table in tables:
        delta, idx = _cheapest(pivots, table, range(table.count), N + 1)
        for pv, row in zip(pivots, table.row(idx)):
            while row:
                p = row.bit_length() - 1
                v = pv[p]
                if not v:
                    pv[p] = row
                    break
                row ^= v
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
    it is exhausted and resumes the one below.  A frame keeps its undo
    state in its own locals, so it undoes its option's rows when it
    resumes, as a returning call would.

    Sender n's XOR basis is pivots[n], a list of K slots indexed by the
    pivot bit (0 = empty slot).  Above the last level each row is
    reduced and inserted in place; the slots it filled are recorded in
    the level's undo lists and zeroed on the way back.  With pruning,
    insertion stops as soon as the rank reaches the incumbent, since
    that option is cut anyway, and a level stops once its parent's rank
    alone reaches it, or once the room left is one and its d* is 1
    (`_least_increase`): then every option left would be cut, so no leaf
    and no state key changes.

    The last level is only probed, through d* (see the module
    docstring): every last-level option counts as a leaf, also when the
    probe is skipped, and the probe takes the option a full enumeration
    in canonical order would end on, the first that adds the least rank
    below the room (`_cheapest`).

    With pruning, an inner child is cut first when rank + |sets[child]|,
    less the rank of the bases masked to sets[child] (`_rank_above`),
    reaches the incumbent.  Once a probe brings the incumbent down to
    the root bound, its frame returns and the loop stops (see the module
    docstring).  The root bound is |sets[0]|, or `_group_bound` when
    the incumbent starts above |sets[0]| + 1.

    With pruning, an inner child that survives the cut is entered only
    if its state key is new at its level (see the module docstring).
    The key is an int: a leading 1 bit, then for each sender in order
    its reduced row echelon rows in pivot order, each as a 1 flag bit
    and K row bits, and a closing 0 bit.  seen[c] holds the keys of
    level c, at most VISITED_STATE_CAP of them over all levels.  Levels
    above first_keyed have one path into them and are not keyed.

    A level's options are scanned lazily (`_ReceiverTable.scan`) until
    a loop over the level runs to its end without returning early; then
    kept[level] stores the level's rows, and later entries read them.
    Only levels from first_keyed on are kept: the others are entered at
    most once.  So the rows kept never exceed the options scanned.
    """
    K = len(tables)
    last = K - 1
    last_table = tables[last]
    full = [range(table.count) for table in tables]
    pivots = [[0] * K for _ in range(N)]
    undo_pivots = [[pivots[0]] * N for _ in range(K)]
    undo_slots = [[0] * N for _ in range(K)]
    combo = [0] * K
    best = incumbent
    found: Optional[Tuple[int, ...]] = None
    leaves = 0
    unlimited = N + 1
    bits = [1 << p for p in range(K)]
    flag = 1 << K
    width = K + 1
    seen = [set() for _ in range(K)]
    stored = 0
    kept: List[Optional[List[Tuple[int, ...]]]] = [None] * K
    # A level with one path into it is entered at most once, so its key
    # could never match: keying starts at the first level with more.
    first_keyed = last
    paths = len(first_range)
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
        root = sizes[0]
        if incumbent > root + 1:  # the seed is above the MAIS
            root = _group_bound([t.holders for t in tables], knows, root)
    else:
        root = -1

    def probe(indices: range, rank: int) -> None:
        nonlocal best, found, leaves
        leaves += len(indices)
        cheapest = _cheapest(pivots, last_table, indices, best - rank)
        if cheapest is not None:
            delta, combo[last] = cheapest
            best = rank + delta
            found = tuple(combo)

    def descend(level: int, indices: range, rank: int) -> Iterator[Tuple[int, range, int]]:
        nonlocal stored
        table = tables[level]
        touched = undo_pivots[level]
        slots = undo_slots[level]
        child = level + 1
        visited = seen[child]
        floor = None  # d* of this level, found once the room falls to 1
        for idx, rows in zip(indices, kept[level] or table.scan(indices)):
            if prune:
                room = best - rank
                if room == 1:
                    if floor is None:
                        floor = _least_increase(pivots, table)
                    if floor:
                        return  # every option left adds one: all are cut
                elif room <= 0:
                    return
            else:
                room = unlimited
            added = 0
            for pv, row in zip(pivots, rows):
                while row:
                    p = row.bit_length() - 1
                    v = pv[p]
                    if not v:
                        pv[p] = row
                        touched[added] = pv
                        slots[added] = p
                        added += 1
                        break
                    row ^= v
                else:
                    continue  # dependent row: nothing inserted
                if added >= room:
                    break  # cut: the rank reached the incumbent
            else:
                combo[level] = idx
                if child == last:
                    probe(full[last], rank + added)
                    if best <= root:
                        return  # no later option can improve on it
                elif (
                    prune
                    and (slack := rank + added + sizes[child] - best) >= 0
                    and not _rank_above(pivots, sets[child], slack)
                ):
                    pass  # cut: the residual acyclic-set bound reaches the incumbent
                elif not prune or child < first_keyed:
                    yield child, full[child], rank + added
                else:
                    key = 1
                    for pv in pivots:
                        reduced = []
                        for bit, row in zip(bits, pv):
                            if row:
                                for b, r in reduced:
                                    if row & b:
                                        row ^= r
                                reduced.append((bit, row))
                                key = key << width | flag | row
                        key <<= 1
                    if key not in visited:
                        if stored < VISITED_STATE_CAP:
                            visited.add(key)
                            stored += 1
                        yield child, full[child], rank + added
            while added:
                added -= 1
                touched[added][slots[added]] = 0
        if level >= first_keyed and kept[level] is None:
            kept[level] = list(table.scan(full[level]))

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
    witness = CompositeAdjacency(
        K=inst.K,
        N=inst.N,
        blocks=tuple(zip(*(table.row(idx) for table, idx in zip(tables, combo)))),
    )
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
