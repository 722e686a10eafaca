"""Differential referee for the solver's GF(2) search kernel.

`_reference_greedy_dive` and `_reference_search` are the dict-pivot
kernel the list-indexed one replaced: every row goes through
`gf2.basis_add`, the last level inserts and undoes like the others, and
every option of every table is enumerated, over rows the referee
expands from the instance alone (`_expand`: the demand, cached and
coupled mask groups, last group fastest), where the kernel stops at the
least rank increase d* or scans nothing.  The same expansion checks the
kernel's option tables.  `_reference_search` adds the kernel's
visited-state rule with its own state key, the set of every vector in
each sender's span, and stores at most `cap` keys; it keys no level
that only one path reaches.  Before the key is looked up it applies
the kernel's residual acyclic-set cut, with sets of its own
(`_reference_acyclic_sets`: combinations and Kahn's check on
`inst.side_info`), and it stops once the incumbent falls to its root
bound (`_reference_root_bound`): the larger of the root set's size and
the sender-group bounds of two partitions, each sender alone and the
components that shared demand holders join, each group's MAIS found by
trying its receivers' subsets with Kahn's check.  The current kernel
must return the same greedy seed and the same (value, option indices,
leaves) triple on every instance, with and without pruning, over the
whole first level and over contiguous first-level chunks, under a
patched key cap, and, with pruning, from every incumbent up to K + 1,
where the incumbent falls inside the upper frames.

d* itself (`solver._least_increase`) and the option the kernel takes
for it (`solver._cheapest`) are checked against full enumeration of a
materialized table, in random search states reached by inserting a
random prefix of options.  In the same states the kernel's walk of a
level modulo the bases (`solver._walk`) is checked option by option:
its packed rows against `solver._modulo` of the referee's rows for the
option, packed by the test's own `_pack`, and, unpacked, against the
pivots; its increase against the rank increase from `gf2_rank`; and
the options it yields under a room against those whose increase is
below it.  `_modulo` is checked to be linear on packed ints.  The
witness blocks `hyperminrank` returns are checked against the
referee's rows of the options `_search` picks.  The residual cut's
masked elimination (`solver._masked_rank`) is checked against
`gf2_rank` of the masked rows.  The acyclic sets
(`solver._acyclic_sets`) are checked against the referee's rule and,
for their sizes, against the largest acyclic subset found by trying
every subset.  The kernel's root bound (`solver._group_bound`) is
checked against the brute-force maximum over every partition of the
senders, against the oracle optimum and against the unpruned search.
"""

from __future__ import annotations

import math
import random
import time
from functools import cache, reduce
from itertools import chain, combinations, product
from operator import or_
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import corpus_instance, fully_replicated, instances, random_suite
from msic import solver
from msic.bounds import complement_clique_lower
from msic.gf2 import basis_add, gf2_rank
from msic.instance import Instance, generate_embedded, generate_random, serialize_instance
from msic.oracle import optimal_linear_code_bruteforce
from msic.solver import (
    _build_tables,
    _cheapest,
    _greedy_dive,
    _least_increase,
    _search,
    complexity_exponents,
    hyperminrank,
)


def _expand(inst: Instance) -> List[List[Tuple[int, ...]]]:
    """Every option of every receiver in canonical order, from the
    instance alone: the odd demand masks over the sorted holders, every
    mask over the (message, holder) cells of the side information, then
    the even masks over the holders of each unknown message; each
    group's masks ascending, the last group fastest."""
    holders = [sorted(inst.stores_of(m)) for m in range(1, inst.K + 1)]

    def group(cells: List[Tuple[int, int]], parity: Optional[int]) -> List[Tuple[int, ...]]:
        rows = []
        for mask in range(1 << len(cells)):
            if parity is None or mask.bit_count() % 2 == parity:
                row = [0] * inst.N
                for i, (n, m) in enumerate(cells):
                    if mask >> i & 1:
                        row[n - 1] |= 1 << (m - 1)
                rows.append(tuple(row))
        return rows

    tables = []
    for k in range(1, inst.K + 1):
        known = sorted(inst.side_info[k - 1])
        groups = [
            group([(n, k) for n in holders[k - 1]], 1),
            group([(n, m) for m in known for n in holders[m - 1]], None),
        ]
        groups += [
            group([(n, m) for n in holders[m - 1]], 0)
            for m in range(1, inst.K + 1)
            if m != k and m not in known
        ]
        tables.append(
            [tuple(reduce(or_, column) for column in zip(*parts)) for parts in product(*groups)]
        )
    return tables


def _pack(rows: Sequence[int], K: int) -> int:
    """Per-sender rows as one int, sender n's row (n from 0) at bit
    n(K + 1): the kernel's packed row format, built on its own."""
    return sum(row << n * (K + 1) for n, row in enumerate(rows))


def _reference_greedy_dive(inst: Instance) -> int:
    N = inst.N
    pivots: List[Dict[int, int]] = [dict() for _ in range(N)]
    total = 0
    for table_rows in _expand(inst):
        best_idx = 0
        best_delta = None
        for idx, rows in enumerate(table_rows):
            delta = 0
            for n in range(N):
                row = rows[n]
                if row:
                    probe = dict(pivots[n])
                    if basis_add(probe, row) is not None:
                        delta += 1
            if best_delta is None or delta < best_delta:
                best_delta = delta
                best_idx = idx
                if delta == 0:
                    break
        for n in range(N):
            row = table_rows[best_idx][n]
            if row:
                basis_add(pivots[n], row)
        total += best_delta or 0
    return total


def _span(rows) -> FrozenSet[int]:
    span = {0}
    for row in rows:
        span |= {vec ^ row for vec in span}
    return frozenset(span)


def _acyclic(side_info: Sequence[FrozenSet[int]], receivers) -> bool:
    """Kahn's check: strip the receivers that know no message left until
    none is left (acyclic) or none can go (a cycle)."""
    left = set(receivers)
    while left:
        sinks = {k for k in left if not side_info[k - 1] & left}
        if not sinks:
            return False
        left -= sinks
    return True


def _reference_acyclic_sets(side_info: Sequence[FrozenSet[int]]) -> List[int]:
    """The kernel's sets, by combinations: level c takes level c+1's set
    plus receiver c+1 if acyclic, else the first acyclic set of receivers
    c+1..K one larger than level c+1's, else level c+1's."""
    K = len(side_info)
    sets = [frozenset({K})] * K
    for c in range(K - 2, -1, -1):
        tries = chain([sets[c + 1] | {c + 1}], combinations(range(c + 1, K + 1), len(sets[c + 1]) + 1))
        sets[c] = next((frozenset(s) for s in tries if _acyclic(side_info, s)), sets[c + 1])
    return [sum(1 << (k - 1) for k in s) for s in sets]


def _mais(side_info: Sequence[FrozenSet[int]], receivers) -> int:
    """The size of a largest acyclic subset of `receivers`, by Kahn's
    check on their subsets, largest first."""
    receivers = sorted(receivers)
    sizes = range(len(receivers), 0, -1)
    return next(
        (r for r in sizes if any(_acyclic(side_info, s) for s in combinations(receivers, r))), 0
    )


def _partition_bound(inst: Instance, groups) -> int:
    """The sum over the sender groups g of MAIS(G[R_g]), where R_g holds
    the receivers whose demand has every holder in g."""
    return sum(
        _mais(inst.side_info, [k for k in range(1, inst.K + 1) if inst.stores_of(k) <= g])
        for g in groups
    )


@cache
def _reference_root_bound(inst: Instance) -> int:
    """The root set's size, or the larger sender-group bound of two
    partitions: every sender alone, and the components that shared
    demand holders join (a union-find over the senders)."""
    parent = list(range(inst.N + 1))

    def find(n: int) -> int:
        while parent[n] != n:
            n = parent[n]
        return n

    for k in range(1, inst.K + 1):
        first, *rest = inst.stores_of(k)
        for n in rest:
            parent[find(n)] = find(first)
    components: Dict[int, Set[int]] = {}
    for n in range(1, inst.N + 1):
        components.setdefault(find(n), set()).add(n)
    singles = [{n} for n in range(1, inst.N + 1)]
    root = _reference_acyclic_sets(inst.side_info)[0].bit_count()
    return max(
        root, _partition_bound(inst, singles), _partition_bound(inst, components.values())
    )


def _reference_search(
    inst: Instance,
    prune: bool,
    first_range: range,
    incumbent: int,
    cap: int,
) -> Tuple[Optional[int], Optional[Tuple[int, ...]], int]:
    K = inst.K
    N = inst.N
    all_rows = _expand(inst)
    pivots: List[Dict[int, int]] = [dict() for _ in range(N)]
    combo = [0] * K
    state = {"best": incumbent, "combo": None, "leaves": 0, "rank": 0, "stored": 0}
    seen: List[Set[Tuple[FrozenSet[int], ...]]] = [set() for _ in range(K)]
    sets = _reference_acyclic_sets(inst.side_info)
    root = _reference_root_bound(inst)

    def cut(level: int) -> bool:
        """Every completion adds at least |S| minus the rank of the bases
        masked to S, for the acyclic set S of the receivers left."""
        if level == K - 1:
            return False  # the last level is probed, never cut
        masked = [row & sets[level] for n in range(N) for row in pivots[n].values()]
        return state["rank"] + sets[level].bit_count() - gf2_rank(masked) >= state["best"]

    def first_entry(level: int) -> bool:
        if level == K - 1:
            return True
        paths = len(first_range) * math.prod(len(rows) for rows in all_rows[1:level])
        if paths == 1:
            return True  # entered at most once: not keyed
        key = tuple(_span(pivots[n].values()) for n in range(N))
        if key in seen[level]:
            return False
        if state["stored"] < cap:
            seen[level].add(key)
            state["stored"] += 1
        return True

    def descend(level: int, indices) -> None:
        last = level == K - 1
        for idx in indices:
            if prune and not last and state["best"] <= root:
                return  # nothing can beat the root bound
            rows = all_rows[level][idx]
            combo[level] = idx
            added = []
            delta = 0
            for n in range(N):
                row = rows[n]
                if row:
                    pivot = basis_add(pivots[n], row)
                    if pivot is not None:
                        added.append((n, pivot))
                        delta += 1
            state["rank"] += delta
            if last:
                state["leaves"] += 1
                if state["rank"] < state["best"]:
                    state["best"] = state["rank"]
                    state["combo"] = tuple(combo)
            elif not prune or (
                state["rank"] < state["best"] and not cut(level + 1) and first_entry(level + 1)
            ):
                descend(level + 1, range(len(all_rows[level + 1])))
            state["rank"] -= delta
            for n, pivot in added:
                del pivots[n][pivot]

    descend(0, first_range)
    if state["combo"] is None:
        return None, None, state["leaves"]
    return state["best"], state["combo"], state["leaves"]


def _instances():
    out = [(f"suite{i}", inst) for i, inst in enumerate(random_suite(50))]
    out += [(name, corpus_instance(f"{name}.json")) for name in ("ex1", "ex2", "ex3")]
    for g in range(40):
        inst = generate_random(10, 4, 0.3, 3, seed=g)
        if complexity_exponents(inst).e2 <= 18:
            out.append((f"random10x4_{g}", inst))
    return out


INSTANCES = _instances()


def test_referee_covers_six_ten_receiver_instances():
    assert len([name for name, _ in INSTANCES if name.startswith("random10x4")]) == 6


def _chunks(first_count: int, workers: int) -> List[range]:
    """`workers` contiguous chunks of the first level: `_search` takes
    any first-level range, and must match the referee on each chunk."""
    edges = [round(i * first_count / workers) for i in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_kernel_matches_reference(name, inst):
    tables = _build_tables(inst)
    seed = _greedy_dive(tables, inst.N)
    assert seed == _reference_greedy_dive(inst)
    runs = [(True, min(seed, inst.K) + 1)]
    if complexity_exponents(inst).e2 <= 14:
        runs.append((False, inst.K + 1))
    first_count = tables[0].count
    for prune, incumbent in runs:
        for workers in (1, 2, 3):
            for chunk in _chunks(first_count, workers):
                got = _search(tables, inst.N, prune, chunk, incumbent)
                want = _reference_search(
                    inst, prune, chunk, incumbent, solver.VISITED_STATE_CAP
                )
                assert got == want, (serialize_instance(inst), prune, chunk)


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_kernel_matches_reference_under_a_key_cap(name, inst, monkeypatch):
    # cap 0 stores no key, so no subtree is skipped as a repeat (the
    # acyclic-set cut still applies); cap 3 fills the sets and then only
    # looks up
    tables = _build_tables(inst)
    incumbent = min(_greedy_dive(tables, inst.N), inst.K) + 1
    whole = range(tables[0].count)
    for cap in (0, 3):
        monkeypatch.setattr(solver, "VISITED_STATE_CAP", cap)
        got = _search(tables, inst.N, True, whole, incumbent)
        want = _reference_search(inst, True, whole, incumbent, cap)
        assert got == want, (serialize_instance(inst), cap)


def _one_sender(K: int, side_info: Sequence[Set[int]]) -> Instance:
    return Instance(
        K=K,
        N=1,
        sender_stores=(frozenset(range(1, K + 1)),),
        side_info=tuple(map(frozenset, side_info)),
    )


# From an incumbent of K + 1 the incumbent falls several times inside
# the upper frames while their room is above N + 1, so a later option
# of a frame can have a larger slack than the frame's first cut test.
# A masked basis eliminated only as far as that first slack cuts
# subtrees the residual bound does not: on the first instance the solve
# visits 2,052 leaves instead of 2,084, on the second 158 of 162.
RESUMED_BASIS = [
    _one_sender(8, [{7, 8}, {6, 7}, {7}, {6}, {7, 8}, {2, 5, 8}, {1, 2, 3, 6, 8}, {1, 2}]),
    _one_sender(
        11, [{5, 7, 8}, {1, 4, 9}, {7, 8}, (), {8}, (), {11}, {2, 7, 11}, {1, 3, 4}, {5}, {1}]
    ),
]
FALLING_INCUMBENT = [(f"resumed{i}", inst) for i, inst in enumerate(RESUMED_BASIS)]
FALLING_INCUMBENT += [(name, inst) for name, inst in INSTANCES if inst.N <= 2]


@pytest.mark.parametrize(
    "name,inst", FALLING_INCUMBENT, ids=[name for name, _ in FALLING_INCUMBENT]
)
def test_kernel_matches_reference_from_above_every_value(name, inst):
    tables = _build_tables(inst)
    whole = range(tables[0].count)
    for incumbent in range(min(_greedy_dive(tables, inst.N), inst.K) + 1, inst.K + 2):
        got = _search(tables, inst.N, True, whole, incumbent)
        want = _reference_search(inst, True, whole, incumbent, solver.VISITED_STATE_CAP)
        assert got == want, (serialize_instance(inst), incumbent)


def test_a_falling_incumbent_keeps_the_residual_cut_exact():
    # the greedy seed of both is K, so the solve itself starts at K + 1
    for inst, leaves in zip(RESUMED_BASIS, (2084, 162)):
        tables = _build_tables(inst)
        assert _greedy_dive(tables, inst.N) == inst.K
        assert hyperminrank(inst).candidates_examined == leaves


@given(instances(max_k=8, max_n=2))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_from_k_plus_one(inst):
    assume(complexity_exponents(inst).e2 <= 16)
    tables = _build_tables(inst)
    whole = range(tables[0].count)
    got = _search(tables, inst.N, True, whole, inst.K + 1)
    want = _reference_search(inst, True, whole, inst.K + 1, solver.VISITED_STATE_CAP)
    assert got == want, serialize_instance(inst)


# ---- the option tables and d* against full enumeration ----


def _state_instances():
    out = list(INSTANCES)
    out += [(f"full{K}_{N}", fully_replicated(K, N)) for K, N in ((2, 3), (2, 4), (3, 2), (3, 3))]
    for g in range(30):
        inst = generate_random(5, 4, 0.8, 3, seed=g)
        if complexity_exponents(inst).e2 <= 20:
            out.append((f"random5x4_{g}", inst))
    return out


STATE_INSTANCES = _state_instances()


def test_state_checks_cover_replicated_instances():
    assert len([name for name, _ in STATE_INSTANCES if name.startswith("random5x4")]) >= 5


def _increase(pivots: List[List[int]], rows: Tuple[int, ...]) -> int:
    """The rank `rows` add to the kernel bases, from gf2_rank."""
    return sum(
        gf2_rank([*pv, row]) - gf2_rank(pv) for pv, row in zip(pivots, rows)
    )


def _random_state(expanded: List[List[Tuple[int, ...]]], N: int, rng: random.Random):
    """Kernel bases after inserting one random option of each receiver
    in a random prefix, as `_search` holds them on the way down."""
    K = len(expanded)
    pivots = [[0] * K for _ in range(N)]
    for rows in expanded[: rng.randrange(K)]:
        for pv, row in zip(pivots, rng.choice(rows)):
            while row:
                p = row.bit_length() - 1
                if not pv[p]:
                    pv[p] = row
                    break
                row ^= pv[p]
    return pivots


@pytest.mark.parametrize("name,inst", STATE_INSTANCES, ids=[name for name, _ in STATE_INSTANCES])
def test_tables_match_the_referee_expansion(name, inst):
    tables = _build_tables(inst)
    for table, rows in zip(tables, _expand(inst)):
        assert table.count == len(rows)
        assert [table.row(i) for i in range(table.count)] == [_pack(r, inst.K) for r in rows]
        assert table.keys == range(table.count)


@pytest.mark.parametrize("name,inst", STATE_INSTANCES, ids=[name for name, _ in STATE_INSTANCES])
def test_witness_blocks_are_the_referee_rows_of_the_search_options(name, inst):
    # the options _search picks, expanded by the referee and regrouped per
    # sender: on fully replicated instances a witness with its senders
    # swapped would still fit and have the same summed rank
    tables = _build_tables(inst)
    incumbent = _greedy_dive(tables, inst.N) + 1
    _, combo, _ = _search(tables, inst.N, True, range(tables[0].count), incumbent)
    rows = [options[idx] for options, idx in zip(_expand(inst), combo)]
    assert hyperminrank(inst).witness.blocks == tuple(zip(*rows))


@cache
def _state_case(i: int):
    """(instance, kernel tables, referee expansion) of STATE_INSTANCES[i]."""
    inst = STATE_INSTANCES[i][1]
    return inst, _build_tables(inst), _expand(inst)


@given(st.integers(0, len(STATE_INSTANCES) - 1), st.integers(0, 1 << 32), st.data())
@settings(max_examples=300, deadline=None)
def test_walk_is_the_options_modulo_the_bases(i, seed, data):
    # the walk's packed rows against each option reduced on its own, its
    # increase against the rank increase from gf2_rank, and its cut
    # against the room
    inst, tables, expanded = _state_case(i)
    K, N = inst.K, inst.N
    pivots = _random_state(expanded, N, random.Random(seed))
    pivot_bits = [sum(1 << p for p, v in enumerate(pv) if v) for pv in pivots]
    level = data.draw(st.integers(0, K - 1))
    table, options = tables[level], expanded[level]
    start = data.draw(st.integers(0, table.count - 1))
    indices = range(start, min(table.count, start + 64))
    walked = list(solver._walk(pivots, table, indices, [N + 1]))
    assert [idx for idx, _, _ in walked] == list(indices)
    room = data.draw(st.integers(0, N + 1))
    cut = solver._walk(pivots, table, indices, [room])
    assert [(idx, increase) for idx, increase, _ in cut] == [
        (idx, increase) for idx, increase, _ in walked if increase < room
    ]
    for idx, increase, packed in walked:
        assert packed == solver._modulo(pivots, _pack(options[idx], K))
        filled = solver._nonzero_rows(packed, K)
        rows = [0] * N
        for n, row in filled:
            rows[n] = row
        assert packed == _pack(rows, K)  # nothing in the spare bits
        assert not any(row & bits for row, bits in zip(rows, pivot_bits))
        assert increase == len(filled) == _increase(pivots, options[idx])
        assert (packed == 0) == (increase == 0)
    vectors = st.tuples(*[st.integers(0, (1 << K) - 1)] * N).map(lambda rows: _pack(rows, K))
    a, b = data.draw(vectors), data.draw(vectors)
    assert solver._modulo(pivots, a ^ b) == solver._modulo(pivots, a) ^ solver._modulo(pivots, b)


@given(st.integers(0, len(STATE_INSTANCES) - 1), st.integers(0, 1 << 32), st.data())
@settings(max_examples=200, deadline=None)
def test_masked_rank_is_the_rank_of_the_masked_rows(i, seed, data):
    # the residual cut's elimination against gf2_rank, in one call and
    # split over two calls on the same basis
    inst, _, expanded = _state_case(i)
    pivots = _random_state(expanded, inst.N, random.Random(seed))
    rows = [row for pv in pivots for row in pv if row]
    mask = data.draw(st.integers(0, (1 << inst.K) - 1))
    want = gf2_rank([row & mask for row in rows])
    assert solver._masked_rank({}, rows, mask) == want
    split = data.draw(st.integers(0, len(rows)))
    basis: Dict[int, int] = {}
    solver._masked_rank(basis, rows[:split], mask)
    assert solver._masked_rank(basis, rows[split:], mask) == want
    assert all(row.bit_length() - 1 == p and not row & ~mask for p, row in basis.items())


@pytest.mark.parametrize("name,inst", STATE_INSTANCES, ids=[name for name, _ in STATE_INSTANCES])
def test_least_increase_matches_enumeration(name, inst):
    # d* and the option the kernel takes for it, in random search states,
    # against every option of the materialized table
    tables = _build_tables(inst)
    expanded = _expand(inst)
    rng = random.Random(name)
    for _ in range(8):
        pivots = _random_state(expanded, inst.N, rng)
        for table, rows in zip(tables, expanded):
            deltas = [_increase(pivots, row) for row in rows]
            assert _least_increase(pivots, table) == min(deltas) <= 1
            lo = rng.randrange(table.count)
            part = range(lo, rng.randrange(lo, table.count) + 1)
            for indices in (range(table.count), part):
                scanned = deltas[indices.start : indices.stop]
                least = min(scanned)
                first = (least, indices.start + scanned.index(least))
                for room in range(inst.N + 2):
                    want = first if least < room else None
                    got = _cheapest(pivots, table, indices, room)
                    assert got == want, (serialize_instance(inst), pivots, indices, room)


# ---- the acyclic sets behind the residual cut ----


def _knows(inst: Instance) -> List[int]:
    return [sum(1 << (m - 1) for m in known) for known in inst.side_info]


def _largest_acyclic(side_info: Sequence[FrozenSet[int]]) -> List[int]:
    """largest[c]: the size of a maximum acyclic set of receivers c+1..K,
    by Kahn's check on every subset."""
    K = len(side_info)
    largest = [0] * (K + 1)
    for mask in range(1, 1 << K):
        members = [k for k in range(1, K + 1) if mask >> (k - 1) & 1]
        if _acyclic(side_info, members):
            c = members[0] - 1
            largest[c] = max(largest[c], len(members))
    for c in range(K - 1, -1, -1):
        largest[c] = max(largest[c], largest[c + 1])
    return largest[:K]


def _check_acyclic_sets(inst: Instance) -> None:
    sets = solver._acyclic_sets(_knows(inst))
    assert sets == _reference_acyclic_sets(inst.side_info), serialize_instance(inst)
    assert [s.bit_count() for s in sets] == _largest_acyclic(inst.side_info)
    for c, s in enumerate(sets):
        assert s >> c << c == s  # receivers c+1..K only


def _acyclic_instances():
    out = [(f"suite{i}", inst) for i, inst in enumerate(random_suite(50))]
    out += [(f"embedded{K}_{g}", generate_embedded(K, g)) for K in range(3, 13) for g in range(3)]
    return out


ACYCLIC_INSTANCES = _acyclic_instances()


@pytest.mark.parametrize("name,inst", ACYCLIC_INSTANCES, ids=[n for n, _ in ACYCLIC_INSTANCES])
def test_acyclic_sets_are_maximum(name, inst):
    _check_acyclic_sets(inst)


@given(instances(max_k=9, max_n=4))
@settings(max_examples=150, deadline=None)
def test_acyclic_sets_are_maximum_on_any_instance(inst):
    _check_acyclic_sets(inst)


@st.composite
def _mutual_digraphs(draw):
    """Side information of K <= 9 receivers, rich in 2-cycles."""
    K = draw(st.integers(min_value=2, max_value=9))
    arcs = draw(st.sets(st.tuples(st.integers(1, K), st.integers(1, K)).filter(lambda a: a[0] != a[1])))
    mutual = draw(st.sets(st.tuples(st.integers(1, K), st.integers(1, K)).filter(lambda a: a[0] != a[1])))
    arcs |= mutual | {(b, a) for a, b in mutual}
    return [frozenset(m for k2, m in arcs if k2 == k) for k in range(1, K + 1)]


@given(_mutual_digraphs())
@settings(max_examples=200, deadline=None)
def test_acyclic_sets_are_maximum_on_mutual_digraphs(side_info):
    K = len(side_info)
    sets = solver._acyclic_sets([sum(1 << (m - 1) for m in known) for known in side_info])
    assert sets == _reference_acyclic_sets(side_info)
    assert [s.bit_count() for s in sets] == [_mais(side_info, range(c + 1, K + 1)) for c in range(K)]


def test_acyclic_sets_skip_levels_that_mutual_pairs_rule_out():
    # receivers 2i-1 and 2i know each other: 600 disjoint 2-cycles, so
    # no level from the second down can grow its set, and none is searched
    K = 1200
    started = time.process_time()
    sets = solver._acyclic_sets([1 << (k ^ 1) for k in range(K)])
    assert time.process_time() - started < 1.0
    assert [s.bit_count() for s in sets] == [(K - c + 1) // 2 for c in range(K)]


def _oracle_instances():
    out = [(f"suite{i}", inst) for i, inst in enumerate(random_suite(50))]
    return out + [(name, corpus_instance(f"{name}.json")) for name in ("ex1", "ex2", "ex3")]


ORACLE_INSTANCES = _oracle_instances()


def _root_bounds(inst: Instance) -> Tuple[int, int]:
    """(|sets[0]|, the kernel's root bound max(|sets[0]|, B)), with B
    computed whatever the greedy seed."""
    knows = _knows(inst)
    mais = solver._acyclic_sets(knows)[0].bit_count()
    return mais, solver._group_bound([t.holders for t in _build_tables(inst)], knows, mais)


@pytest.mark.parametrize("name,inst", ORACLE_INSTANCES, ids=[n for n, _ in ORACLE_INSTANCES])
def test_root_bound_sits_between_the_clique_bound_and_the_optimum(name, inst):
    mais, root = _root_bounds(inst)
    optimum = optimal_linear_code_bruteforce(inst).optimal_length
    assert complement_clique_lower(inst)[0] <= mais <= root <= optimum


TEN_RECEIVERS = [(name, inst) for name, inst in INSTANCES if name.startswith("random10x4")]


@pytest.mark.parametrize("name,inst", TEN_RECEIVERS, ids=[n for n, _ in TEN_RECEIVERS])
def test_root_bound_never_exceeds_the_solver_value(name, inst):
    mais, root = _root_bounds(inst)
    assert complement_clique_lower(inst)[0] <= mais <= root <= hyperminrank(inst).hyperminrank


@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from((0.0, 0.3, 0.5, 0.8)),
    st.integers(0, 5),
    st.integers(0, 1 << 16),
)
@settings(max_examples=100, deadline=None)
def test_group_bound_is_below_the_oracle_and_the_unpruned_search(K, N, delta, r0, seed):
    inst = generate_random(K, N, delta, min(r0, K - 1), seed)
    mais, root = _root_bounds(inst)
    assert mais <= root
    if complexity_exponents(inst).e2 <= 14:  # the unpruned walk is 2**E2 leaves
        assert root <= hyperminrank(inst, prune=False).hyperminrank
    # The oracle below tries every code shorter than the bound: the sum
    # over lengths L < root of C(vectors, L) configurations.
    vectors = sum((1 << len(store)) - 1 for store in inst.sender_stores)
    assume(sum(math.comb(vectors, L) for L in range(root)) <= 20_000)
    assert not optimal_linear_code_bruteforce(inst, max_length=root - 1).found


def _set_partitions(items: List[int]):
    """Every partition of `items` into nonempty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [{first}, *partition]
        for i, group in enumerate(partition):
            yield [*partition[:i], group | {first}, *partition[i + 1 :]]


@given(instances(max_k=8, max_n=4))
@settings(max_examples=100, deadline=None)
def test_group_bound_is_at_most_the_best_partition(inst):
    best = max(
        _partition_bound(inst, partition)
        for partition in _set_partitions(list(range(1, inst.N + 1)))
    )
    assert _root_bounds(inst)[1] <= best


def test_group_bound_meets_the_optimum_of_a_frontier_instance():
    # the MAIS is 10 and the greedy seed 12, so without the group bound
    # the search would have to exhaust the tree to prove 11
    inst = generate_random(12, 4, 0.3, 3, seed=1)
    assert _root_bounds(inst) == (10, 11)
    assert hyperminrank(inst, cap=64).hyperminrank == 11


def _dense(K: int, N: int, seed: int) -> Instance:
    """Message m stored at sender m mod N; each receiver knows each other
    message with probability 1/2, so the side information has cycles."""
    rng = random.Random(seed)
    return Instance(
        K=K,
        N=N,
        sender_stores=tuple(
            frozenset(m for m in range(1, K + 1) if m % N == n % N) for n in range(1, N + 1)
        ),
        side_info=tuple(
            frozenset(m for m in range(1, K + 1) if m != k and rng.random() < 0.5)
            for k in range(1, K + 1)
        ),
    )


def _capped_instances():
    """(name, instance, its oracle optimum or None); every dense one
    has E2 <= 14, so the unpruned search can referee it."""
    out = [(name, inst, optimal_linear_code_bruteforce(inst).optimal_length)
           for name, inst in ORACLE_INSTANCES]
    for K, N in ((5, 1), (6, 2)):
        for g in range(60):
            inst = _dense(K, N, g)
            if complexity_exponents(inst).e2 <= 14:
                out.append((f"dense{K}x{N}_{g}", inst, None))
    return out


def test_capped_acyclic_sets_keep_the_solve_exact(monkeypatch):
    # a capped level keeps the set of the level below: still acyclic,
    # perhaps smaller, so the cut is weaker but the answer stays the same
    smaller = {0: 0, 1: 0}
    for name, inst, optimum in _capped_instances():
        uncapped = solver._acyclic_sets(_knows(inst))
        unpruned = None
        if complexity_exponents(inst).e2 <= 14:  # the unpruned walk is 2**E2 leaves
            unpruned = hyperminrank(inst, prune=False)
        for cap in (0, 1):
            monkeypatch.setattr(solver, "ACYCLIC_NODE_CAP", cap)
            sets = solver._acyclic_sets(_knows(inst))
            smaller[cap] += sets != uncapped
            for c, s in enumerate(sets):
                members = [k for k in range(c + 1, inst.K + 1) if s >> (k - 1) & 1]
                assert len(members) == s.bit_count() and _acyclic(inst.side_info, members)
            got = hyperminrank(inst)
            assert optimum is None or got.hyperminrank == optimum, (name, cap)
            if unpruned is not None:
                assert (got.hyperminrank, got.witness) == (
                    unpruned.hyperminrank,
                    unpruned.witness,
                ), (name, cap)
        monkeypatch.undo()
    assert min(smaller.values()) >= 10  # the cap bites on the dense side information
