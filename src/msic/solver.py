"""Exact minimum total rank over all valid edge selections.

The search walks the Cartesian product of per-receiver selections
(odd demand subsets x any cached subset x even coupled sender sets per
unknown message), maintaining one XOR basis per sender so each block's
rank updates incrementally.

The canonical order on selections lives here and nowhere else: in the
option tables built by `_ReceiverTable`.  A table lists its options in
ascending order of their mask keys (demand mask, cached mask, then one
coupled mask per eligible message), and every key of one table has the
same length, so an option's index orders exactly as its key does.
Receiver 1 is the outermost loop, hence the tuple of option indices
orders selections exactly as the concatenated keys would, depth-first
order is the canonical order and the first minimizer found is the
canonically smallest witness.  The witness selection is recovered from
the witness matrix by `hypergraph.fits`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from .gf2 import basis_add
from .hypergraph import CompositeAdjacency, SubChoice, fits
from .instance import DerivedStats, Instance, check_valid, derive_stats

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
PARALLEL_MIN_EXPONENT = 16


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
    e_embedded: Optional[int]
    threshold_holds: bool
    threshold_lhs: Fraction
    threshold_rhs: Fraction


# ---- exponent calculators ----


def search_space_size(inst: Instance) -> Tuple[int, int]:
    """(2**E1, E1): the advertised enumeration size and its exponent."""
    profile = complexity_exponents(inst)
    return profile.search_space, profile.e1


def complexity_exponents(inst: Instance) -> ComplexityProfile:
    """Search exponents, the per-sender quadratic cost exponent, the
    replication threshold verdict, and the embedded-case exponent when
    the instance has K == N with every node storing exactly what it
    knows."""
    check_valid(inst)
    stats = derive_stats(inst)
    d = stats.replication
    e1 = 0
    e2 = 0
    for k in range(1, inst.K + 1):
        known = inst.side_info[k - 1]
        shared = max(d[k - 1] - 1, 0)
        unknown = sum(
            max(d[k2 - 1] - 1, 0)
            for k2 in range(1, inst.K + 1)
            if k2 != k and k2 not in known
        )
        e1 += shared + len(known) + unknown
        e2 += shared + sum(d[m - 1] for m in known) + unknown
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
        e_embedded=e_embedded,
        threshold_holds=lhs <= rhs,
        threshold_lhs=lhs,
        threshold_rhs=rhs,
    )


# ---- enumeration tables ----


def _odd_masks(width: int) -> List[int]:
    return [m for m in range(1 << width) if m.bit_count() % 2 == 1]


def _even_masks(width: int) -> List[int]:
    return [m for m in range(1 << width) if m.bit_count() % 2 == 0]


class _ReceiverTable:
    """All selections of one receiver, in canonical ascending order.

    rows[i] is option i as a tuple of per-sender row contributions;
    keys[i] is its canonical (demand mask, cached mask, coupled masks...)
    tuple.  Options are generated in ascending key order, so index order
    is key order.
    """

    def __init__(self, inst: Instance, stats: DerivedStats, k: int):
        holders = sorted(stats.availability[k - 1])
        cached_list = [
            (m, n)
            for m in sorted(inst.side_info[k - 1])
            for n in sorted(stats.availability[m - 1])
        ]
        self.coupled_msgs = [
            (k2, sorted(stats.availability[k2 - 1]))
            for k2 in range(1, inst.K + 1)
            if k2 != k and k2 not in inst.side_info[k - 1]
        ]
        demand_opts = _odd_masks(len(holders))
        cached_opts = list(range(1 << len(cached_list)))
        coupled_opts = [_even_masks(len(hs)) for _, hs in self.coupled_msgs]

        self.keys: List[Tuple[int, ...]] = []
        self.rows: List[Tuple[int, ...]] = []
        kbit = 1 << (k - 1)
        n_senders = inst.N
        for dmask in demand_opts:
            base = [0] * n_senders
            for i, n in enumerate(holders):
                if (dmask >> i) & 1:
                    base[n - 1] |= kbit
            for cmask in cached_opts:
                rows_c = base[:]
                for i, (m, n) in enumerate(cached_list):
                    if (cmask >> i) & 1:
                        rows_c[n - 1] |= 1 << (m - 1)
                self._expand_coupled(rows_c, (dmask, cmask), coupled_opts, 0)

    def _expand_coupled(self, rows, key, coupled_opts, depth):
        if depth == len(coupled_opts):
            self.keys.append(key)
            self.rows.append(tuple(rows))
            return
        k2, holders = self.coupled_msgs[depth]
        bit = 1 << (k2 - 1)
        for mask in coupled_opts[depth]:
            rows_c = rows[:]
            for i, n in enumerate(holders):
                if (mask >> i) & 1:
                    rows_c[n - 1] |= bit
            self._expand_coupled(rows_c, key + (mask,), coupled_opts, depth + 1)


def _build_tables(inst: Instance) -> List[_ReceiverTable]:
    stats = derive_stats(inst)
    return [_ReceiverTable(inst, stats, k) for k in range(1, inst.K + 1)]


# ---- the search itself ----


def _greedy_dive(tables: Sequence[_ReceiverTable], N: int) -> int:
    """One greedy root-to-leaf descent, used only to seed the incumbent.

    Picking the option with the smallest immediate rank increase (ties
    to the smallest index) usually lands close to the optimum, which
    lets the exact pass prune hard from the start.  Any seed >= the
    true minimum keeps the canonically-first witness reachable, so this
    never changes the reported result.
    """
    pivots: List[Dict[int, int]] = [dict() for _ in range(N)]
    total = 0
    for table in tables:
        best_idx = 0
        best_delta = None
        for idx, rows in enumerate(table.rows):
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
            row = table.rows[best_idx][n]
            if row:
                basis_add(pivots[n], row)
        total += best_delta or 0
    return total


def _search(
    tables: Sequence[_ReceiverTable],
    N: int,
    prune: bool,
    first_range: range,
    incumbent: int,
) -> Tuple[Optional[int], Optional[Tuple[int, ...]], int]:
    """Depth-first scan; returns (value, option indices, leaves)."""
    K = len(tables)
    pivots: List[Dict[int, int]] = [dict() for _ in range(N)]
    combo = [0] * K
    state = {"best": incumbent, "combo": None, "leaves": 0, "rank": 0}

    def descend(level: int, indices) -> None:
        table = tables[level]
        last = level == K - 1
        for idx in indices:
            rows = table.rows[idx]
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
            elif not prune or state["rank"] < state["best"]:
                descend(level + 1, range(len(tables[level + 1].rows)))
            state["rank"] -= delta
            for n, pivot in added:
                del pivots[n][pivot]

    descend(0, first_range)
    if state["combo"] is None:
        return None, None, state["leaves"]
    return state["best"], state["combo"], state["leaves"]


# Set in each forked worker by the pool initializer.  Fork hands the
# initializer's arguments over without pickling, so workers search the
# parent's tables instead of rebuilding them.
_worker_tables: Sequence[_ReceiverTable] = ()


def _adopt_tables(tables: Sequence[_ReceiverTable]) -> None:
    global _worker_tables
    _worker_tables = tables


def _solve_chunk(N: int, start: int, end: int, prune: bool, incumbent: int):
    return _search(_worker_tables, N, prune, range(start, end), incumbent)


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
    parallelism: Optional[int] = 1,
    prune: bool = True,
    cap: Optional[int] = None,
) -> SolveReport:
    """Exact minimum of the summed block ranks, with witness.

    parallelism > 1 splits receiver 1's options into contiguous chunks
    handled by forked worker processes that search the parent's option
    tables; each worker reduces its chunk to a (value, option indices)
    pair and the final merge takes the minimum, so the result does not
    depend on scheduling.  Chunking is only engaged when the search is
    large enough for process startup to pay off.

    Raises InstanceValidationError for infeasible instances,
    SearchCapError when the advertised exponent exceeds the cap
    (default 34, overridable via the MSIC_SEARCH_CAP variable or `cap`)
    and SearchCapConfigError when MSIC_SEARCH_CAP is not an integer.
    """
    profile = complexity_exponents(inst)
    effective = _effective_cap(cap)
    if profile.e1 > effective:
        raise SearchCapError(
            f"search exponent E1={profile.e1} exceeds cap {effective}; "
            f"raise {SEARCH_CAP_ENV} or pass a larger cap to proceed"
        )
    started = time.perf_counter()
    if parallelism is None:
        parallelism = os.cpu_count() or 1
    tables = _build_tables(inst)
    if prune:
        incumbent = min(_greedy_dive(tables, inst.N), inst.K) + 1
    else:
        incumbent = inst.K + 1
    first_count = len(tables[0].rows)
    workers = min(parallelism, first_count)
    # Table k holds exactly 2**E2_k options, so E2 is the log of the
    # unpruned search size.
    if workers <= 1 or profile.e2 < PARALLEL_MIN_EXPONENT:
        value, combo, leaves = _search(
            tables, inst.N, prune, range(first_count), incumbent
        )
    else:
        bounds = [round(i * first_count / workers) for i in range(workers + 1)]
        jobs = [
            (inst.N, bounds[i], bounds[i + 1], prune, incumbent)
            for i in range(workers)
            if bounds[i] < bounds[i + 1]
        ]
        with get_context("fork").Pool(
            processes=len(jobs), initializer=_adopt_tables, initargs=(tables,)
        ) as pool:
            results = pool.starmap(_solve_chunk, jobs)
        leaves = sum(r[2] for r in results)
        value, combo = min((r[0], r[1]) for r in results if r[0] is not None)
    assert combo is not None
    witness = CompositeAdjacency(
        K=inst.K,
        N=inst.N,
        blocks=tuple(
            tuple(table.rows[idx][n] for table, idx in zip(tables, combo))
            for n in range(inst.N)
        ),
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
    support inside the side-information sets; the sender must store
    every message."""
    check_valid(inst)
    if inst.N != 1:
        raise ValueError(f"needs a single sender, got N={inst.N}")
    if inst.sender_stores[0] != frozenset(range(1, inst.K + 1)):
        raise ValueError("the sender must store all K messages")
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

    def rec(k: int, pivots: Dict[int, int], rank: int) -> None:
        nonlocal best
        if rank >= best:
            return
        if k > K:
            best = rank
            return
        base = 1 << (k - 1)
        bits = side_bits[k - 1]
        for mask in range(1 << len(bits)):
            row = base
            for i, bit in enumerate(bits):
                if (mask >> i) & 1:
                    row |= bit
            table = dict(pivots)
            added = basis_add(table, row)
            rec(k + 1, table, rank + (1 if added is not None else 0))

    rec(1, {}, 0)
    return best
