"""Differential referee for the solver's GF(2) search kernel.

`_reference_greedy_dive` and `_reference_search` are the dict-pivot
kernel the list-indexed one replaced, kept verbatim apart from their
names: every row goes through `gf2.basis_add`, the last level inserts
and undoes like the others.  The current kernel must return the same
greedy seed and the same (value, option indices, leaves) triple on
every instance, with and without pruning, over the whole first level
and over each chunk the fork path hands to a worker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from conftest import corpus_instance, random_suite
from msic.gf2 import basis_add
from msic.instance import generate_random, serialize_instance
from msic.solver import _build_tables, _greedy_dive, _search, complexity_exponents


def _reference_greedy_dive(tables, N: int) -> int:
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


def _reference_search(
    tables: Sequence, N: int, prune: bool, first_range: range, incumbent: int
) -> Tuple[Optional[int], Optional[Tuple[int, ...]], int]:
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
    """The contiguous first-level chunks `hyperminrank` forks for `workers`."""
    edges = [round(i * first_count / workers) for i in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_kernel_matches_reference(name, inst):
    tables = _build_tables(inst)
    seed = _greedy_dive(tables, inst.N)
    assert seed == _reference_greedy_dive(tables, inst.N)
    runs = [(True, min(seed, inst.K) + 1)]
    if complexity_exponents(inst).e2 <= 14:
        runs.append((False, inst.K + 1))
    first_count = len(tables[0].rows)
    for prune, incumbent in runs:
        for workers in (1, 2, 3):
            for chunk in _chunks(first_count, workers):
                got = _search(tables, inst.N, prune, chunk, incumbent)
                want = _reference_search(tables, inst.N, prune, chunk, incumbent)
                assert got == want, (serialize_instance(inst), prune, chunk)
