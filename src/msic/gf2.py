"""GF(2) linear algebra on int-bitset rows.

A vector of length n is an int whose bit i is coordinate i (0-based).
A matrix is a list of such row ints plus an explicit column count.
Callers that speak 1-based indices convert before reaching this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "gf2_rank",
    "spanning_rows",
    "express_in_span",
    "eliminate",
    "express",
    "basis_add",
    "support",
]


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the given bit-packed rows."""
    return len(spanning_rows(rows))


def basis_add(table: Dict[int, int], row: int) -> Optional[int]:
    """Insert a row into a pivot-keyed XOR basis.

    `table` maps pivot bit position -> reduced row with that leading bit.
    Returns the pivot position claimed by the new row, or None when the
    row is dependent on (or equal to) what the basis already spans.
    """
    while row:
        pivot = row.bit_length() - 1
        present = table.get(pivot)
        if present is None:
            table[pivot] = row
            return pivot
        row ^= present
    return None


def spanning_rows(rows: Iterable[int]) -> List[int]:
    """Indices (0-based, ascending) of a greedy row basis.

    Scans rows top to bottom and keeps each row that is independent of
    the rows kept so far, so the selection is deterministic and the
    returned index count equals the rank.
    """
    table: Dict[int, int] = {}
    kept: List[int] = []
    for idx, row in enumerate(rows):
        if basis_add(table, row) is not None:
            kept.append(idx)
    return kept


def eliminate(table: Dict[int, Tuple[int, int]], basis: Iterable[int], first: int) -> None:
    """Insert basis vectors into a pivot table, in place, for `express`.

    Entry pivot -> (row, coefficients): row has that leading bit and is
    the XOR of the vectors its coefficient mask selects, bit first + i
    standing for the i-th vector given here.  Vectors claim pivots in
    order, and a dependent one adds no entry.
    """
    for i, vec in enumerate(basis, first):
        v, c = vec, 1 << i
        while v:
            pivot = v.bit_length() - 1
            entry = table.get(pivot)
            if entry is None:
                table[pivot] = (v, c)
                break
            v ^= entry[0]
            c ^= entry[1]


def express(target: int, table: Dict[int, Tuple[int, int]]) -> Optional[int]:
    """Coefficients writing target over the vectors of an `eliminate`
    table, or None when target is outside their span."""
    v, c = target, 0
    while v:
        pivot = v.bit_length() - 1
        entry = table.get(pivot)
        if entry is None:
            return None
        v ^= entry[0]
        c ^= entry[1]
    return c


def express_in_span(target: int, basis: List[int]) -> Optional[int]:
    """Coefficients writing target as an XOR of basis vectors.

    Returns a mask whose bit i selects basis[i], or None when target is
    outside the span.  Elimination claims pivots in basis order, so ties
    between equivalent solutions resolve toward earlier basis vectors
    and the output is deterministic.
    """
    table: Dict[int, Tuple[int, int]] = {}
    eliminate(table, basis, 0)
    return express(target, table)


def support(vec: int) -> Tuple[int, ...]:
    """0-based positions of the set bits, ascending."""
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return tuple(out)
