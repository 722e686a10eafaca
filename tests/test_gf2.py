from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from msic.gf2 import (
    basis_add,
    express_in_span,
    gf2_rank,
    spanning_rows,
    support,
)

rows_strategy = st.lists(st.integers(min_value=0, max_value=255), max_size=8)


def span_of(rows):
    out = {0}
    for r in rows:
        out |= {r ^ s for s in out}
    return out


@given(rows_strategy)
def test_rank_matches_span_size(rows):
    assert 1 << gf2_rank(rows) == len(span_of(rows))


@given(rows_strategy)
def test_rank_ignores_duplicates_and_order(rows):
    r = gf2_rank(rows)
    assert gf2_rank(rows + rows) == r
    assert gf2_rank(list(reversed(rows))) == r
    assert r <= len([x for x in rows if x])


@given(rows_strategy)
def test_spanning_rows_pick_an_independent_subset(rows):
    picked = spanning_rows(rows)
    assert len(picked) == gf2_rank(rows)
    assert picked == sorted(picked)
    chosen = [rows[i] for i in picked]
    assert span_of(chosen) == span_of(rows)
    assert gf2_rank(chosen) == len(chosen)


@given(rows_strategy)
def test_basis_add_counts_rank_and_undoes(rows):
    table = {}
    added = []
    for row in rows:
        pivot = basis_add(table, row)
        if pivot is not None:
            added.append(pivot)
    assert len(table) == gf2_rank(rows)
    for pivot in reversed(added):
        del table[pivot]
    assert table == {}


@given(rows_strategy, st.integers(min_value=0, max_value=255))
def test_express_in_span_reproduces_target(rows, target):
    coeffs = express_in_span(target, rows)
    if coeffs is None:
        assert target not in span_of(rows)
        return
    acc = 0
    for i, row in enumerate(rows):
        if (coeffs >> i) & 1:
            acc ^= row
    assert acc == target


@given(rows_strategy)
@settings(max_examples=200)
def test_express_prefers_earlier_basis_rows(rows):
    # the zero target must always come back as the empty combination
    assert express_in_span(0, rows) == 0


def test_support_lists_set_bits():
    assert support(0) == ()
    assert support(0b1011) == (0, 1, 3)


def test_rank_of_unit_rows():
    assert gf2_rank([1, 2, 4, 8]) == 4
    assert gf2_rank([3, 5, 6]) == 2
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
