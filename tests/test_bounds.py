from __future__ import annotations

import pytest

from conftest import random_suite
from msic.bounds import (
    CliqueCover,
    ImplementableClique,
    clique_cover_upper,
    complement_clique_lower,
    enumerate_implementable_cliques,
    induced_code,
)
from msic.codec import verify_code
from msic.instance import Instance
from msic.solver import hyperminrank, minrank_single


def as_pairs(cliques):
    return {(tuple(sorted(c.receivers)), c.sender) for c in cliques}


def test_enumeration_on_ex2(ex2):
    cliques = as_pairs(enumerate_implementable_cliques(ex2))
    assert ((1, 2), 1) in cliques
    assert ((3, 4, 5), 2) in cliques
    # receiver 6 only ever appears alone: nobody who shares a sender
    # with it also has mutual side info
    assert all(len(rs) == 1 for rs, _ in cliques if 6 in rs)


def test_enumeration_on_ex1(ex1):
    cliques = as_pairs(enumerate_implementable_cliques(ex1))
    assert ((1, 2), 1) not in cliques  # 1 is not in R(2)
    assert all(len(rs) == 1 for rs, _ in cliques)
    # every receiver gets a singleton at each sender storing it
    assert ((1,), 1) in cliques and ((1,), 3) in cliques


def test_cover_ex2_exact(ex2):
    m, cover = clique_cover_upper(ex2, mode="exact")
    assert m == 3
    assert cover.exact
    assert as_pairs(cover.cliques) == {((1, 2), 1), ((3, 4, 5), 2), ((6,), 3)}
    receivers = [k for c in cover.cliques for k in c.receivers]
    assert sorted(receivers) == [1, 2, 3, 4, 5, 6]


def test_cover_ex1_exact_is_singletons(ex1):
    m, cover = clique_cover_upper(ex1, mode="exact")
    assert m == 3
    assert all(len(c.receivers) == 1 for c in cover.cliques)


def test_cover_trivial_pair():
    inst = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset({2}), frozenset({1})),
    )
    m, cover = clique_cover_upper(inst, mode="exact")
    assert m == 1
    assert cover.cliques[0].receivers == frozenset({1, 2})


def test_greedy_never_beats_exact():
    for inst in random_suite(30):
        exact_m, _ = clique_cover_upper(inst, mode="exact")
        greedy_m, greedy_cover = clique_cover_upper(inst, mode="greedy")
        assert greedy_m >= exact_m
        assert not greedy_cover.exact


def test_cover_mode_validation(ex1):
    with pytest.raises(ValueError):
        clique_cover_upper(ex1, mode="fastest")


def test_induced_code_verifies():
    for inst in random_suite(20):
        _, cover = clique_cover_upper(inst, mode="exact")
        code = induced_code(cover, inst)
        assert verify_code(code, inst, mode="algebraic")
        assert verify_code(code, inst, mode="simulate")


def test_sandwich_on_suite():
    for inst in random_suite(30):
        lower, witness = complement_clique_lower(inst)
        upper, _ = clique_cover_upper(inst, mode="exact")
        value = hyperminrank(inst).hyperminrank
        assert lower <= value <= upper
        assert witness is not None and lower >= 1


def test_complement_lower_ex_values(ex1, ex2):
    low1, wit1 = complement_clique_lower(ex1)
    assert low1 == 1
    assert len(wit1.vertices) == 1
    low2, _ = complement_clique_lower(ex2)
    assert low2 == 1  # exclusion-precedence complement; sandwich still holds


def test_complement_lower_no_side_info_pair():
    inst = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset(), frozenset()),
    )
    value, witness = complement_clique_lower(inst)
    assert value == 2
    assert witness.vertices == frozenset({1, 2})
    assert witness.host_sender == 1
    assert witness.sender_conditions == ("contains-clique",)


def test_upper_bounds_single_sender_minrank():
    # the cover number can only sit above the classical minimum rank
    inst = Instance(
        K=4,
        N=1,
        sender_stores=(frozenset({1, 2, 3, 4}),),
        side_info=(
            frozenset({2}),
            frozenset({1}),
            frozenset({4}),
            frozenset({3}),
        ),
    )
    upper, _ = clique_cover_upper(inst, mode="exact")
    assert minrank_single(inst) <= upper
    assert upper == 2


def test_cover_type_shapes(ex2):
    _, cover = clique_cover_upper(ex2, mode="exact")
    assert isinstance(cover, CliqueCover)
    assert all(isinstance(c, ImplementableClique) for c in cover.cliques)
