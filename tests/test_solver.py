from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import all_choices, random_suite
from msic.codec import code_from_fitting, verify_code
from msic.hypergraph import fits, sub_adjacency
from msic.instance import (
    Instance,
    InstanceValidationError,
    derive_stats,
    serialize_instance,
)
from msic.solver import (
    SearchCapError,
    complexity_exponents,
    hyperminrank,
    minrank_single,
    search_space_size,
)


def test_corpus_values(ex1, ex2, ex3):
    assert hyperminrank(ex1).hyperminrank == 2
    assert hyperminrank(ex2).hyperminrank == 3
    assert hyperminrank(ex3).hyperminrank == 2


def test_witness_fits_and_verifies(ex1, ex2, ex3):
    for inst in (ex1, ex2, ex3):
        report = hyperminrank(inst)
        assert report.witness.sum_rank() == report.hyperminrank
        assert fits(report.witness, inst) is not None
        code = code_from_fitting(report.witness, inst)
        assert verify_code(code, inst, mode="simulate")


def test_no_pruning_visits_full_product(ex1, ex3):
    # the enumerated space is the product of per-receiver option counts,
    # which is 2**E2
    r1 = hyperminrank(ex1, prune=False)
    assert r1.candidates_examined == 1 << complexity_exponents(ex1).e2
    assert r1.hyperminrank == 2
    r3 = hyperminrank(ex3, prune=False)
    assert r3.candidates_examined == 64
    assert r3.hyperminrank == 2


def test_no_pruning_matches_advertised_size_without_replicated_side_info():
    # receivers only know messages stored once, so E1 == E2 and the
    # advertised 2**E1 is the exact leaf count
    inst = Instance(
        K=3,
        N=2,
        sender_stores=(frozenset({1, 2}), frozenset({2, 3})),
        side_info=(frozenset({3}), frozenset(), frozenset({1})),
    )
    profile = complexity_exponents(inst)
    assert profile.e1 == profile.e2
    report = hyperminrank(inst, prune=False)
    space, e1 = search_space_size(inst)
    assert report.candidates_examined == space == 1 << e1


def test_pruned_and_unpruned_agree():
    checked = 0
    for inst in random_suite(40):
        if complexity_exponents(inst).e2 > 14:
            continue  # the unpruned walk is the full 2**E2 product
        checked += 1
        fast = hyperminrank(inst)
        slow = hyperminrank(inst, prune=False)
        assert fast.hyperminrank == slow.hyperminrank
        assert fast.witness_choice == slow.witness_choice
        assert fast.candidates_examined <= slow.candidates_examined
    assert checked >= 10


def _mask_key(choice, inst):
    """Canonical order of one selection, stated independently of the solver.

    Per receiver: demand mask over the sorted holders of k, cached mask
    over the (message, sender)-sorted cached edges, then one mask per
    message k2 that k neither wants nor knows, over its sorted holders.
    Receiver 1 is most significant.
    """
    stats = derive_stats(inst)

    def mask(items, chosen):
        return sum(1 << i for i, item in enumerate(items) if item in chosen)

    key = []
    for k in range(1, inst.K + 1):
        cached_edges = [
            (m, n)
            for m in sorted(inst.side_info[k - 1])
            for n in sorted(stats.availability[m - 1])
        ]
        coupled = dict(choice.coupled_senders[k - 1])
        key.append(
            (
                mask(sorted(stats.availability[k - 1]), choice.demand_senders[k - 1]),
                mask(cached_edges, choice.cached_edges[k - 1]),
            )
            + tuple(
                mask(sorted(stats.availability[k2 - 1]), coupled.get(k2, ()))
                for k2 in range(1, inst.K + 1)
                if k2 != k and k2 not in inst.side_info[k - 1]
            )
        )
    return tuple(key)


def test_witness_is_canonically_first(ex1, ex3):
    instances = [ex1, ex3] + [
        inst for inst in random_suite(50) if complexity_exponents(inst).e2 <= 12
    ]
    assert len(instances) >= 40
    for inst in instances:
        expected = min(
            all_choices(inst),
            key=lambda c: (sub_adjacency(c, inst).sum_rank(), _mask_key(c, inst)),
        )
        for prune in (True, False):
            report = hyperminrank(inst, prune=prune)
            assert report.witness_choice == expected, serialize_instance(inst)


def test_search_cap_via_parameter(ex2):
    with pytest.raises(SearchCapError, match="E1=23"):
        hyperminrank(ex2, cap=10)


def test_search_cap_via_environment(ex1, monkeypatch):
    monkeypatch.setenv("MSIC_SEARCH_CAP", "3")
    with pytest.raises(SearchCapError):
        hyperminrank(ex1)
    monkeypatch.setenv("MSIC_SEARCH_CAP", "9")
    assert hyperminrank(ex1).hyperminrank == 2


def test_infeasible_instance_rejected_before_search():
    inst = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1}),),
        side_info=(frozenset(), frozenset()),
    )
    with pytest.raises(InstanceValidationError):
        hyperminrank(inst)


# ---- complexity profile ----


def test_exponents_on_corpus(ex1, ex2, ex3):
    p1 = complexity_exponents(ex1)
    assert (p1.e1, p1.e2, p1.e3) == (9, 12, 9)
    p2 = complexity_exponents(ex2)
    assert (p2.e1, p2.e2, p2.e3) == (23, 31, 18)
    p3 = complexity_exponents(ex3)
    assert (p3.e1, p3.e2, p3.e3) == (4, 6, 6)
    assert p3.search_space == 16
    assert p1.e_embedded is None


def test_search_space_size_is_two_to_e1(ex2):
    space, e1 = search_space_size(ex2)
    assert (space, e1) == (1 << 23, 23)


def test_threshold_exact_at_boundary():
    # K=8, N=2, no replication, r0=2: lhs = 2/8 + 0 equals rhs = 1/4
    inst = Instance(
        K=8,
        N=2,
        sender_stores=(frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})),
        side_info=(
            frozenset({2, 3}),
            frozenset({1}),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(),
        ),
    )
    profile = complexity_exponents(inst)
    assert isinstance(profile.threshold_lhs, Fraction)
    assert isinstance(profile.threshold_rhs, Fraction)
    assert profile.threshold_lhs == profile.threshold_rhs == Fraction(1, 4)
    assert profile.threshold_holds


def test_threshold_fails_just_past_boundary():
    # one replica more: lhs = 3/8 exceeds rhs = 81/256
    inst = Instance(
        K=8,
        N=2,
        sender_stores=(frozenset({1, 2, 3, 4, 5}), frozenset({5, 6, 7, 8})),
        side_info=(
            frozenset({2, 3}),
            frozenset({1}),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(),
        ),
    )
    profile = complexity_exponents(inst)
    assert profile.threshold_lhs == Fraction(3, 8)
    assert profile.threshold_rhs == Fraction(81, 256)
    assert not profile.threshold_holds


def test_embedded_exponent_present_for_embedded_shape():
    inst = Instance(
        K=3,
        N=3,
        sender_stores=(frozenset({2}), frozenset({1, 3}), frozenset({1, 2})),
        side_info=(frozenset({2}), frozenset({1, 3}), frozenset({1, 2})),
    )
    profile = complexity_exponents(inst)
    stats = derive_stats(inst)
    expected = stats.total_load + sum(
        (d - 1) * (3 - d) for d in stats.replication
    )
    assert profile.e_embedded == expected


# ---- single-sender classical minimum rank ----


def test_minrank_single_known_cases():
    no_side = Instance(
        K=3,
        N=1,
        sender_stores=(frozenset({1, 2, 3}),),
        side_info=(frozenset(), frozenset(), frozenset()),
    )
    assert minrank_single(no_side) == 3
    mutual = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset({2}), frozenset({1})),
    )
    assert minrank_single(mutual) == 1


def test_minrank_single_matches_hyperminrank():
    rng = random.Random(5)
    for _ in range(15):
        K = rng.randint(1, 4)
        side = []
        for k in range(1, K + 1):
            others = [m for m in range(1, K + 1) if m != k]
            side.append(frozenset(rng.sample(others, rng.randint(0, len(others)))))
        inst = Instance(
            K=K,
            N=1,
            sender_stores=(frozenset(range(1, K + 1)),),
            side_info=tuple(side),
        )
        assert minrank_single(inst) == hyperminrank(inst).hyperminrank


def test_minrank_single_requires_full_single_store(ex1):
    with pytest.raises(ValueError, match="single sender"):
        minrank_single(ex1)
    partial = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset(), frozenset()),
    )
    assert minrank_single(partial) == 2
    missing = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1}),),
        side_info=(frozenset(), frozenset()),
    )
    with pytest.raises(InstanceValidationError):
        minrank_single(missing)
