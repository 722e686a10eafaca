from __future__ import annotations

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from conftest import all_choices, fully_replicated, instances, random_suite
from msic.codec import code_from_fitting, verify_code
from msic.hypergraph import fits, sub_adjacency
from msic import solver
from msic.instance import (
    Instance,
    InstanceValidationError,
    derive_stats,
    generate_random,
    serialize_instance,
)
from msic.oracle import optimal_linear_code_bruteforce
from msic.solver import (
    DEFAULT_SEARCH_CAP,
    ComplexityProfile,
    SearchCapError,
    _build_tables,
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


def test_single_receiver_solves_without_an_inner_level():
    # K = 1: the only table is the probed last one
    inst = Instance(
        K=1, N=3, sender_stores=(frozenset({1}),) * 3, side_info=(frozenset(),)
    )
    for prune in (True, False):
        report = hyperminrank(inst, prune=prune)
        assert report.hyperminrank == 1
        assert report.candidates_examined == 4  # the odd holder sets of message 1
        assert report.witness.blocks == ((1,), (0,), (0,))
        assert report.witness_choice.demand_senders == (frozenset({1}),)


def test_unpruned_wide_solve_counts_every_last_level_option():
    # fully replicated K = 2, N = 5: the last level's 512 options are
    # counted on every probe, not enumerated
    both = frozenset({1, 2})
    inst = Instance(
        K=2, N=5, sender_stores=(both,) * 5, side_info=(frozenset({2}), frozenset({1}))
    )
    assert complexity_exponents(inst).e2 == 18
    slow = hyperminrank(inst, prune=False)
    assert slow.candidates_examined == 1 << 18
    assert slow.hyperminrank == 1
    # sender 1 sends x1 + x2, and both receivers decode from it
    assert slow.witness.blocks == ((3, 3), (0, 0), (0, 0), (0, 0), (0, 0))
    fast = hyperminrank(inst)
    assert fast.witness == slow.witness
    assert fast.candidates_examined == 1024


def _traced_peak(run):
    """(run(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_store_no_rows():
    # two 2**15-option tables: expanded, their rows alone take megabytes
    tables, peak = _traced_peak(lambda: _build_tables(fully_replicated(2, 8)))
    assert [table.count for table in tables] == [1 << 15] * 2
    assert peak < 64 << 10


@pytest.mark.parametrize("K,N", [(2, 14), (3, 10)])
def test_huge_tables_with_few_visits_solve_in_little_memory(K, N):
    # inner tables of 2**27 and 2**29 options, of which the search visits
    # a few: it stores no rows but the bases
    report, peak = _traced_peak(lambda: hyperminrank(fully_replicated(K, N)))
    assert report.hyperminrank == 1
    assert report.candidates_examined == {2: 1 << 28, 3: 1 << 31}[K]
    assert peak < 1 << 20


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


@given(instances(max_k=5, max_n=3))
@settings(max_examples=80, deadline=None)
def test_pruned_search_matches_the_oracle(inst):
    assume(derive_stats(inst).total_load <= 8)  # the oracle's cost
    expected = optimal_linear_code_bruteforce(inst).optimal_length
    assert hyperminrank(inst).hyperminrank == expected


@given(instances(max_k=6, max_n=3))
@settings(max_examples=80, deadline=None)
def test_pruned_search_matches_the_unpruned_search(inst):
    e2 = complexity_exponents(inst).e2
    assume(e2 <= 14)  # the unpruned walk is the full 2**E2 product
    fast = hyperminrank(inst)
    slow = hyperminrank(inst, prune=False)
    assert slow.candidates_examined == 1 << e2
    assert fast.hyperminrank == slow.hyperminrank
    assert fast.witness == slow.witness
    assert fast.witness_choice == slow.witness_choice
    assert fast.candidates_examined <= slow.candidates_examined


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


def test_search_counts_options_past_the_ssize_limit():
    # Both messages at each of 40 senders, receivers know each other:
    # the solve examines 2^80 candidates, and len() of a range that long
    # raises OverflowError.
    inst = Instance(
        K=2,
        N=40,
        sender_stores=(frozenset({1, 2}),) * 40,
        side_info=(frozenset({2}), frozenset({1})),
    )
    report = hyperminrank(inst, cap=80)
    assert report.hyperminrank == 1
    assert report.candidates_examined == 1 << 80


class _CapPassed(Exception):
    pass


def test_cap_check_reads_the_profile_e1(monkeypatch):
    # The cap check computes E1 on its own; it must be the profile's E1
    # exactly: refused at cap E1 - 1, past the check at cap E1.
    def passed(inst):
        raise _CapPassed

    monkeypatch.setattr(solver, "_build_tables", passed)
    rng = random.Random(20)
    sides = set()
    for _ in range(80):
        K = rng.randint(2, 16)
        inst = generate_random(
            K, rng.randint(1, 5), delta=rng.choice([0.0, 0.3, 0.7]),
            r0=rng.randint(0, K - 1), seed=rng.randrange(1 << 30),
        )
        e1 = complexity_exponents(inst).e1
        sides.add(e1 > DEFAULT_SEARCH_CAP)
        with pytest.raises(SearchCapError) as refused:
            hyperminrank(inst, cap=e1 - 1)
        assert str(refused.value) == (
            f"search exponent E1={e1} exceeds cap {e1 - 1}; "
            "raise MSIC_SEARCH_CAP or pass a larger cap to proceed"
        )
        with pytest.raises(_CapPassed):
            hyperminrank(inst, cap=e1)
    assert sides == {False, True}  # instances on both sides of the default cap


def test_infeasible_instance_rejected_before_search():
    with pytest.raises(InstanceValidationError):
        Instance(
            K=2,
            N=1,
            sender_stores=(frozenset({1}),),
            side_info=(frozenset(), frozenset()),
        )


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


def _referee_exponents(inst: Instance) -> ComplexityProfile:
    """The K^2 scan over every other message that the running totals
    replaced, as a referee."""
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
        total_load=stats.total_load,
        e_embedded=e_embedded,
        threshold_holds=lhs <= rhs,
        threshold_lhs=lhs,
        threshold_rhs=rhs,
    )


def test_exponents_match_the_scan_on_the_suite():
    for inst in random_suite(50):
        assert complexity_exponents(inst) == _referee_exponents(inst)


@given(instances(max_k=9, max_n=4))
@settings(max_examples=200, deadline=None)
def test_exponents_match_the_scan(inst):
    assert complexity_exponents(inst) == _referee_exponents(inst)


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
    with pytest.raises(InstanceValidationError):
        Instance(
            K=2,
            N=1,
            sender_stores=(frozenset({1}),),
            side_info=(frozenset(), frozenset()),
        )


def test_minrank_single_runs_past_the_recursion_limit():
    K = 1200
    assert K > sys.getrecursionlimit()
    no_side = Instance(
        K=K,
        N=1,
        sender_stores=(frozenset(range(1, K + 1)),),
        side_info=(frozenset(),) * K,
    )
    assert minrank_single(no_side) == K
