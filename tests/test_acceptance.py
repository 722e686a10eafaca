"""Acceptance gate: one test per criterion, labelled for the summary hook.

Each test is independently runnable; the conftest hook prints one
PASS/FAIL line per criterion at the end of the session.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from conftest import all_choices, random_suite
from msic.bounds import clique_cover_upper, complement_clique_lower
from msic.codec import (
    code_from_fitting,
    code_length,
    code_to_fitting,
    decode_plan,
    load_code,
    verify_code,
)
from msic.gf2 import support
from msic.hypergraph import CompositeAdjacency, fits, sub_adjacency
from msic.instance import (
    Instance,
    InstanceValidationError,
    derive_stats,
    generate_embedded,
    parse_instance,
    serialize_instance,
)
from msic.oracle import optimal_linear_code_bruteforce
from msic.solver import complexity_exponents, hyperminrank, minrank_single


@pytest.mark.acceptance("1", "ex1 solves to hyperminrank 2 in under a second; "
                             "witness code verifies in both modes")
def test_criterion_1_ex1_exact(ex1):
    started = time.perf_counter()
    report = hyperminrank(ex1)
    elapsed = time.perf_counter() - started
    assert report.hyperminrank == 2
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    code = code_from_fitting(report.witness, ex1)
    assert verify_code(code, ex1, mode="algebraic")
    assert verify_code(code, ex1, mode="simulate")


@pytest.mark.acceptance("2", "achievable-side fitting reproduces the "
                             "x1+x2 | x3 | x1+x3 code and its decode plans")
def test_criterion_2_achievable_code(ex1):
    fitting = CompositeAdjacency(K=3, N=3, blocks=((0, 3, 0), (4, 0, 4), (5, 5, 0)))
    code = code_from_fitting(fitting, ex1)
    assert code.senders == ((3,), (4,), (5,))
    assert verify_code(code, ex1, mode="algebraic")
    assert verify_code(code, ex1, mode="simulate")
    plans = {k: decode_plan(fitting, ex1, k) for k in (1, 2, 3)}
    assert plans[1].sender_coefficients == (0, 1, 1)
    assert plans[1].side_subtract == frozenset()
    assert plans[2].sender_coefficients == (1, 0, 1)
    assert plans[2].side_subtract == frozenset({3})
    assert plans[3].sender_coefficients == (0, 1, 0)
    assert plans[3].side_subtract == frozenset()


@pytest.mark.acceptance("3", "converse mapping turns the two-transmission code "
                             "into a rank-2 fitting of the hypergraph")
def test_criterion_3_converse(ex1):
    code = load_code('{"code":[[[1,1,0]],[[0,1,1]],[]]}', ex1)
    fitting = code_to_fitting(code, ex1)
    assert fitting.sum_rank() == 2
    assert fits(fitting, ex1) is not None


@pytest.mark.acceptance("4", "solver equals brute-force oracle on the 50-instance "
                             "seeded suite within 60 seconds")
def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    for inst in random_suite(50):
        solver_value = hyperminrank(inst).hyperminrank
        oracle_value = optimal_linear_code_bruteforce(inst).optimal_length
        assert solver_value == oracle_value, serialize_instance(inst)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


@pytest.mark.acceptance("5", "ex2 cover is exactly {1,2}@1 {3,4,5}@2 {6}@3 with "
                             "m=3 and the sandwich closes around the exact value")
def test_criterion_5_ex2_bounds(ex2):
    started = time.perf_counter()
    upper, cover = clique_cover_upper(ex2, mode="exact")
    lower, witness = complement_clique_lower(ex2)
    value = hyperminrank(ex2).hyperminrank
    elapsed = time.perf_counter() - started
    assert upper == 3 and cover.exact
    assert {(tuple(sorted(c.receivers)), c.sender) for c in cover.cliques} == {
        ((1, 2), 1), ((3, 4, 5), 2), ((6,), 3)
    }
    assert value in (2, 3)
    assert lower <= value <= upper
    assert witness is not None
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@pytest.mark.acceptance("6", "ex3 has E1=4 and E2=6; E1 <= E2 across the suite "
                             "with equality exactly when no known symbol is replicated")
def test_criterion_6_complexity_comparison(ex3):
    profile = complexity_exponents(ex3)
    assert profile.e1 == 4
    assert profile.e2 == 6
    for inst in random_suite(50):
        p = complexity_exponents(inst)
        stats = derive_stats(inst)
        assert p.e1 <= p.e2
        replicated_known = any(
            stats.replication[m - 1] >= 2
            for k in range(1, inst.K + 1)
            for m in inst.side_info[k - 1]
        )
        assert (p.e1 == p.e2) == (not replicated_known)


@pytest.mark.acceptance("7", "embedded instances obey "
                             "E_embedded = S + sum (d-1)(K-d) >= S with the "
                             "equality cases d in {1, K}")
def test_criterion_7_embedded_exponent():
    for seed in range(20):
        rng = random.Random(seed)
        K = rng.randint(2, 5)
        inst = generate_embedded(K, seed=seed)
        stats = derive_stats(inst)
        expected = stats.total_load + sum(
            (d - 1) * (K - d) for d in stats.replication
        )
        profile = complexity_exponents(inst)
        assert profile.e_embedded == expected
        assert profile.e_embedded >= stats.total_load
        tight = all(d in (1, K) for d in stats.replication)
        assert (profile.e_embedded == stats.total_load) == tight


@pytest.mark.acceptance("8", "for every K<=2, N<=2 instance the enumerated "
                             "matrices coincide exactly with everything fits() accepts")
def test_criterion_8_enumeration_completeness():
    instances = 0
    for K in (1, 2):
        messages = list(range(1, K + 1))
        subsets = [frozenset(c) for r in range(K + 1)
                   for c in itertools.combinations(messages, r)]
        for N in (1, 2):
            for stores in itertools.product(subsets, repeat=N):
                side_pools = [
                    [frozenset(c) for r in range(K)
                     for c in itertools.combinations(
                         [m for m in messages if m != k], r)]
                    for k in range(1, K + 1)
                ]
                for side in itertools.product(*side_pools):
                    try:
                        inst = Instance(K=K, N=N, sender_stores=stores, side_info=side)
                    except InstanceValidationError:
                        continue
                    instances += 1
                    enumerated = {
                        sub_adjacency(choice, inst).blocks
                        for choice in all_choices(inst)
                    }
                    accepted = set()
                    bits = K * K * N
                    for pattern in range(1 << bits):
                        blocks = []
                        pos = 0
                        for _ in range(N):
                            rows = []
                            for _ in range(K):
                                rows.append((pattern >> pos) & ((1 << K) - 1))
                                pos += K
                            blocks.append(tuple(rows))
                        A = CompositeAdjacency(K=K, N=N, blocks=tuple(blocks))
                        if fits(A, inst) is not None:
                            accepted.add(A.blocks)
                    assert enumerated == accepted, serialize_instance(inst)
    assert instances == 44


@pytest.mark.acceptance("9", "single-sender full-store instances reduce to the "
                             "classical minimum rank, below the exact cover size")
def test_criterion_9_single_sender_reduction():
    rng = random.Random(2024)
    for _ in range(20):
        K = rng.randint(1, 5)
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
        classical = minrank_single(inst)
        assert hyperminrank(inst).hyperminrank == classical
        upper, _ = clique_cover_upper(inst, mode="exact")
        assert classical <= upper


@pytest.mark.acceptance("10", "property sweep: side-information monotonicity, "
                              "round trips, row-sum support, parse/serialize")
def test_criterion_10_property_suite():
    rng = random.Random(77)
    for inst in random_suite(30):
        text = serialize_instance(inst)
        assert parse_instance(text) == inst

        report = hyperminrank(inst)
        code = code_from_fitting(report.witness, inst)
        assert verify_code(code, inst, mode="algebraic")
        assert verify_code(code, inst, mode="simulate")
        back = code_to_fitting(code, inst)
        assert back.sum_rank() <= code_length(code)

        for k in range(1, inst.K + 1):
            combined = 0
            for n in range(1, inst.N + 1):
                combined ^= report.witness.blocks[n - 1][k - 1]
            assert (combined >> (k - 1)) & 1
            rest = frozenset(m + 1 for m in support(combined)) - {k}
            assert rest <= inst.side_info[k - 1]

        growable = [
            k
            for k in range(1, inst.K + 1)
            if len(inst.side_info[k - 1]) < inst.K - 1
        ]
        if growable:
            k = rng.choice(growable)
            extra = rng.choice(
                [
                    m
                    for m in range(1, inst.K + 1)
                    if m != k and m not in inst.side_info[k - 1]
                ]
            )
            richer_side = list(inst.side_info)
            richer_side[k - 1] = inst.side_info[k - 1] | {extra}
            richer = Instance(
                K=inst.K,
                N=inst.N,
                sender_stores=inst.sender_stores,
                side_info=tuple(richer_side),
            )
            assert (
                hyperminrank(richer).hyperminrank
                <= report.hyperminrank
            )
