from __future__ import annotations

import random

import pytest

from conftest import corpus_text, random_suite
from msic.codec import (
    CodeSupportError,
    LinearCode,
    UndecodableCodeError,
    code_from_fitting,
    code_length,
    code_to_fitting,
    decode_plan,
    load_code,
    serialize_code,
    verify_code,
)
from msic.hypergraph import CompositeAdjacency, fits
from msic.solver import hyperminrank

# Rank-3 fitting of ex1: induces x1+x2 at sender 1, x3 at 2, x1+x3 at 3.
PAIR_XOR_FITTING = CompositeAdjacency(K=3, N=3, blocks=((0, 3, 0), (4, 0, 4), (5, 5, 0)))


def load_corpus_code(name, inst):
    return load_code(corpus_text(name), inst)


def test_load_serialize_round_trip(ex1):
    for name in ("ex1_code_a.json", "ex1_code_b.json"):
        code = load_corpus_code(name, ex1)
        again = load_code(serialize_code(code), ex1)
        assert again == code


def test_load_rejects_malformed(ex1):
    with pytest.raises(ValueError):
        load_code("[]", ex1)
    with pytest.raises(ValueError):
        load_code('{"code": [[[1,1,0]]]}', ex1)  # wrong sender count
    with pytest.raises(ValueError):
        load_code('{"code": [[[1,1]],[],[]]}', ex1)  # wrong vector width
    with pytest.raises(ValueError):
        load_code('{"code": [[[1,2,0]],[],[]]}', ex1)  # non-bit entry
    for entry in ("1.0", "true"):  # an integer 1 in any other JSON type
        with pytest.raises(ValueError, match="malformed vector"):
            load_code('{"code": [[[%s,1,0]],[],[]]}' % entry, ex1)


def test_load_rejects_unsupported_message(ex1):
    with pytest.raises(CodeSupportError):
        load_code('{"code": [[[0,0,1]],[],[]]}', ex1)


def test_corpus_codes_verify_both_modes(ex1):
    for name in ("ex1_code_a.json", "ex1_code_b.json"):
        code = load_corpus_code(name, ex1)
        assert verify_code(code, ex1, mode="algebraic")
        assert verify_code(code, ex1, mode="simulate")


def test_bad_code_fails_both_modes(ex1):
    code = LinearCode(K=3, senders=((1,), (), ()))  # x1 alone
    assert not verify_code(code, ex1, mode="algebraic")
    assert not verify_code(code, ex1, mode="simulate")


def test_verify_rejects_unknown_mode(ex1):
    code = load_corpus_code("ex1_code_a.json", ex1)
    with pytest.raises(ValueError):
        verify_code(code, ex1, mode="telepathy")


def test_pair_xor_fitting_induces_expected_code(ex1):
    code = code_from_fitting(PAIR_XOR_FITTING, ex1)
    assert code.senders == ((3,), (4,), (5,))  # x1+x2 | x3 | x1+x3
    assert verify_code(code, ex1, mode="algebraic")
    assert verify_code(code, ex1, mode="simulate")


def test_pair_xor_fitting_decode_plans(ex1):
    plans = {k: decode_plan(PAIR_XOR_FITTING, ex1, k) for k in (1, 2, 3)}
    assert plans[1].sender_coefficients == (0, 1, 1)  # u2 + u3
    assert plans[1].side_subtract == frozenset()
    assert plans[2].sender_coefficients == (1, 0, 1)  # u1 + u3, then drop x3
    assert plans[2].side_subtract == frozenset({3})
    assert plans[3].sender_coefficients == (0, 1, 0)  # u2
    assert plans[3].side_subtract == frozenset()


def test_code_to_fitting_reproduces_converse(ex1):
    code = load_corpus_code("ex1_code_b.json", ex1)
    A = code_to_fitting(code, ex1)
    assert A.sum_rank() == 2
    assert fits(A, ex1) is not None
    assert A.blocks == ((3, 0, 3), (0, 6, 6), (0, 0, 0))


def test_code_to_fitting_rejects_undecodable(ex1):
    code = LinearCode(K=3, senders=((1,), (), ()))
    with pytest.raises(UndecodableCodeError):
        code_to_fitting(code, ex1)


def test_code_from_fitting_demands_a_fitting(ex1):
    stray = CompositeAdjacency(K=3, N=3, blocks=((7, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        code_from_fitting(stray, ex1)


def test_modes_agree_on_random_codes():
    rng = random.Random(99)
    for inst in random_suite(25):
        store_masks = []
        for n in range(1, inst.N + 1):
            mask = 0
            for m in inst.sender_stores[n - 1]:
                mask |= 1 << (m - 1)
            store_masks.append(mask)
        for _ in range(4):
            senders = []
            for mask in store_masks:
                count = rng.randrange(0, 3)
                senders.append(
                    tuple(rng.randrange(0, mask + 1) & mask for _ in range(count))
                )
            code = LinearCode(K=inst.K, senders=tuple(senders))
            assert verify_code(code, inst, mode="algebraic") == verify_code(
                code, inst, mode="simulate"
            )


def test_round_trip_through_solver_witness():
    for inst in random_suite(20):
        report = hyperminrank(inst)
        code = code_from_fitting(report.witness, inst)
        assert code_length(code) == report.hyperminrank
        assert verify_code(code, inst, mode="simulate")
        back = code_to_fitting(code, inst)
        assert back.sum_rank() <= code_length(code)
