from __future__ import annotations

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import corpus_text, instances, random_suite
from msic import codec
from msic.bounds import clique_cover_upper, induced_code
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
from msic.gf2 import eliminate, express, express_in_span
from msic.hypergraph import CompositeAdjacency, fits
from msic.instance import generate_random
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


@st.composite
def _codes(draw):
    K = draw(st.integers(min_value=0, max_value=70))
    vectors = st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from([0, (1 << K) - 1])
    senders = st.lists(st.lists(vectors, max_size=4).map(tuple), max_size=4).map(tuple)
    return LinearCode(K=K, senders=draw(senders))


@given(_codes())
@settings(max_examples=300, deadline=None)
def test_serialize_code_matches_the_library(code):
    bits = [[[(vec >> i) & 1 for i in range(code.K)] for vec in vectors] for vectors in code.senders]
    assert serialize_code(code) == json.dumps({"code": bits}, sort_keys=True, separators=(",", ":"))


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


def test_code_to_fitting_rejects_unstored_messages(ex1):
    code = LinearCode(K=3, senders=((4,), (), ()))  # sender 1 does not store x3
    with pytest.raises(CodeSupportError, match=r"sender 1 combines unstored messages \[3\]"):
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
            algebraic = verify_code(code, inst, mode="algebraic")
            assert algebraic == verify_code(code, inst, mode="simulate")
            assert codec.verdicts(code, inst) == (algebraic, algebraic)
            if not algebraic:
                with pytest.raises(UndecodableCodeError):
                    code_to_fitting(code, inst)
                continue
            A = code_to_fitting(code, inst)
            assert fits(A, inst) is not None
            assert A.sum_rank() <= code_length(code)


def test_round_trip_through_solver_witness():
    for inst in random_suite(20):
        report = hyperminrank(inst)
        code = code_from_fitting(report.witness, inst)
        assert codec.spanning_code(report.witness) == code
        assert code_length(code) == report.hyperminrank
        assert verify_code(code, inst, mode="simulate")
        back = code_to_fitting(code, inst)
        assert back.sum_rank() <= code_length(code)


def _simulate_per_message(code, inst):
    """The per-message simulation the bit-sliced one replaced, as a
    referee.

    Verbatim but for flattening the code itself, calling codec.express
    on the basis's `eliminate` table and reading the codec constants, so
    that a monkeypatch reaches both simulations.
    """
    vectors = [vec for vs in code.senders for vec in vs]
    plans = []
    for k in range(1, inst.K + 1):
        side = sorted(inst.side_info[k - 1])
        basis = vectors + [1 << (j - 1) for j in side]
        table = {}
        eliminate(table, basis, 0)
        coeffs = codec.express(1 << (k - 1), table)
        if coeffs is None:
            return False
        sel_tx = [i for i in range(len(vectors)) if (coeffs >> i) & 1]
        sel_side = [side[i] for i in range(len(side)) if (coeffs >> (len(vectors) + i)) & 1]
        plans.append((k, sel_tx, sel_side))

    if inst.K <= codec.SIM_EXHAUSTIVE_LIMIT:
        messages = range(1 << inst.K)
    else:
        rng = random.Random(codec.SIM_SEED)
        messages = [rng.getrandbits(inst.K) for _ in range(codec.SIM_SAMPLES)]
    for x in messages:
        tx = [(vec & x).bit_count() & 1 for vec in vectors]
        for k, sel_tx, sel_side in plans:
            bit = 0
            for i in sel_tx:
                bit ^= tx[i]
            for j in sel_side:
                bit ^= (x >> (j - 1)) & 1
            if bit != (x >> (k - 1)) & 1:
                return False
    return True


def _random_codes(inst, rng, count):
    """Random codes inside the sender stores, plus the induced cover
    code, which always decodes."""
    codes = [induced_code(clique_cover_upper(inst, mode="greedy")[1], inst)]
    for _ in range(count):
        senders = []
        for store in inst.sender_stores:
            mask = sum(1 << (m - 1) for m in store)
            senders.append(
                tuple(rng.getrandbits(inst.K) & mask for _ in range(rng.randrange(4)))
            )
        codes.append(LinearCode(K=inst.K, senders=tuple(senders)))
    return codes


def test_simulation_matches_the_per_message_referee():
    rng = random.Random(7)
    verdicts = []
    for inst in random_suite(50) + [
        generate_random(K, 3, delta=0.5, r0=K // 2, seed=K) for K in range(5, 13)
    ]:
        for code in _random_codes(inst, rng, 6):
            verdict = verify_code(code, inst, mode="simulate")
            assert verdict == _simulate_per_message(code, inst)
            verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("K", [17, 18])
def test_sampled_simulation_matches_the_referee(K):
    inst = generate_random(K, 4, delta=0.5, r0=K // 2, seed=K)
    codes = _random_codes(inst, random.Random(K), 2)
    assert verify_code(codes[0], inst, mode="simulate")
    for code in codes:
        assert verify_code(code, inst, mode="simulate") == _simulate_per_message(code, inst)


@pytest.mark.parametrize("K", [6, 17])
def test_wrong_decode_plan_fails_the_simulation(K, monkeypatch):
    # Flipping the first coefficient adds a nonzero transmission to every
    # receiver's sum, so some message decodes wrong in both simulations.
    inst = generate_random(K, 3, delta=0.5, r0=K // 2, seed=K)
    code = induced_code(clique_cover_upper(inst, mode="greedy")[1], inst)
    assert verify_code(code, inst, mode="simulate")
    monkeypatch.setattr(codec, "express", lambda target, table: express(target, table) ^ 1)
    assert not verify_code(code, inst, mode="simulate")
    assert codec.verdicts(code, inst) == (True, False)
    assert not _simulate_per_message(code, inst)


def _decodings_from_scratch(code, inst):
    """Each receiver's mask from its own elimination of the code's
    vectors and its side units, as a referee for the shared one."""
    vectors = [vec for vs in code.senders for vec in vs]
    out = []
    for k in range(1, inst.K + 1):
        side = sorted(inst.side_info[k - 1])
        mask = express_in_span(1 << (k - 1), vectors + [1 << (j - 1) for j in side])
        out.append((k, mask, side))
        if mask is None:
            break
    return out


@given(instances(max_k=20, max_n=4), st.data())
@settings(max_examples=200, deadline=None)
def test_shared_elimination_decodes_as_from_scratch(inst, data):
    # The greedy cover code always decodes; a drawn one mostly does not.
    if data.draw(st.booleans(), label="cover code"):
        code = induced_code(clique_cover_upper(inst, mode="greedy")[1], inst)
    else:
        code = LinearCode(
            K=inst.K,
            senders=tuple(
                tuple(
                    vec & sum(1 << (m - 1) for m in store)
                    for vec in data.draw(st.lists(st.integers(0, (1 << inst.K) - 1), max_size=5))
                )
                for store in inst.sender_stores
            ),
        )
    assert list(codec._decodings(code, inst)) == _decodings_from_scratch(code, inst)
