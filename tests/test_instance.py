from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import corpus_text, instances, random_suite
from msic.cli import main
from msic.instance import (
    GenerationError,
    Instance,
    InstanceFormatError,
    InstanceValidationError,
    derive_stats,
    generate_embedded,
    generate_random,
    parse_instance,
    serialize_instance,
)


def test_parse_serialize_round_trip_on_suite():
    for inst in random_suite(30):
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_generate_random_is_deterministic(seed):
    a = generate_random(4, 2, delta=0.5, r0=2, seed=seed)
    b = generate_random(4, 2, delta=0.5, r0=2, seed=seed)
    assert a == b


def test_generate_random_respects_budgets():
    for seed in range(40):
        inst = generate_random(5, 3, delta=0.4, r0=2, seed=seed)
        stats = derive_stats(inst)
        assert stats.total_load <= int((1 + 0.4) * 5)
        assert all(len(r) <= 2 for r in inst.side_info)
        assert all(k not in inst.side_info[k - 1] for k in range(1, 6))


def test_generate_random_rejects_bad_parameters():
    with pytest.raises(GenerationError):
        generate_random(0, 1, delta=0.0, r0=0, seed=1)
    with pytest.raises(GenerationError):
        generate_random(3, 1, delta=1.5, r0=0, seed=1)
    with pytest.raises(GenerationError):
        generate_random(3, 1, delta=0.0, r0=3, seed=1)


def test_generate_embedded_shape():
    for seed in range(25):
        inst = generate_embedded(4, seed=seed)
        assert inst.K == inst.N == 4
        for n in range(1, 5):
            assert inst.sender_stores[n - 1] == inst.side_info[n - 1]


def test_generate_embedded_degenerate_k1():
    with pytest.raises(GenerationError):
        generate_embedded(1, seed=0)


# ---- file format errors ----


def _ex1_obj():
    return {
        "K": 3,
        "N": 3,
        "senders": [[1, 2], [2, 3], [1, 3]],
        "receivers": [[2], [3], [1]],
    }


# The entry messages as they read before `_index_list` tested `type(v) is int` first.
ENTRY_MESSAGES = [
    ("senders", 1, [1, True], "senders[1] holds a non-integer entry True"),
    ("senders", 2, [2.0, 3], "senders[2] holds a non-integer entry 2.0"),
    ("receivers", 1, [[2]], "receivers[1] holds a non-integer entry [2]"),
    ("senders", 3, ["1", 3], "senders[3] holds a non-integer entry '1'"),
    ("receivers", 3, [1, 1], "receivers[3] holds duplicate entries"),
    ("senders", 2, [2, 3, 2], "senders[2] holds duplicate entries"),
    ("senders", 1, 1, "senders[1] must be an array, got int"),
    ("receivers", 2, None, "receivers[2] must be an array, got NoneType"),
    ("receivers", 2, {"a": 1}, "receivers[2] must be an array, got dict"),
]


@pytest.mark.parametrize("field, index, entry, message", ENTRY_MESSAGES)
def test_parse_entry_messages_are_unchanged(field, index, entry, message):
    obj = _ex1_obj()
    obj[field][index - 1] = entry
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(obj))
    assert str(exc.value) == message


def test_parse_rejects_bad_json():
    with pytest.raises(InstanceFormatError):
        parse_instance("{not json")


def test_parse_rejects_unknown_and_missing_fields():
    obj = _ex1_obj()
    obj["extra"] = 1
    with pytest.raises(InstanceFormatError, match="unknown"):
        parse_instance(json.dumps(obj))
    obj = _ex1_obj()
    del obj["N"]
    with pytest.raises(InstanceFormatError, match="missing"):
        parse_instance(json.dumps(obj))


def test_parse_rejects_bool_masquerading_as_int():
    obj = _ex1_obj()
    obj["K"] = True
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(obj))


def test_parse_rejects_duplicates():
    obj = _ex1_obj()
    obj["senders"][0] = [1, 1, 2]
    with pytest.raises(InstanceFormatError, match="duplicate"):
        parse_instance(json.dumps(obj))


def test_parse_flags_validation_violations():
    obj = _ex1_obj()
    obj["receivers"][0] = [1]  # own demand as side info
    with pytest.raises(InstanceValidationError):
        parse_instance(json.dumps(obj))
    obj = _ex1_obj()
    obj["senders"] = [[1, 2], [2], [1]]  # message 3 stored nowhere
    with pytest.raises(InstanceValidationError, match="stored at no sender"):
        parse_instance(json.dumps(obj))


def test_validate_collects_multiple_violations():
    with pytest.raises(InstanceValidationError) as exc:
        Instance(
            K=2,
            N=1,
            sender_stores=(frozenset({1, 7}),),
            side_info=(frozenset({1}), frozenset()),
        )
    assert len(exc.value.violations) >= 3  # out of range, own demand, message 2 missing


def test_construction_is_the_one_gate(ex1):
    # Every consumer takes an Instance, so none can be handed an invalid one.
    with pytest.raises(InstanceValidationError, match="expected 4 sender stores, got 3"):
        dataclasses.replace(ex1, N=4)
    with pytest.raises(InstanceValidationError) as exc:
        Instance(K=2, N=1, sender_stores=(frozenset({1}),), side_info=(frozenset(), frozenset()))
    assert exc.value.violations == ["message 2 is stored at no sender"]


def _referee_violations(K, sender_stores, side_info):
    """The model-rule loops of `Instance.__post_init__` as they were
    before it tested each set with one subset test."""
    out = []
    for n, store in enumerate(sender_stores, start=1):
        for m in store:
            if not 1 <= m <= K:
                out.append(f"sender {n} stores out-of-range message {m}")
    for k, known in enumerate(side_info, start=1):
        for m in known:
            if not 1 <= m <= K:
                out.append(f"receiver {k} has out-of-range side information {m}")
        if k in known:
            out.append(f"receiver {k} lists its own demand {k} as side information")
    stored = frozenset().union(*sender_stores)
    out += [f"message {m} is stored at no sender" for m in range(1, K + 1) if m not in stored]
    return out


@st.composite
def _raw_sets(draw):
    """K, N and sets drawn from -3..K + 3: out-of-range messages (0,
    K + 1, negative), receivers that know their own demand and unstored
    messages all occur."""
    K = draw(st.integers(min_value=1, max_value=9))
    N = draw(st.integers(min_value=1, max_value=4))
    entries = st.frozensets(st.integers(min_value=-3, max_value=K + 3), max_size=K + 2)
    stores = tuple(draw(entries) for _ in range(N))
    side = tuple(draw(entries) for _ in range(K))
    return K, N, stores, side


@given(_raw_sets())
@settings(max_examples=400)
def test_violations_match_the_referee_loops(raw):
    K, N, stores, side = raw
    expected = _referee_violations(K, stores, side)
    if not expected:
        Instance(K=K, N=N, sender_stores=stores, side_info=side)
        return
    with pytest.raises(InstanceValidationError) as exc:
        Instance(K=K, N=N, sender_stores=stores, side_info=side)
    assert exc.value.violations == expected


# ---- canonical text ----


@given(instances(max_k=40, max_n=6))
@settings(max_examples=200)
def test_serialize_is_the_canonical_json(inst):
    payload = {
        "K": inst.K,
        "N": inst.N,
        "senders": [sorted(s) for s in inst.sender_stores],
        "receivers": [sorted(r) for r in inst.side_info],
    }
    text = serialize_instance(inst)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert parse_instance(text) == inst


# computed with the json.dumps serializer this one replaced
CORPUS_DIGESTS = {
    "ex1": "03753b0ff3b2d96e02d54837ce7f0a73cc3ab855bba4b0250070314813b09b51",
    "ex2": "8da88a9b34f74653a8c63e9438829a45e8d96cf88db4fe59b5fd4462150b8e49",
    "ex3": "0026c1d6bd80d52ea7002dce49937e32c6bd63afc9881a59fcc928e7bc6de727",
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_digests_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(corpus_text(f"{name}.json"))
    assert main(["solve", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["instance_digest"] == CORPUS_DIGESTS[name]


# ---- derived statistics ----


def test_derive_stats_ex_values(ex1, ex2, ex3):
    s1 = derive_stats(ex1)
    assert s1.replication == (2, 2, 2)
    assert s1.total_load == 6
    assert s1.delta == Fraction(1, 1)
    assert s1.r0 == 1

    s2 = derive_stats(ex2)
    assert s2.replication == (2, 1, 2, 1, 2, 1)
    assert s2.total_load == 9
    assert s2.replicated_set == {1, 3, 5}
    assert s2.r0 == 3

    s3 = derive_stats(ex3)
    assert s3.replication == (1, 2, 1)
    assert s3.total_load == 4
    assert s3.delta == Fraction(1, 3)
    assert s3.availability == (frozenset({1}), frozenset({1, 2}), frozenset({2}))
