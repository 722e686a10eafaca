from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import instances

from msic.hypergraph import (
    CACHED,
    COUPLED,
    DEMAND,
    CompositeAdjacency,
    HyperEdge,
    SubChoice,
    adjacency,
    build,
    complement,
    fits,
    sender_projection_pairs,
    sub_adjacency,
)
from msic.instance import Instance, derive_stats, generate_embedded


def test_ex1_edge_inventory(ex1):
    hg = build(ex1)
    assert {(e.k, e.n) for e in hg.demand} == {
        (1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 3)
    }
    assert {(e.k, e.k2, e.n) for e in hg.cached} == {
        (1, 2, 1), (1, 2, 2), (2, 3, 2), (2, 3, 3), (3, 1, 1), (3, 1, 3)
    }
    assert {(e.k, e.k2, e.n, e.n2) for e in hg.coupled} == {
        (1, 3, 2, 3), (2, 1, 1, 3), (3, 2, 1, 2)
    }


def test_ex1_full_adjacency_rows(ex1):
    A = adjacency(build(ex1))
    # every receiver sees the same pattern: [1,1,0 | 0,1,1 | 1,0,1]
    assert A.blocks == ((3, 3, 3), (6, 6, 6), (5, 5, 5))
    assert A.entry(1, 2, 1) == 1
    assert A.entry(1, 3, 1) == 0
    assert A.sum_rank() == 3


def test_ex2_coupled_edges_exist(ex2):
    hg = build(ex2)
    # message 5 sits at senders 2 and 3; receiver 6 neither holds nor wants it
    assert HyperEdge(6, 5, 2, 3, COUPLED) in hg.coupled
    assert all(e.n < e.n2 for e in hg.coupled)


def test_edge_shape_rules():
    with pytest.raises(ValueError):
        HyperEdge(1, 2, 1, 1, DEMAND)
    with pytest.raises(ValueError):
        HyperEdge(1, 2, 1, 2, CACHED)
    with pytest.raises(ValueError):
        HyperEdge(1, 2, 2, 1, COUPLED)
    with pytest.raises(ValueError):
        HyperEdge(1, 1, 1, 2, COUPLED)


def test_full_adjacency_fits_only_with_odd_replication(ex1, ex2, ex3):
    # Selecting every edge puts d_k demand entries in row k, so the full
    # matrix is decodable only when every message has odd replication.
    # All three corpus instances replicate some message twice.
    for inst in (ex1, ex2, ex3):
        stats = derive_stats(inst)
        assert any(d % 2 == 0 for d in stats.replication)
        assert fits(adjacency(build(inst)), inst) is None

    odd = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset({2}), frozenset({1})),
    )
    A = adjacency(build(odd))
    assert A.blocks == ((3, 3),)
    choice = fits(A, odd)
    assert choice is not None
    assert choice.demand_senders == (frozenset({1}), frozenset({1}))
    assert choice.cached_edges == (frozenset({(2, 1)}), frozenset({(1, 1)}))
    assert choice.coupled_senders == ((), ())
    assert sub_adjacency(choice, odd) == A


def test_fits_rejects_misplaced_entries(ex1):
    # demand at a sender that does not store the message: A_2 row 1 diag
    bad = CompositeAdjacency(K=3, N=3, blocks=((0, 0, 0), (1, 0, 0), (0, 0, 0)))
    assert fits(bad, ex1) is None
    # even number of demand edges for receiver 1
    bad = CompositeAdjacency(K=3, N=3, blocks=((1, 0, 0), (0, 0, 0), (1, 0, 0)))
    assert fits(bad, ex1) is None
    # coupled support with odd sender count: message 3 lives at senders 2,3
    bad = CompositeAdjacency(K=3, N=3, blocks=((1, 0, 0), (4, 0, 0), (0, 0, 0)))
    assert fits(bad, ex1) is None


def test_fits_rejects_bits_past_k_and_short_blocks():
    inst = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset(), frozenset()),
    )
    assert fits(CompositeAdjacency(K=2, N=1, blocks=((0b001, 0b010),)), inst) is not None
    # a 1 in column 3, past K: no edge selects it
    assert fits(CompositeAdjacency(K=2, N=1, blocks=((0b101, 0b010),)), inst) is None
    # a block with fewer, or more, than K rows
    assert fits(CompositeAdjacency(K=2, N=1, blocks=((0b001,),)), inst) is None
    assert fits(CompositeAdjacency(K=2, N=1, blocks=((0b001, 0b010, 0b000),)), inst) is None


def test_fits_accepts_even_coupled_pair(ex1):
    # receiver 1 takes demand at sender 1 plus x3 at both of senders 2 and 3;
    # receivers 2 and 3 take unit demands
    A = CompositeAdjacency(K=3, N=3, blocks=((1, 2, 0), (4, 0, 4), (4, 0, 0)))
    choice = fits(A, ex1)
    assert choice is not None
    assert choice.coupled_senders[0] == ((3, frozenset({2, 3})),)
    assert choice.demand_senders == (frozenset({1}), frozenset({1}), frozenset({2}))


def _random_choice(inst, rng) -> SubChoice:
    holders = [sorted(inst.stores_of(m)) for m in range(1, inst.K + 1)]
    demand, cached, coupled = [], [], []
    for k in range(1, inst.K + 1):
        pick = rng.sample(holders[k - 1], rng.randrange(1, len(holders[k - 1]) + 1, 2))
        demand.append(frozenset(pick))
        edges = [(m, n) for m in sorted(inst.side_info[k - 1]) for n in holders[m - 1]]
        cached.append(frozenset(e for e in edges if rng.random() < 0.5))
        pairs = []
        for k2 in range(1, inst.K + 1):
            if k2 == k or k2 in inst.side_info[k - 1]:
                continue
            hs = holders[k2 - 1]
            size = rng.randrange(0, len(hs) + 1, 2)
            if size:
                pairs.append((k2, frozenset(rng.sample(hs, size))))
        coupled.append(tuple(pairs))
    return SubChoice(
        demand_senders=tuple(demand),
        cached_edges=tuple(cached),
        coupled_senders=tuple(coupled),
    )


def test_sub_adjacency_round_trip_random(ex2):
    rng = random.Random(7)
    for _ in range(50):
        choice = _random_choice(ex2, rng)
        A = sub_adjacency(choice, ex2)
        assert fits(A, ex2) == choice


def test_fits_round_trips_perturbed_matrices(ex2):
    # flip one bit of a fitting matrix, in any column up to K + 1: what
    # fits then accepts, its selection rebuilds exactly
    rng = random.Random(11)
    accepted = 0
    for _ in range(500):
        blocks = [list(b) for b in sub_adjacency(_random_choice(ex2, rng), ex2).blocks]
        blocks[rng.randrange(ex2.N)][rng.randrange(ex2.K)] ^= 1 << rng.randrange(ex2.K + 1)
        A = CompositeAdjacency(K=ex2.K, N=ex2.N, blocks=tuple(map(tuple, blocks)))
        choice = fits(A, ex2)
        if choice is not None:
            accepted += 1
            assert sub_adjacency(choice, ex2) == A
    assert accepted >= 20


def test_complement_ex1_projections(ex1):
    comp = complement(build(ex1))
    pairs = sender_projection_pairs(comp)
    assert pairs[0] == {(1, 1), (2, 2), (1, 3), (2, 3)}
    assert pairs[1] == {(2, 2), (3, 3), (2, 1), (3, 1)}
    assert pairs[2] == {(1, 1), (3, 3), (1, 2), (3, 2)}
    assert comp.coupled == frozenset()


def test_complement_no_side_info_single_sender():
    inst = Instance(
        K=2,
        N=1,
        sender_stores=(frozenset({1, 2}),),
        side_info=(frozenset(), frozenset()),
    )
    comp = complement(build(inst))
    pairs = sender_projection_pairs(comp)
    assert pairs[0] == {(1, 1), (2, 2), (1, 2), (2, 1)}


def test_complement_adjacency_reads_its_own_edges(ex1):
    # the complement has no coupled edges: its adjacency is its projections
    comp = complement(build(ex1))
    A = adjacency(comp)
    assert A.blocks == ((5, 6, 0), (0, 3, 5), (3, 0, 6))
    for n, pairs in enumerate(sender_projection_pairs(comp), start=1):
        assert pairs == {(k, k2) for k in (1, 2, 3) for k2 in (1, 2, 3) if A.entry(k, k2, n)}


def _referee_adjacency(hg):
    """The per-entry loop `adjacency` used to rebuild from `hg.inst`."""
    inst = hg.inst
    holders = inst.holders
    blocks = []
    for n in range(1, inst.N + 1):
        rows = []
        store = inst.sender_stores[n - 1]
        for k in range(1, inst.K + 1):
            row = 0
            for k2 in range(1, inst.K + 1):
                if k2 == k:
                    bit = 1 if k in store else 0
                elif k2 in inst.side_info[k - 1]:
                    bit = 1 if k2 in store else 0
                elif n in holders[k2 - 1]:
                    bit = (len(holders[k2 - 1]) - 1) & 1
                else:
                    bit = 0
                row |= bit << (k2 - 1)
            rows.append(row)
        blocks.append(tuple(rows))
    return CompositeAdjacency(K=inst.K, N=inst.N, blocks=tuple(blocks))


@given(instances(max_k=6, max_n=4))
@settings(max_examples=200)
def test_adjacency_matches_the_referee_loop(inst):
    hg = build(inst)
    assert adjacency(hg) == _referee_adjacency(hg)


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_adjacency_matches_the_referee_loop_on_embedded_instances(K):
    for seed in range(5):
        hg = build(generate_embedded(K, seed=seed))
        assert adjacency(hg) == _referee_adjacency(hg)


def _referee_check_choice(choice, inst):
    """The rule list `sub_adjacency` used to check a selection with."""
    holders = inst.holders
    if (
        len(choice.demand_senders) != inst.K
        or len(choice.cached_edges) != inst.K
        or len(choice.coupled_senders) != inst.K
    ):
        raise ValueError("choice must carry one entry per receiver")
    for k in range(1, inst.K + 1):
        dsel = choice.demand_senders[k - 1]
        if not dsel.issubset(holders[k - 1]):
            raise ValueError(f"receiver {k}: demand senders {sorted(dsel)} not all store {k}")
        if len(dsel) % 2 != 1:
            raise ValueError(f"receiver {k}: selected demand edge count must be odd")
        for m, n in choice.cached_edges[k - 1]:
            if m not in inst.side_info[k - 1] or n not in holders[m - 1]:
                raise ValueError(f"receiver {k}: ({m},{n}) is not a cached edge")
        for k2, senders in choice.coupled_senders[k - 1]:
            if k2 == k or k2 in inst.side_info[k - 1]:
                raise ValueError(f"receiver {k}: message {k2} admits no coupled edges")
            if not senders or len(senders) % 2 != 0:
                raise ValueError(f"receiver {k}: coupled sender set for {k2} must be even and non-empty")
            if not senders.issubset(holders[k2 - 1]):
                raise ValueError(f"receiver {k}: coupled senders for {k2} must all store {k2}")


def _referee_sub_adjacency(choice, inst):
    """The rule list, then each selected cell ORed into its block."""
    _referee_check_choice(choice, inst)
    rows = [[0] * inst.K for _ in range(inst.N)]
    for k in range(1, inst.K + 1):
        for n in choice.demand_senders[k - 1]:
            rows[n - 1][k - 1] |= 1 << (k - 1)
        for m, n in choice.cached_edges[k - 1]:
            rows[n - 1][k - 1] |= 1 << (m - 1)
        for k2, senders in choice.coupled_senders[k - 1]:
            for n in senders:
                rows[n - 1][k - 1] |= 1 << (k2 - 1)
    return CompositeAdjacency(K=inst.K, N=inst.N, blocks=tuple(tuple(r) for r in rows))


def _normalized(choice) -> bool:
    """Tuple fields, and each receiver's coupled messages strictly ascending."""
    fields = (choice.demand_senders, choice.cached_edges, choice.coupled_senders)
    return all(type(f) is tuple for f in fields) and all(
        type(pairs) is tuple
        and all(type(pair) is tuple for pair in pairs)
        and all(a[0] < b[0] for a, b in zip(pairs, pairs[1:]))
        for pairs in choice.coupled_senders
    )


def _ex1_choice(**fields) -> SubChoice:
    """A valid ex1 selection (unit demands, nothing else), with receiver
    1's entry of each named field replaced."""
    demand = [frozenset({1}), frozenset({1}), frozenset({2})]
    cached = [frozenset()] * 3
    coupled = [()] * 3
    demand[0] = fields.get("demand", demand[0])
    cached[0] = fields.get("cached", cached[0])
    coupled[0] = fields.get("coupled", coupled[0])
    return SubChoice(tuple(demand), tuple(cached), tuple(coupled))


# ex1: message 1 at senders 1 and 3, 2 at 1 and 2, 3 at 2 and 3; receiver
# 1 knows message 2, so message 3 is its one coupled message
REJECTED = {
    "wrong length": SubChoice((frozenset({1}),) * 2, (frozenset(),) * 3, ((),) * 3),
    "even demand set": _ex1_choice(demand=frozenset({1, 3})),
    "empty demand set": _ex1_choice(demand=frozenset()),
    "demand at a non-holder": _ex1_choice(demand=frozenset({2})),
    "cached cell of an unknown message": _ex1_choice(cached=frozenset({(3, 2)})),
    "cached cell at a non-holder": _ex1_choice(cached=frozenset({(2, 3)})),
    "coupled entry for the demand": _ex1_choice(coupled=((1, frozenset({1, 3})),)),
    "coupled entry for a known message": _ex1_choice(coupled=((2, frozenset({1, 2})),)),
    "empty coupled set": _ex1_choice(coupled=((3, frozenset()),)),
    "odd coupled set": _ex1_choice(coupled=((3, frozenset({2})),)),
    "coupled sender not holding": _ex1_choice(coupled=((3, frozenset({1, 2})),)),
    "demand sender 0": _ex1_choice(demand=frozenset({0})),
    "demand sender N + 1": _ex1_choice(demand=frozenset({4})),
    "cached message 0": _ex1_choice(cached=frozenset({(0, 1)})),
    "cached message K + 1": _ex1_choice(cached=frozenset({(4, 1)})),
    "cached sender 0": _ex1_choice(cached=frozenset({(2, 0)})),
    "cached sender N + 1": _ex1_choice(cached=frozenset({(2, 4)})),
    "coupled message 0": _ex1_choice(coupled=((0, frozenset({1, 2})),)),
    "coupled sender 0": _ex1_choice(coupled=((3, frozenset({0, 2})),)),
    "coupled sender N + 1": _ex1_choice(coupled=((3, frozenset({2, 4})),)),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_sub_adjacency_rejects_each_broken_rule(ex1, case):
    assert sub_adjacency(_ex1_choice(), ex1).blocks == ((1, 2, 0), (0, 0, 4), (0, 0, 0))
    with pytest.raises(ValueError):
        _referee_check_choice(REJECTED[case], ex1)
    with pytest.raises(ValueError):
        sub_adjacency(REJECTED[case], ex1)


def test_sub_adjacency_rejects_coupled_message_past_k(ex1):
    # the old rule list read holders[K] here and raised IndexError
    with pytest.raises(ValueError):
        sub_adjacency(_ex1_choice(coupled=((4, frozenset({2, 3})),)), ex1)


def test_sub_adjacency_rejects_an_odd_union_of_coupled_entries():
    # each entry alone is an even set of holders of message 2, but the
    # two together select senders {1, 2, 3}: an odd, unfitting row sum
    inst = Instance(
        K=2,
        N=3,
        sender_stores=(frozenset({1, 2}), frozenset({2}), frozenset({2})),
        side_info=(frozenset(), frozenset()),
    )
    pairs = ((2, frozenset({1, 2})), (2, frozenset({1, 3})))
    choice = SubChoice(
        demand_senders=(frozenset({1}), frozenset({1})),
        cached_edges=(frozenset(), frozenset()),
        coupled_senders=(pairs, ()),
    )
    with pytest.raises(ValueError):
        sub_adjacency(choice, inst)


def test_sub_adjacency_rejects_non_normalized_forms():
    everything = frozenset({1, 2, 3})
    inst = Instance(K=3, N=2, sender_stores=(everything,) * 2, side_info=(frozenset(),) * 3)
    both = frozenset({1, 2})
    demand = (frozenset({1}),) * 3
    cached = (frozenset(),) * 3
    valid = SubChoice(demand, cached, (((2, both), (3, both)), (), ()))
    assert sub_adjacency(valid, inst).blocks == ((7, 2, 4), (6, 0, 0))
    for coupled in (((3, both), (2, both)), ((2, both), (2, both))):
        with pytest.raises(ValueError):
            sub_adjacency(SubChoice(demand, cached, (coupled, (), ())), inst)
    for listed in (
        SubChoice(list(demand), cached, valid.coupled_senders),
        SubChoice(demand, list(cached), valid.coupled_senders),
        SubChoice(demand, cached, list(valid.coupled_senders)),
        SubChoice(demand, cached, ([(2, both), (3, both)], (), ())),
    ):
        assert _referee_sub_adjacency(listed, inst) == sub_adjacency(valid, inst)
        with pytest.raises(ValueError):
            sub_adjacency(listed, inst)


@st.composite
def perturbed_choices(draw):
    """A valid selection of a small instance, then up to three edits that
    may break a rule, an index range or the normalized form."""
    inst = draw(instances(max_k=4, max_n=3))
    K, N = inst.K, inst.N
    choice = _random_choice(inst, random.Random(draw(st.integers(0, 2**32))))
    demand = list(choice.demand_senders)
    cached = list(choice.cached_edges)
    coupled = [list(pairs) for pairs in choice.coupled_senders]
    message, sender = st.integers(0, K + 1), st.integers(0, N + 1)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, K - 1))
        edit = draw(st.sampled_from(["demand", "cached", "coupled", "drop", "swap", "repeat"]))
        if edit == "demand":
            demand[k] ^= {draw(sender)}
        elif edit == "cached":
            cached[k] ^= {(draw(message), draw(sender))}
        elif edit == "coupled":
            pair = (draw(message), frozenset(draw(st.sets(sender, max_size=4))))
            coupled[k].insert(draw(st.integers(0, len(coupled[k]))), pair)
        elif coupled[k] and edit == "drop":
            del coupled[k][draw(st.integers(0, len(coupled[k]) - 1))]
        elif coupled[k] and edit == "swap":
            coupled[k].reverse()
        elif coupled[k] and edit == "repeat":
            coupled[k].append(coupled[k][-1])
    fields = [tuple(demand), tuple(cached), tuple(map(tuple, coupled))]
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, 2))
        fields[i] = list(fields[i])
    return inst, SubChoice(*fields)


@given(perturbed_choices())
@settings(max_examples=400)
def test_sub_adjacency_matches_the_referee_on_normalized_selections(case):
    inst, choice = case
    try:
        want = _referee_sub_adjacency(choice, inst) if _normalized(choice) else None
    except (ValueError, IndexError):
        # IndexError: the old rule list read holders[K] for coupled message K + 1
        want = None
    try:
        got = sub_adjacency(choice, inst)
    except ValueError:
        got = None
    assert got == want
