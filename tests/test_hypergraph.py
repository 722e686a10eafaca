from __future__ import annotations

import random

import pytest

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
from msic.instance import Instance, derive_stats


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
