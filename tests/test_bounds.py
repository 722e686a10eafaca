from __future__ import annotations

import random
import sys
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances, random_suite
from msic import bounds
from msic.bounds import (
    COND_CONTAINS,
    COND_NO_LOOPS,
    CliqueCover,
    ComplementCliqueWitness,
    ImplementableClique,
    clique_cover_upper,
    complement_clique_lower,
    enumerate_implementable_cliques,
    induced_code,
)
from msic.codec import verify_code
from msic.gf2 import support
from msic.hypergraph import build, complement, sender_projection_pairs
from msic.instance import Instance, generate_embedded, generate_random
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


def _scan_lower(inst):
    """The combinations scan the clique search replaced, as a referee."""
    comp = complement(build(inst))
    pairs = sender_projection_pairs(comp)
    for size in range(inst.K, 0, -1):
        for vertices in combinations(range(1, inst.K + 1), size):
            edges = frozenset((a, b) for a in vertices for b in vertices)
            hosts = [
                n for n in range(1, inst.N + 1) if edges <= pairs[n - 1]
            ]
            if not hosts:
                continue
            conditions = []
            for n in range(1, inst.N + 1):
                p = pairs[n - 1]
                if edges <= p:
                    conditions.append(COND_CONTAINS)
                elif all((k, k) not in p for k in vertices):
                    conditions.append(COND_NO_LOOPS)
                else:
                    break
            if len(conditions) < inst.N:
                continue
            witness = ComplementCliqueWitness(
                vertices=frozenset(vertices),
                host_sender=hosts[0],
                sender_conditions=tuple(conditions),
            )
            return size, witness
    return 0, None


def _fully_replicated(K: int, N: int, seed: int) -> Instance:
    """Every sender stores every message; seeded side information."""
    rng = random.Random(seed)
    return Instance(
        K=K,
        N=N,
        sender_stores=(frozenset(range(1, K + 1)),) * N,
        side_info=tuple(
            frozenset(m for m in range(1, K + 1) if m != k and rng.random() < 0.5)
            for k in range(1, K + 1)
        ),
    )


# Most messages here have two or more holders, the case that decides
# whether two receivers share one single holder.
REPLICATED = [
    _fully_replicated(K, N, seed)
    for K in range(1, 7)
    for N in range(1, 5)
    for seed in range(2)
] + [
    generate_random(K, 4, 0.8, r0, seed)
    for K in range(2, 10)
    for r0 in sorted({1, K - 1})
    for seed in range(3)
]


def test_lower_matches_the_scan_on_the_suite():
    for inst in random_suite(50) + REPLICATED:
        assert complement_clique_lower(inst) == _scan_lower(inst)


@pytest.mark.parametrize("K", range(3, 13))
def test_lower_matches_the_scan_on_embedded_instances(K):
    for g in range(10):
        inst = generate_embedded(K, g)
        assert complement_clique_lower(inst) == _scan_lower(inst)


@given(instances(max_k=9, max_n=4))
@settings(max_examples=200, deadline=None)
def test_lower_matches_the_scan(inst):
    assert complement_clique_lower(inst) == _scan_lower(inst)


def _clique_key(c: ImplementableClique) -> Tuple:
    """The order of `enumerate_implementable_cliques`."""
    return (tuple(sorted(c.receivers)), c.sender)


def _scan_cliques(inst):
    """The subset scan the extension search replaced, as a referee."""
    found = set()
    for n in range(1, inst.N + 1):
        store = sorted(inst.sender_stores[n - 1])
        for size in range(1, len(store) + 1):
            for subset in combinations(store, size):
                if all(
                    k2 in inst.side_info[k - 1]
                    for k in subset
                    for k2 in subset
                    if k2 != k
                ):
                    found.add(ImplementableClique(frozenset(subset), n))
    return sorted(found, key=_clique_key)


def test_cliques_match_the_scan_on_the_suite():
    for inst in random_suite(50) + REPLICATED:
        assert enumerate_implementable_cliques(inst) == _scan_cliques(inst)


@pytest.mark.parametrize("K", range(3, 13))
def test_cliques_match_the_scan_on_embedded_instances(K):
    for g in range(10):
        inst = generate_embedded(K, g)
        assert enumerate_implementable_cliques(inst) == _scan_cliques(inst)


@given(instances(max_k=9, max_n=4))
@settings(max_examples=200, deadline=None)
def test_cliques_match_the_scan(inst):
    assert enumerate_implementable_cliques(inst) == _scan_cliques(inst)


def test_lower_at_large_k():
    # the scan would try about 2**22 vertex sets here
    inst = generate_random(22, 4, delta=0.3, r0=11, seed=3)
    value, witness = complement_clique_lower(inst)
    assert value == 3
    assert witness.vertices == frozenset({1, 15, 20})
    assert witness.host_sender == 2
    assert witness.edges == frozenset(
        (a, b) for a in (1, 15, 20) for b in (1, 15, 20)
    )
    assert witness.sender_conditions == (
        "no-self-loops",
        "contains-clique",
        "no-self-loops",
        "no-self-loops",
    )


def _referee_greedy(
    cliques: List[ImplementableClique], K: int
) -> List[ImplementableClique]:
    """The greedy cover the one pass over receiver masks replaced, as a
    referee: the first clique that fits, in (-size, `_clique_key`) order,
    until every receiver is covered."""
    order = sorted(cliques, key=lambda c: (-len(c.receivers),) + _clique_key(c))
    uncovered = set(range(1, K + 1))
    chosen = []
    while uncovered:
        pick = next(c for c in order if c.receivers <= uncovered)
        chosen.append(pick)
        uncovered -= pick.receivers
    return chosen


def _referee_cover(
    cliques: List[ImplementableClique],
    K: int,
    seed: List[ImplementableClique],
) -> Tuple[List[ImplementableClique], bool]:
    """The frozenset cover search the mask kernel replaced, as a referee.

    Verbatim but for the `bounds.` prefix on the cap, which lets one
    monkeypatch cap both searches.
    """
    order = sorted(cliques, key=lambda c: (-len(c.receivers),) + _clique_key(c))
    by_receiver: Dict[int, List[ImplementableClique]] = {
        k: [c for c in order if k in c.receivers] for k in range(1, K + 1)
    }
    max_size = max(len(c.receivers) for c in cliques)
    best = list(seed)
    best_m = len(seed)
    nodes = 0
    capped = False

    def rec(uncovered: FrozenSet[int], parts: List[ImplementableClique]) -> None:
        nonlocal best, best_m, nodes, capped
        if capped:
            return
        nodes += 1
        if nodes > bounds.EXACT_NODE_CAP:
            capped = True
            return
        if not uncovered:
            if len(parts) < best_m:
                best_m = len(parts)
                best = parts.copy()
            return
        needed = -(-len(uncovered) // max_size)
        if len(parts) + needed >= best_m:
            return
        k = min(uncovered)
        for c in by_receiver[k]:
            if c.receivers <= uncovered:
                parts.append(c)
                rec(uncovered - c.receivers, parts)
                parts.pop()

    rec(frozenset(range(1, K + 1)), [])
    return best, capped


# A sweep costs about the square of the node total, so past this many
# nodes it keeps every cap up to here, every 97th beyond and the last
# three.  Only embedded9-g1 (8,397 nodes) is that large.
SWEEP_NODES = 1_100

# In the replicated instances many senders serve one receiver set, so
# the cover meets the same subtree again and again.
SWEPT = [(f"suite{i}", inst) for i, inst in enumerate(random_suite(50))] + [
    (f"embedded{K}-g{g}", generate_embedded(K, g))
    for K in range(2, 10)
    for g in range(10)
] + [(f"replicated{i}", inst) for i, inst in enumerate(REPLICATED)]


def _as_cliques(parts):
    """The kernel's (mask, sender) parts as cliques."""
    return [ImplementableClique(frozenset(k + 1 for k in support(mask)), n) for mask, n in parts]


def _cover_args(inst):
    """The kernel's arguments: the sorted receiver masks, K and the
    greedy seed."""
    groups = bounds._cover_groups(inst)
    return groups, inst.K, bounds._greedy_cover(groups, inst.K)


def _referee_args(inst, args):
    """The referee's arguments for the same search: every clique, K and
    the kernel's seed as cliques."""
    return enumerate_implementable_cliques(inst), inst.K, _as_cliques(args[2])


def _kernel_cover(args):
    cover, capped = bounds._exact_cover(*args)
    return _as_cliques(cover), capped


def _node_total(args, monkeypatch):
    """The least cap at which the referee finishes."""
    low, high = 0, bounds.EXACT_NODE_CAP
    while low < high:
        monkeypatch.setattr(bounds, "EXACT_NODE_CAP", (low + high) // 2)
        if _referee_cover(*args)[1]:
            low = (low + high) // 2 + 1
        else:
            high = (low + high) // 2
    return low


@pytest.mark.parametrize("inst", [i for _, i in SWEPT], ids=[n for n, _ in SWEPT])
def test_cover_matches_the_referee_at_every_cap(inst, monkeypatch):
    # The cap trips at the same node only if both count nodes alike, so
    # any difference in the counting shows at some cap.
    args = _cover_args(inst)
    referee = _referee_args(inst, args)
    total = _node_total(referee, monkeypatch)
    caps = range(total + 2)
    if total > SWEEP_NODES:
        caps = [*range(SWEEP_NODES), *range(SWEEP_NODES, total - 1, 97), total - 1, total, total + 1]
    for cap in caps:
        monkeypatch.setattr(bounds, "EXACT_NODE_CAP", cap)
        assert _kernel_cover(args) == _referee_cover(*referee), cap


@given(instances(max_k=9, max_n=4), st.data())
@settings(max_examples=200, deadline=None)
def test_cover_matches_the_referee_at_a_drawn_cap(inst, data):
    args = _cover_args(inst)
    referee = _referee_args(inst, args)
    with pytest.MonkeyPatch.context() as monkeypatch:
        cap = data.draw(st.integers(0, _node_total(referee, monkeypatch) + 1), label="cap")
        monkeypatch.setattr(bounds, "EXACT_NODE_CAP", cap)
        assert _kernel_cover(args) == _referee_cover(*referee)


CAPPED = [(13, 4), (13, 14), (14, 21), (14, 36)]


@pytest.mark.parametrize("K, seed", CAPPED)
def test_capped_cover_matches_the_referee(K, seed):
    inst = generate_embedded(K, seed)
    args = _cover_args(inst)
    cover, capped = _kernel_cover(args)
    assert capped
    assert (cover, capped) == _referee_cover(*_referee_args(inst, args))


@pytest.mark.parametrize("K, seed", [(12, 12), (13, 83)])
def test_cover_matches_the_referee_where_a_subtree_improves_twice(K, seed):
    # A receiver set whose first search improved the cover comes up again
    # one part higher, with the same slack, and improves it again; a
    # count stored after an improvement would skip the better partition.
    inst = generate_embedded(K, seed)
    args = _cover_args(inst)
    assert _kernel_cover(args) == _referee_cover(*_referee_args(inst, args))


@pytest.mark.parametrize(
    "inst",
    [i for _, i in SWEPT] + [generate_embedded(K, seed) for K, seed in CAPPED],
    ids=[n for n, _ in SWEPT] + [f"embedded{K}-g{seed}" for K, seed in CAPPED],
)
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_cover_upper_matches_the_referee_pipeline(inst, mode):
    # The subset scan, the greedy cover over sorted cliques and the
    # frozenset search, none of which reads a receiver mask.
    cliques = _scan_cliques(inst)
    greedy = _referee_greedy(cliques, inst.K)
    if mode == "greedy":
        chosen, exact = greedy, False
    else:
        chosen, capped = _referee_cover(cliques, inst.K, greedy)
        exact = not capped
    assert clique_cover_upper(inst, mode) == (len(chosen), CliqueCover(tuple(chosen), exact))


def _search_calls(args) -> int:
    """Frames of `_exact_cover`'s nested `rec` generator, counted by a
    profile hook.  A generator fires a "call" event each time it resumes,
    so the hook counts distinct frames.  It keeps each one, so no new
    frame can take a freed one's place in the set."""
    frames = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec":
            frames.add(frame)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        bounds._exact_cover(*args)
    finally:
        sys.setprofile(previous)
    return len(frames)


@pytest.mark.parametrize(
    "K, seed, calls", [(13, 4, 182), (13, 14, 147), (14, 21, 233), (14, 36, 180)]
)
def test_capped_cover_reuses_searched_subtrees(K, seed, calls):
    # Walked in full, the search to the cap enters 57,389 subtrees on
    # embedded13-g14.  Reusing the node count of every subtree searched
    # without improvement leaves these frames: a repeat is looked up in
    # its parent, so it builds none.
    assert _search_calls(_cover_args(generate_embedded(K, seed))) == calls


def test_capped_cover_is_flagged_inexact():
    # The cap trips first, so the cover is the best found, not a proof.
    m, cover = clique_cover_upper(generate_embedded(13, seed=14))
    assert m == 7
    assert not cover.exact
