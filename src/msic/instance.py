"""Problem model: parse, serialize and generate instances.

An instance has K receivers (receiver k demands message k and already
holds the messages R(k)) and N senders (sender n stores the message
subset M_n).  All indices are 1-based here and in the JSON file format.
An `Instance` is valid by construction: every message is stored
somewhere and no receiver knows its own demand.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import FrozenSet, List, Tuple

__all__ = [
    "Instance",
    "DerivedStats",
    "InstanceFormatError",
    "InstanceValidationError",
    "GenerationError",
    "derive_stats",
    "parse_instance",
    "serialize_instance",
    "generate_random",
    "generate_embedded",
]


class InstanceFormatError(ValueError):
    """Malformed instance text: bad JSON, wrong shapes, unknown fields."""


class InstanceValidationError(ValueError):
    """Structurally parsable instance that violates the model rules."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class GenerationError(ValueError):
    """Generator parameters admit no valid instance."""


@dataclass(frozen=True)
class Instance:
    """A valid instance.  Construction, `dataclasses.replace` included,
    raises InstanceValidationError listing every model rule broken."""

    K: int
    N: int
    sender_stores: Tuple[FrozenSet[int], ...]
    side_info: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        out: List[str] = []
        if self.K < 1:
            out.append(f"K must be >= 1, got {self.K}")
        if self.N < 1:
            out.append(f"N must be >= 1, got {self.N}")
        if len(self.sender_stores) != self.N:
            out.append(f"expected {self.N} sender stores, got {len(self.sender_stores)}")
        if len(self.side_info) != self.K:
            out.append(f"expected {self.K} side-information sets, got {len(self.side_info)}")
        if out:
            raise InstanceValidationError(out)
        # `_index_list`'s rule, over every member in one pass: an int, not a bool
        if not {int}.issuperset(map(type, chain.from_iterable((*self.sender_stores, *self.side_info)))):
            for n, store in enumerate(self.sender_stores, start=1):
                out += [f"sender {n} stores non-integer member {m!r}"
                        for m in store if type(m) is bool or not isinstance(m, int)]
            for k, known in enumerate(self.side_info, start=1):
                out += [f"receiver {k} has non-integer side information {m!r}"
                        for m in known if type(m) is bool or not isinstance(m, int)]
            if out:
                raise InstanceValidationError(out)
        # one subset test per set; a set's messages are listed only when it fails
        K = self.K
        messages = frozenset(range(1, K + 1))
        for n, store in enumerate(self.sender_stores, start=1):
            if not messages.issuperset(store):
                out += [f"sender {n} stores out-of-range message {m}" for m in store if not 1 <= m <= K]
        for k, known in enumerate(self.side_info, start=1):
            if not messages.issuperset(known):
                out += [f"receiver {k} has out-of-range side information {m}" for m in known if not 1 <= m <= K]
            if k in known:
                out.append(f"receiver {k} lists its own demand {k} as side information")
        stored = frozenset().union(*self.sender_stores)
        if not messages <= stored:
            out += [f"message {m} is stored at no sender" for m in range(1, K + 1) if m not in stored]
        if out:
            raise InstanceValidationError(out)

    @functools.cached_property
    def holders(self) -> Tuple[Tuple[int, ...], ...]:
        """holders[m - 1]: the senders storing message m, ascending, from
        one pass over the stores on first use."""
        holders: List[List[int]] = [[] for _ in range(self.K)]
        for n, store in enumerate(self.sender_stores, start=1):
            for m in store:
                holders[m - 1].append(n)
        return tuple(map(tuple, holders))

    def stores_of(self, message: int) -> FrozenSet[int]:
        """Senders holding the given message (the availability set M(m))."""
        return frozenset(n for n in range(1, self.N + 1) if message in self.sender_stores[n - 1])


@dataclass(frozen=True)
class DerivedStats:
    availability: Tuple[FrozenSet[int], ...]
    replication: Tuple[int, ...]
    replicated_set: FrozenSet[int]
    total_load: int
    r0: int
    delta: Fraction


def derive_stats(inst: Instance) -> DerivedStats:
    """Availability sets, replication degrees and load summary."""
    availability = tuple(map(frozenset, inst.holders))
    replication = tuple(len(a) for a in availability)
    total_load = sum(len(store) for store in inst.sender_stores)
    assert sum(replication) == total_load
    return DerivedStats(
        availability=availability,
        replication=replication,
        replicated_set=frozenset(m for m in range(1, inst.K + 1) if replication[m - 1] >= 2),
        total_load=total_load,
        r0=max(len(r) for r in inst.side_info),
        delta=Fraction(total_load, inst.K) - 1,
    )


# ---- file format ----

_FIELDS = ("K", "N", "senders", "receivers")


def _index_list(raw: object, what: str) -> FrozenSet[int]:
    if type(raw) is not list and not isinstance(raw, list):
        raise InstanceFormatError(f"{what} must be an array, got {type(raw).__name__}")
    for v in raw:
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise InstanceFormatError(f"{what} holds a non-integer entry {v!r}")
    entries = frozenset(raw)
    if len(entries) != len(raw):
        raise InstanceFormatError(f"{what} holds duplicate entries")
    return entries


def parse_instance(text: str) -> Instance:
    """Decode the JSON instance format.

    Raises InstanceFormatError for structural problems and
    InstanceValidationError for model-rule violations.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: a syntax error, or an integer past the digit limit
        raise InstanceFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level must be a JSON object")
    unknown = sorted(set(obj) - set(_FIELDS))
    if unknown:
        raise InstanceFormatError(f"unknown fields: {', '.join(unknown)}")
    missing = [f for f in _FIELDS if f not in obj]
    if missing:
        raise InstanceFormatError(f"missing fields: {', '.join(missing)}")
    if not isinstance(obj["K"], int) or isinstance(obj["K"], bool):
        raise InstanceFormatError("K must be an integer")
    if not isinstance(obj["N"], int) or isinstance(obj["N"], bool):
        raise InstanceFormatError("N must be an integer")
    if not isinstance(obj["senders"], list) or not isinstance(obj["receivers"], list):
        raise InstanceFormatError("senders and receivers must be arrays of arrays")
    stores = tuple(_index_list(raw, f"senders[{i}]") for i, raw in enumerate(obj["senders"], start=1))
    known = tuple(_index_list(raw, f"receivers[{i}]") for i, raw in enumerate(obj["receivers"], start=1))
    return Instance(K=obj["K"], N=obj["N"], sender_stores=stores, side_info=known)


def _sorted_arrays(sets: Tuple[FrozenSet[int], ...]) -> str:
    """The sets as a JSON array of ascending int arrays, no spaces."""
    return str(list(map(sorted, sets))).replace(" ", "")


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON for an instance: sorted arrays, compact separators.

    Written directly from the sorted ints; the text is that of
    `json.dumps({"K": K, "N": N, "senders": [...], "receivers": [...]},
    sort_keys=True, separators=(",", ":"))`.
    """
    return (
        f'{{"K":{inst.K},"N":{inst.N},"receivers":{_sorted_arrays(inst.side_info)},'
        f'"senders":{_sorted_arrays(inst.sender_stores)}}}'
    )


# ---- generators ----


def generate_random(K: int, N: int, delta: float, r0: int, seed: int) -> Instance:
    """Random valid instance with load at most floor((1+delta)*K).

    Every message is first placed at one uniformly chosen sender, which
    guarantees feasibility; extra replicas are then added while the load
    budget allows.  |R(k)| <= r0 for every receiver.  Deterministic per
    seed.
    """
    if K < 1 or N < 1:
        raise GenerationError(f"need K >= 1 and N >= 1, got K={K} N={N}")
    if not 0 <= delta < 1:
        raise GenerationError(f"delta must satisfy 0 <= delta < 1, got {delta}")
    if not 0 <= r0 < K:
        raise GenerationError(f"r0 must satisfy 0 <= r0 < K, got {r0}")
    budget = math.floor((1 + delta) * K)
    if budget < K:
        raise GenerationError(f"load budget {budget} cannot store all {K} messages")
    rng = random.Random(seed)
    stores: List[set] = [set() for _ in range(N)]
    for m in range(1, K + 1):
        stores[rng.randrange(N)].add(m)
    load = K
    spare = [(n, m) for n in range(N) for m in range(1, K + 1) if m not in stores[n]]
    rng.shuffle(spare)
    target = rng.randint(K, budget)
    while load < target and spare:
        n, m = spare.pop()
        stores[n].add(m)
        load += 1
    side: List[FrozenSet[int]] = []
    for k in range(1, K + 1):
        pool = [m for m in range(1, K + 1) if m != k]
        size = rng.randint(0, r0)
        side.append(frozenset(rng.sample(pool, size)))
    return Instance(K=K, N=N, sender_stores=tuple(frozenset(s) for s in stores), side_info=tuple(side))


def generate_embedded(K: int, seed: int, max_redraws: int = 100) -> Instance:
    """Random instance with N == K and M_n == R(n) for every node.

    Each node n draws its side information R(n) and stores exactly that
    set.  Feasibility (every message held somewhere) may require
    redrawing; raises GenerationError when no feasible draw appears
    within max_redraws attempts (K = 1 forces R(1) to be empty, so it is
    always infeasible).
    """
    if K < 1:
        raise GenerationError(f"need K >= 1, got {K}")
    rng = random.Random(seed)
    for _ in range(max_redraws):
        side = []
        for n in range(1, K + 1):
            side.append(frozenset(m for m in range(1, K + 1) if m != n and rng.random() < 0.5))
        if all(any(m in s for s in side) for m in range(1, K + 1)):
            return Instance(K=K, N=K, sender_stores=tuple(side), side_info=tuple(side))
    raise GenerationError(f"no feasible embedded draw for K={K} within {max_redraws} attempts")
