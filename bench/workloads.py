"""Seeded instance generators for the four benchmark workloads.

Every generator takes the workload seed and returns the same jobs for the
same seed.  The program under test only ever sees the instance files the
benchmark writes from these jobs.

Why each workload exists (also recorded in BENCHMARK.json):

- search-deep: ten-level searches over tiny option tables, so the DFS in
  ``solver._search`` does almost all the work.  The default ``--parallel``
  forks here and is faster than sequential.
- search-wide: two to four levels over option tables of 10^3 to 10^5
  rows, so table construction and memory matter.  The clique bounds are
  tight on the fully-replicated family, which is where early exits at a
  proven bound would show.  The default ``--parallel`` is slower here.
- pipeline-small: several hundred calls of a few milliseconds each, so
  per-call overhead (argument parsing, instance parsing, witness
  construction, exhaustive simulation, report emission) dominates.
- bounds-large: instances beyond the search cap, where ``solve`` must
  exit 4 and ``bounds`` does nearly all the work.

search-deep and the seeded half of search-wide draw their instances from
pinned pools (``pinned.json``, written by ``pin.py``).  A pool member meets
an exponent rule and a limit on its pinned work count (GF(2) basis
insertions plus option-table rows of one solve); the count also
stratifies the seeded draw, so that every seed's pass carries about the
same amount of search.  Without the strata one slow instance in a dozen
moved a pass by a third from seed to seed.  The embedded bounds-large
instances come from a pinned pool in the same way (see below).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
PINNED_FILE = BENCH_DIR / "pinned.json"

# The solver's default cap on the search exponent E1.
SEARCH_CAP = 34

# search-deep: generate_random(K=10, N=4, delta=0.3, r0=3, g) for pool
# generator seeds g, kept when E1 <= SEARCH_CAP and E2 in DEEP_E2 and
# their pinned work is at most DEEP_WORK_MAX.
DEEP_PARAMS = dict(K=10, N=4, delta=0.3, r0=3)
DEEP_E2 = (17, 21)
DEEP_POOL_SEEDS = 3000
DEEP_WORK_MAX = 250_000
DEEP_PER_PASS = 24

# search-wide: the fully-replicated mutual family plus heavy-replication
# variants (each message at each sender with probability WIDE_STORE_P,
# each other message known with probability WIDE_SIDE_P), kept when their
# option tables hold WIDE_ROWS rows, E1 <= SEARCH_CAP and their pinned work
# is at most WIDE_WORK_MAX.
WIDE_FULL = ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 2), (3, 3), (3, 4), (3, 5))
WIDE_SHAPES = ((3, 5), (3, 6), (4, 4), (4, 5))
WIDE_STORE_P = 0.8
WIDE_SIDE_P = 0.6
WIDE_ROWS = (1_000, 100_000)
WIDE_POOL_SEEDS = 150
WIDE_WORK_MAX = 300_000
WIDE_PER_PASS = 8

# pipeline-small: generate_random with K in 4..8, N in 2..4, E2 <= 12, so
# that no single search costs more than a few calls' overhead.
SMALL_COUNT = 200
SMALL_E2_MAX = 12

# bounds-large: generate_random(K, N, delta=0.3, r0=K//2), redrawn until
# E1 exceeds SEARCH_CAP, and one generate_embedded(K, g) per K from a
# pinned pool of the first LARGE_POOL_SEEDS seeds g, keeping those whose
# exact clique cover hits the node cap.  Whether a cover hits the cap
# changes its cost tenfold, so leaving it to the seed would move the pass
# by a third; hitting it is also the wasted work this workload shows.
LARGE_RANDOM = ((14, 4), (15, 5), (16, 6))
LARGE_EMBEDDED_K = (13, 14)
LARGE_POOL_SEEDS = 40

CORPUS = ("ex1", "ex2", "ex3")


@dataclass(frozen=True)
class Job:
    """One instance and what the workload does with it.

    ``expected`` holds the pinned results known for this instance
    (``hyperminrank``, ``lower``, ``upper``), else is empty.
    """

    name: str
    K: int
    N: int
    senders: Tuple[FrozenSet[int], ...]
    receivers: Tuple[FrozenSet[int], ...]
    e2: int
    expected: Dict[str, int]

    def to_json(self) -> str:
        return json.dumps({
            "K": self.K,
            "N": self.N,
            "senders": [sorted(s) for s in self.senders],
            "receivers": [sorted(r) for r in self.receivers],
        })


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Tuple[str, ...]
    generate: Callable[[object, int], List[Job]]


def load_pinned() -> Dict:
    return json.loads(PINNED_FILE.read_text())


def _job(msic, name: str, inst, expected: Optional[Dict[str, int]] = None) -> Job:
    return Job(
        name=name,
        K=inst.K,
        N=inst.N,
        senders=inst.sender_stores,
        receivers=inst.side_info,
        e2=msic.complexity_exponents(inst).e2,
        expected=dict(expected or {}),
    )


def _stratified(pool: Sequence[Dict], count: int, rng: random.Random) -> List[Dict]:
    """One member from each of `count` equal strata of the pool by work."""
    ordered = sorted(pool, key=lambda m: (m["work"], m["name"]))
    edges = [round(i * len(ordered) / count) for i in range(count + 1)]
    return [ordered[rng.randrange(edges[i], edges[i + 1])] for i in range(count)]


# ---- pool definitions (used by the generators and by pin.py) ----


def deep_pool_instances(msic):
    """(name, instance) for every generator seed meeting the exponent rule."""
    for g in range(DEEP_POOL_SEEDS):
        inst = msic.generate_random(seed=g, **DEEP_PARAMS)
        profile = msic.complexity_exponents(inst)
        if profile.e1 <= SEARCH_CAP and DEEP_E2[0] <= profile.e2 <= DEEP_E2[1]:
            yield f"deep-g{g}", inst


def full_instance(msic, K: int, N: int):
    """Every sender stores every message; each receiver knows all others."""
    everything = frozenset(range(1, K + 1))
    return msic.Instance(
        K=K,
        N=N,
        sender_stores=tuple(everything for _ in range(N)),
        side_info=tuple(everything - {k} for k in range(1, K + 1)),
    )


def heavy_instance(msic, K: int, N: int, g: int):
    """Seeded heavy-replication instance of the given shape."""
    rng = random.Random(f"heavy-{K}-{N}-{g}")
    stores = [set() for _ in range(N)]
    for m in range(1, K + 1):
        holders = [n for n in range(N) if rng.random() < WIDE_STORE_P]
        for n in holders or [rng.randrange(N)]:
            stores[n].add(m)
    side = [
        frozenset(m for m in range(1, K + 1) if m != k and rng.random() < WIDE_SIDE_P)
        for k in range(1, K + 1)
    ]
    return msic.Instance(
        K=K, N=N, sender_stores=tuple(frozenset(s) for s in stores), side_info=tuple(side)
    )


def table_rows(inst) -> int:
    """Rows of all option tables: receiver k's table has 2**E2_k rows."""
    d = [len(inst.stores_of(m)) for m in range(1, inst.K + 1)]
    total = 0
    for k in range(1, inst.K + 1):
        known = inst.side_info[k - 1]
        e2k = d[k - 1] - 1 + sum(d[m - 1] for m in known) + sum(
            d[m - 1] - 1 for m in range(1, inst.K + 1) if m != k and m not in known
        )
        total += 1 << e2k
    return total


def embedded_pool_instances(msic):
    for K in LARGE_EMBEDDED_K:
        for g in range(LARGE_POOL_SEEDS):
            inst = msic.generate_embedded(K, seed=g)
            if msic.complexity_exponents(inst).e1 > SEARCH_CAP:
                yield f"embedded{K}-g{g}", inst


def wide_pool_instances(msic):
    for K, N in WIDE_SHAPES:
        for g in range(WIDE_POOL_SEEDS):
            inst = heavy_instance(msic, K, N, g)
            if (WIDE_ROWS[0] <= table_rows(inst) <= WIDE_ROWS[1]
                    and msic.complexity_exponents(inst).e1 <= SEARCH_CAP):
                yield f"heavy{K}_{N}-g{g}", inst


# ---- generators ----


def build_pool_member(msic, pool_key: str, name: str):
    """The instance a pool member's name stands for."""
    if pool_key == "search-deep":
        return msic.generate_random(seed=int(name.split("-g")[1]), **DEEP_PARAMS)
    if pool_key == "bounds-large":
        K, g = name[len("embedded"):].split("-g")
        return msic.generate_embedded(int(K), seed=int(g))
    shape, g = name[len("heavy"):].split("-g")
    K, N = (int(x) for x in shape.split("_"))
    return heavy_instance(msic, K, N, int(g))


def _from_pool(msic, seed: int, pool_key: str, count: int) -> List[Job]:
    pool = load_pinned()[pool_key]
    rng = random.Random(f"{pool_key}-{seed}")
    return [
        _job(msic, m["name"], build_pool_member(msic, pool_key, m["name"]),
             {"hyperminrank": m["hyperminrank"]})
        for m in _stratified(pool, count, rng)
    ]


def gen_search_deep(msic, seed: int) -> List[Job]:
    return _from_pool(msic, seed, "search-deep", DEEP_PER_PASS)


def gen_search_wide(msic, seed: int) -> List[Job]:
    jobs = [
        _job(msic, f"full{K}_{N}", full_instance(msic, K, N), {"hyperminrank": 1})
        for K, N in WIDE_FULL
    ]
    return jobs + _from_pool(msic, seed, "search-wide", WIDE_PER_PASS)


def gen_pipeline_small(msic, seed: int) -> List[Job]:
    pinned = load_pinned()["seed0"]["pipeline-small"] if seed == 0 else {}
    corpus = Path(msic.__file__).parent / "corpus"
    jobs = []
    for name in CORPUS:
        inst = msic.parse_instance((corpus / f"{name}.json").read_text())
        jobs.append(_job(msic, name, inst, pinned.get(name)))
    rng = random.Random(f"pipeline-small-{seed}")
    while len(jobs) < SMALL_COUNT + len(CORPUS):
        K, N, g = rng.randint(4, 8), rng.randint(2, 4), rng.randrange(1 << 30)
        inst = msic.generate_random(K, N, delta=rng.choice((0.3, 0.5, 0.8)),
                                    r0=rng.randint(1, K - 1), seed=g)
        if msic.complexity_exponents(inst).e2 <= SMALL_E2_MAX:
            name = f"small{len(jobs):03d}"
            jobs.append(_job(msic, name, inst, pinned.get(name)))
    return jobs


def gen_bounds_large(msic, seed: int) -> List[Job]:
    pinned = load_pinned()
    seed0 = pinned["seed0"]["bounds-large"] if seed == 0 else {}
    rng = random.Random(f"bounds-large-{seed}")
    jobs = []
    for K, N in LARGE_RANDOM:
        while True:
            inst = msic.generate_random(K, N, delta=0.3, r0=K // 2, seed=rng.randrange(1 << 30))
            if msic.complexity_exponents(inst).e1 > SEARCH_CAP:
                break
        jobs.append(_job(msic, f"random{K}", inst, seed0.get(f"random{K}")))
    capped = [m for m in pinned["bounds-large"] if not m["exact"]]
    for K in LARGE_EMBEDDED_K:
        member = rng.choice([m for m in capped if m["name"].startswith(f"embedded{K}-")])
        inst = build_pool_member(msic, "bounds-large", member["name"])
        jobs.append(_job(msic, member["name"], inst,
                         {"lower": member["lower"], "upper": member["upper"]}))
    return jobs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("search-deep", ("solve", "verify"), gen_search_deep),
        Workload("search-wide", ("solve", "verify"), gen_search_wide),
        Workload("pipeline-small", ("solve", "verify", "bounds"), gen_pipeline_small),
        Workload("bounds-large", ("solve-capped", "bounds"), gen_bounds_large),
    )
}
