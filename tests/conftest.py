from __future__ import annotations

import itertools
import random
from importlib import resources
from typing import Iterator, List, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from msic.hypergraph import SubChoice
from msic.instance import Instance, derive_stats, generate_random, parse_instance


# `pytest --hypothesis-profile=ci` draws the same examples on every run
# and machine, so a failure seen in CI reproduces locally.
settings.register_profile("ci", derandomize=True, deadline=None)


def corpus_text(name: str) -> str:
    return (resources.files("msic") / "corpus" / name).read_text()


def corpus_instance(name: str) -> Instance:
    return parse_instance(corpus_text(name))


def fully_replicated(K: int, N: int) -> Instance:
    """Every sender stores every message; each receiver knows all others."""
    everything = frozenset(range(1, K + 1))
    return Instance(
        K=K,
        N=N,
        sender_stores=(everything,) * N,
        side_info=tuple(everything - {k} for k in range(1, K + 1)),
    )


def random_suite(count: int = 50) -> List[Instance]:
    """The seeded K<=4, N<=3, delta<=0.5, r0<=2 cross-validation suite."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        K = rng.randint(1, 4)
        N = rng.randint(1, 3)
        delta = rng.choice([0.0, 0.25, 0.5])
        r0 = rng.randint(0, min(2, K - 1))
        out.append(generate_random(K, N, delta=delta, r0=r0, seed=seed))
    return out


@st.composite
def instances(draw, max_k: int, max_n: int) -> Instance:
    """Any valid instance with K <= max_k and N <= max_n."""
    K = draw(st.integers(min_value=1, max_value=max_k))
    N = draw(st.integers(min_value=1, max_value=max_n))
    holders = [draw(st.integers(min_value=1, max_value=(1 << N) - 1)) for _ in range(K)]
    known = [draw(st.integers(min_value=0, max_value=(1 << K) - 1)) & ~(1 << k) for k in range(K)]
    return Instance(
        K=K,
        N=N,
        sender_stores=tuple(
            frozenset(m + 1 for m in range(K) if holders[m] >> n & 1) for n in range(N)
        ),
        side_info=tuple(
            frozenset(m + 1 for m in range(K) if known[k] >> m & 1) for k in range(K)
        ),
    )


def all_choices(inst: Instance) -> Iterator[SubChoice]:
    """Independent first-principles enumeration of valid selections."""
    stats = derive_stats(inst)
    per_receiver = []
    for k in range(1, inst.K + 1):
        holders = sorted(stats.availability[k - 1])
        demand = [
            frozenset(c)
            for size in range(1, len(holders) + 1, 2)
            for c in itertools.combinations(holders, size)
        ]
        cedges = [
            (m, n)
            for m in sorted(inst.side_info[k - 1])
            for n in sorted(stats.availability[m - 1])
        ]
        cached = [
            frozenset(c)
            for size in range(len(cedges) + 1)
            for c in itertools.combinations(cedges, size)
        ]
        eligible = [
            k2
            for k2 in range(1, inst.K + 1)
            if k2 != k and k2 not in inst.side_info[k - 1]
        ]
        per_msg = []
        for k2 in eligible:
            hs = sorted(stats.availability[k2 - 1])
            per_msg.append(
                [
                    (k2, frozenset(c))
                    for size in range(0, len(hs) + 1, 2)
                    for c in itertools.combinations(hs, size)
                ]
            )
        coupled = (
            [
                tuple((k2, s) for k2, s in combo if s)
                for combo in itertools.product(*per_msg)
            ]
            if per_msg
            else [()]
        )
        per_receiver.append(
            [(d, c, co) for d in demand for c in cached for co in coupled]
        )
    for combo in itertools.product(*per_receiver):
        yield SubChoice(
            demand_senders=tuple(x[0] for x in combo),
            cached_edges=tuple(x[1] for x in combo),
            coupled_senders=tuple(x[2] for x in combo),
        )


@pytest.fixture(scope="session")
def ex1() -> Instance:
    return corpus_instance("ex1.json")


@pytest.fixture(scope="session")
def ex2() -> Instance:
    return corpus_instance("ex2.json")


@pytest.fixture(scope="session")
def ex3() -> Instance:
    return corpus_instance("ex3.json")


# One line per acceptance criterion at the end of the run, regardless of
# output capturing.

_ACCEPTANCE: List[Tuple[str, str, str]] = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, text): labels an acceptance-criterion test"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        _ACCEPTANCE.append((marker.args[0], marker.args[1], report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, text, outcome in sorted(_ACCEPTANCE, key=lambda t: int(t[0])):
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {word} - {text}")
