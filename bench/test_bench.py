"""Tests of the benchmark itself: pinned values, the correctness gate, tracing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from checks import Checker, code_decodes  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

msic = run.import_msic()
from msic.cli import ORACLE_GUARD_K, ORACLE_GUARD_LENGTH, ORACLE_GUARD_LOAD  # noqa: E402

UNPRUNED_E2_MAX = 16
UNPRUNED_DEEP = 3


def _instance(job):
    return msic.parse_instance(job.to_json())


def test_generators_are_seeded():
    for workload in wl.WORKLOADS.values():
        first = workload.generate(msic, 5)
        assert first == workload.generate(msic, 5)
        assert first != workload.generate(msic, 6)


def _pool_jobs(key):
    """Jobs for every member of a pinned pool."""
    return [
        wl._job(msic, m["name"], wl.build_pool_member(msic, key, m["name"]),
                {"hyperminrank": m["hyperminrank"]})
        for m in wl.load_pinned()[key]
    ]


def _full_jobs():
    return [wl._job(msic, f"full{K}_{N}", wl.full_instance(msic, K, N), {"hyperminrank": 1})
            for K, N in wl.WIDE_FULL]


def _oracle_agrees(job) -> bool:
    pinned = job.expected["hyperminrank"]
    oracle = msic.optimal_linear_code_bruteforce(_instance(job), max_length=pinned)
    return oracle.found and oracle.optimal_length == pinned


def test_pipeline_small_pins_match_the_oracle():
    guarded = [
        job for job in wl.gen_pipeline_small(msic, 0)
        if job.K <= ORACLE_GUARD_K and sum(map(len, job.senders)) <= ORACLE_GUARD_LOAD
        and job.expected["hyperminrank"] <= ORACLE_GUARD_LENGTH
    ]
    assert len(guarded) >= 10
    for job in guarded:
        assert _oracle_agrees(job), job.name


def test_search_wide_pins_match_the_oracle():
    # Optima of 1 to 3 over at most 5 senders keep the oracle cheap here.
    for job in _full_jobs() + _pool_jobs("search-wide"):
        assert _oracle_agrees(job), job.name


def test_pinned_optima_match_the_unpruned_search():
    deep = sorted(_pool_jobs("search-deep"), key=lambda j: (j.e2, j.name))[:UNPRUNED_DEEP]
    small = [j for j in wl.gen_pipeline_small(msic, 0) if j.e2 <= UNPRUNED_E2_MAX]
    full = [j for j in _full_jobs() if j.e2 <= UNPRUNED_E2_MAX]
    assert len(small) > 100 and full
    for job in deep + small + full:
        report = msic.hyperminrank(_instance(job), prune=False)
        assert report.hyperminrank == job.expected["hyperminrank"], job.name


def test_pinned_bounds_hold():
    for job in wl.gen_bounds_large(msic, 0):
        inst = _instance(job)
        assert msic.search_space_size(inst)[1] > wl.SEARCH_CAP
        assert 1 <= job.expected["lower"] <= job.expected["upper"] <= inst.K


@pytest.fixture(scope="module")
def ex_pass(tmp_path_factory):
    """One real pipeline-small pass over two instances."""
    workdir = tmp_path_factory.mktemp("bench")
    jobs = wl.gen_pipeline_small(msic, 0)[:2]
    for job in jobs:
        (workdir / f"{job.name}.json").write_text(job.to_json())
    calls = run.plan_calls(jobs, ("solve", "verify", "bounds"), workdir)
    run.run_pass(msic, calls)
    return calls


def _checker():
    return Checker(Path(msic.__file__).parent / "schemas" / "report.schema.json")


def test_untampered_pass_is_clean(ex_pass):
    assert _checker().check_pass(ex_pass) == []


def test_wrong_optimum_fails(ex_pass):
    calls = [_copy(c) for c in ex_pass]
    report = json.loads(calls[0].stdout)
    report["results"]["hyperminrank"] += 1
    calls[0].stdout = json.dumps(report)
    problems = _checker().check_pass(calls)
    assert any(p.startswith("solve ex1") for p in problems)
    assert any(p.startswith("verify ex1") for p in problems)


def test_undecodable_code_fails(ex_pass):
    calls = [_copy(c) for c in ex_pass]
    report = json.loads(calls[0].stdout)
    code = report["results"]["code"]
    sender = next(n for n, vs in enumerate(code) if vs)
    code[sender] = [[0] * len(v) for v in code[sender]]
    calls[0].stdout = json.dumps(report)
    calls[0].code_path.write_text(json.dumps({"code": code}))
    try:
        problems = _checker().check_pass(calls)
    finally:
        calls[0].code_path.write_text(
            json.dumps({"code": json.loads(ex_pass[0].stdout)["results"]["code"]}))
    assert any("code does not decode" in p for p in problems)


def test_wrong_exit_code_fails(ex_pass):
    calls = [_copy(c) for c in ex_pass]
    calls[1].exit_code = 3
    assert [p.split(":")[0] for p in _checker().check_pass(calls)] == ["verify ex1"]


def test_code_decodes_reference():
    job = wl._job(msic, "ex1", msic.parse_instance(
        (Path(msic.__file__).parent / "corpus" / "ex1.json").read_text()))
    # senders store {1,2}, {2,3}, {1,3}; receivers know {2}, {3}, {1}
    assert code_decodes([[[1, 1, 0]], [[0, 1, 1]], []], job)
    assert not code_decodes([[[1, 1, 0]], [], []], job)
    assert not code_decodes([[[1, 1, 1]], [[0, 1, 1]], []], job)  # sender 1 lacks 3


def _copy(call):
    return dataclasses.replace(call)


def test_self_time_subtracts_children():
    spans = [
        Span(0, 0, "cli.main", None, 0.0, 10.0),
        Span(1, 0, "solver.hyperminrank", 0, 1.0, 7.0),
        Span(2, 0, "solver.search", 1, 2.0, 5.0),
        Span(3, 0, "instance.parse", 0, 8.0, 9.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_tracer_wraps_every_binding_site_and_restores(ex_pass):
    original = msic.cli.hyperminrank
    tracer = Tracer()
    calls = [_copy(c) for c in ex_pass]
    run.run_pass(msic, calls, tracer)
    assert msic.cli.hyperminrank is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "instance.parse", "solver.hyperminrank", "hypergraph.build",
            "hypergraph.fits", "codec.code_from_fitting", "codec.load_code",
            "codec.verify_code", "bounds.cover", "bounds.lower"} <= names
    # codec.build and bounds.build are separate bindings of hypergraph.build
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "hypergraph.build"}
    assert {"codec.code_from_fitting", "bounds.lower"} <= parents
    layers = layer_metrics(tracer.spans, {i: c.job.e2 for i, c in enumerate(calls)})
    assert layers["solver.leaves"] == sum(
        json.loads(c.stdout)["results"]["candidates_examined"]
        for c in calls if c.step == "solve")
    assert layers["hypergraph.build_calls"] >= 4
    assert _checker().check_pass(calls) == []
