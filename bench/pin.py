"""Recompute bench/pinned.json: the instance pools and the pinned results.

    python3 bench/pin.py

Takes a few minutes.  Rerun it only to change a pool definition in
workloads.py; the pools and values it writes are the benchmark's fixed
inputs, so they must not move with the program under test.

For each pool member it records the optimum and a work count for one
solve laid out as the default ``--parallel`` does on two cores: the option
table rows of every table build (the parent's, and each forked worker's
again) plus the GF(2) basis insertions of the greedy dive and of both
receiver-1 chunks.  Members whose insertions pass the pool's work limit
are dropped while they run, so the pools stay within a predictable amount
of search.  It pins the bounds of the embedded bounds-large pool and
whether each member's exact cover hits the node cap, and, for the default
seed, the optimum and bounds of every pipeline-small instance and the
bounds of the random bounds-large instances.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import msic  # noqa: E402
import msic.solver as solver  # noqa: E402
import workloads as wl  # noqa: E402

PIN_WORKERS = 2


class _TooMuchWork(Exception):
    pass


def search_work(inst, limit: int):
    """(optimum, work) of one solve, or None when work passes `limit`."""
    count = [0]
    original = solver.basis_add

    def counting(table, row):
        count[0] += 1
        if count[0] > limit:
            raise _TooMuchWork
        return original(table, row)

    solver.basis_add = counting
    try:
        tables = solver._build_tables(inst)
        rows = sum(len(t.keys) for t in tables)
        incumbent = min(solver._greedy_dive(tables, inst.N), inst.K) + 1
        first = len(tables[0].keys)
        exponent = sum((len(t.keys) - 1).bit_length() for t in tables)
        workers = min(PIN_WORKERS, first)
        if workers <= 1 or exponent < solver.PARALLEL_MIN_EXPONENT:
            edges = [0, first]
        else:
            edges = [round(i * first / workers) for i in range(workers + 1)]
        values = []
        for lo, hi in zip(edges, edges[1:]):
            value = solver._search(tables, inst.N, True, range(lo, hi), incumbent)[0]
            if value is not None:
                values.append(value)
    except _TooMuchWork:
        return None
    finally:
        solver.basis_add = original
    builds = 1 if len(edges) == 2 else len(edges)
    return min(values), rows * builds + count[0]


def pool(members, limit: int):
    out = []
    for name, inst in members:
        result = search_work(inst, limit)
        if result is not None:
            out.append({"name": name, "hyperminrank": result[0], "work": result[1]})
            print(name, *result, flush=True)
    return out


def bounds(inst):
    lower, _ = msic.complement_clique_lower(inst)
    upper, cover = msic.clique_cover_upper(inst)
    return {"lower": lower, "upper": upper, "exact": cover.exact}


def pinned_values(jobs, solve: bool):
    out = {}
    for job in jobs:
        inst = msic.parse_instance(job.to_json())
        out[job.name] = bounds(inst)
        if solve:
            out[job.name]["hyperminrank"] = msic.hyperminrank(inst).hyperminrank
    return out


def main() -> int:
    pinned = {
        "search-deep": pool(wl.deep_pool_instances(msic), wl.DEEP_WORK_MAX),
        "search-wide": pool(wl.wide_pool_instances(msic), wl.WIDE_WORK_MAX),
        "bounds-large": [
            {"name": name, **bounds(inst)} for name, inst in wl.embedded_pool_instances(msic)
        ],
        # The default-seed generators read the pinned file; give them empty
        # tables first so they run before their values exist.
        "seed0": {"pipeline-small": {}, "bounds-large": {}},
    }
    wl.PINNED_FILE.write_text(json.dumps(pinned))
    pinned["seed0"] = {
        "pipeline-small": pinned_values(wl.gen_pipeline_small(msic, 0), solve=True),
        "bounds-large": pinned_values(wl.gen_bounds_large(msic, 0), solve=False),
    }
    wl.PINNED_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
