"""msic benchmark: seeded workloads run in-process through ``msic.cli.main``.

    python3 bench/run.py --workload search-deep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

One process, one closed-loop client: each CLI call starts when the
previous one returns.  The CLI keeps its default flags, so ``solve`` forks
as many workers as ``os.cpu_count()``; the run refuses to start when that
exceeds the CPUs this process may use.

A run sets up several times (import msic, generate and write the
instances, one warm-up call) and reports the median, then repeats timed
passes over the workload for ``--seconds`` (at least three) and reports
medians over passes.  Every call's output is checked after its pass (see
checks.py).  With ``--trace 1`` untraced and traced passes alternate; the
traced passes give the per-layer numbers (see tracing.py) and the
difference of the two medians is the tracing overhead.

Metrics: ``setup_s`` is the CPU time (user and system, this process and
its waited-for children) of one set-up and ``cpu_s`` that of one pass;
``setup_wall_s`` and ``wall_s`` are their wall times.  ``solve_s``,
``verify_s`` and ``bounds_s`` sum the wall time of the pass's calls of
each command, and ``*_cpu_s`` their CPU time.  ``cmd_p50_ms`` and
``cmd_p90_ms`` are per-call wall latencies over all untraced passes.
BENCHMARK.json gates CPU times, not wall times: on a shared two-vCPU
machine the wall time of the same pass drifted by up to 80% between runs
minutes apart, its CPU time by up to 20%.  A change that
trades CPU for wall time through the forked workers shows in ``wall_s``,
which every run prints and records.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  Each run also appends a record with the machine
facts and every metric to ``--out`` (default ``bench/out/results.jsonl``),
which ``compare.py`` reads; a traced run writes its spans next to it.
``--workload all`` runs every workload untraced and traced, each in its
own process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from checks import Call, Checker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
STEP_METRIC = {"solve": "solve", "solve-capped": "solve", "verify": "verify", "bounds": "bounds"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update(cmd_p50_ms="ms", cmd_p90_ms="ms", fail_ratio="ratio")


def machine_facts() -> Dict[str, object]:
    def command(*argv: str) -> str:
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    return {
        "nproc": command("nproc"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else "unknown",
    }


def import_msic():
    """Import msic from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "msic" or n.startswith("msic.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    msic = importlib.import_module("msic")
    importlib.import_module("msic.cli")
    if Path(msic.__file__).resolve().parent != SRC / "msic":
        raise ImportError(f"msic imported from {msic.__file__}, not from {SRC}")
    return msic


def cli_call(msic, call: Call) -> None:
    """Run one CLI call in-process, recording exit code, output and time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started, cpu_started = time.perf_counter(), cpu_seconds()
        try:
            call.exit_code = msic.cli.main(call.argv)
        except SystemExit as exc:
            call.exit_code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed call, not a dead run
            call.exit_code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        call.seconds = time.perf_counter() - started
        call.cpu_seconds = cpu_seconds() - cpu_started
    call.stdout, call.stderr = out.getvalue(), err.getvalue()


def plan_calls(jobs: List[Job], steps, workdir: Path) -> List[Call]:
    calls = []
    for job in jobs:
        inst = str(workdir / f"{job.name}.json")
        code = workdir / f"{job.name}.code.json"
        for step in steps:
            if step == "solve":
                argv = ["solve", inst, "--emit-code", str(code), "--json"]
            elif step == "solve-capped":
                argv = ["solve", inst, "--json"]
            elif step == "verify":
                argv = ["verify", inst, "--code", str(code), "--json"]
            else:
                argv = ["bounds", inst, "--json"]
            calls.append(Call(job, step, argv, code_path=code))
    return calls


def setup(workload, seed: int, workdir: Path):
    """Import msic, generate and write the instances, make one warm-up call."""
    started, cpu_started = time.perf_counter(), cpu_seconds()
    msic = import_msic()
    jobs = workload.generate(msic, seed)
    for job in jobs:
        (workdir / f"{job.name}.json").write_text(job.to_json())
    corpus = Path(msic.__file__).parent / "corpus" / "ex1.json"
    warm = Call(jobs[0], "warm-up", ["solve", str(corpus), "--json"])
    cli_call(msic, warm)
    if warm.exit_code != 0:
        raise RuntimeError(f"warm-up call failed: {warm.stderr.strip()}")
    return time.perf_counter() - started, cpu_seconds() - cpu_started, msic, jobs


def run_pass(msic, calls: List[Call], tracer=None) -> Dict[str, object]:
    if tracer is not None:
        tracer.spans = []
        tracer.install()
    started, cpu_started = time.perf_counter(), cpu_seconds()
    try:
        for index, call in enumerate(calls):
            if tracer is not None:
                tracer.call = index
            cli_call(msic, call)
    finally:
        wall, cpu = time.perf_counter() - started, cpu_seconds() - cpu_started
        if tracer is not None:
            tracer.uninstall()
    sums = dict.fromkeys([f"{s}{kind}_s" for s in STEP_METRIC.values() for kind in ("", "_cpu")], 0.0)
    for call in calls:
        sums[f"{STEP_METRIC[call.step]}_s"] += call.seconds
        sums[f"{STEP_METRIC[call.step]}_cpu_s"] += call.cpu_seconds
    return {"wall_s": wall, "cpu_s": cpu, **sums, "latencies": [c.seconds for c in calls]}


def cpu_seconds() -> float:
    """User and system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def median_of(passes, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = [setup(workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        msic, jobs = setups[-1][2:]
        checker = Checker(Path(msic.__file__).parent / "schemas" / "report.schema.json")
        tracer = Tracer() if args.trace else None
        untraced, traced, problems = [], [], []
        attempted = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            traced_turn = tracer is not None and len(traced) < len(untraced)
            calls = plan_calls(jobs, workload.steps, workdir)
            result = run_pass(msic, calls, tracer if traced_turn else None)
            attempted += len(calls)
            problems += checker.check_pass(calls)
            if traced_turn:
                e2 = {i: c.job.e2 for i, c in enumerate(calls)}
                result["layers"] = layer_metrics(tracer.spans, e2)
                result["spans"] = tracer.spans
                traced.append(result)
            else:
                untraced.append(result)
            enough = len(untraced) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
            # Start no pass that would end past the deadline.
            if enough and time.perf_counter() + result["wall_s"] > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    latencies = [t * 1e3 for p in untraced for t in p["latencies"]]
    deciles = statistics.quantiles(latencies, n=10)
    end_to_end = {
        "setup_s": statistics.median(s[1] for s in setups),
        "setup_wall_s": statistics.median(s[0] for s in setups),
        **{key: median_of(untraced, key) for key in untraced[0] if key.endswith("_s")},
        "cmd_p50_ms": statistics.median(latencies),
        "cmd_p90_ms": deciles[8],
        "peak_rss_mb": (usage_self + usage_children) / 1024,
        "fail_ratio": len(problems) / attempted,
    }
    per_layer = None
    if traced:
        per_layer = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        per_layer["trace.overhead_s"] = median_of(traced, "wall_s") - end_to_end["wall_s"]

    print(f"workload {workload.name}: seed {args.seed}, {len(jobs)} instances, "
          f"{len(untraced) + len(traced)} passes of {len(untraced[0]['latencies'])} calls, "
          f"{len(traced)} traced")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g} {UNITS.get(name, 's')}")
    print(f"  calls per pass = {len(untraced[0]['latencies'])}, "
          f"latency samples = {len(latencies)}")
    if per_layer is not None:
        print("  per layer (traced passes, self time; work inside forked solver "
              "workers shows only as solver.pool_s and solver.leaves):")
        for name, value in per_layer.items():
            print(f"  {name} = {value:.6g} {UNITS.get(name, 's')}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "attempted": attempted,
        "failed": len(problems), "end_to_end": end_to_end, "per_layer": per_layer,
        "pass_walls": [p["wall_s"] for p in untraced],
        "pass_cpus": [p["cpu_s"] for p in untraced],
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    if traced:
        spans_path = out_path.parent / f"spans-{workload.name}-seed{args.seed}-{os.getpid()}.jsonl"
        with spans_path.open("w") as fh:
            for index, p in enumerate(traced):
                for s in p["spans"]:
                    fh.write(json.dumps({"pass": index, **vars(s)}) + "\n")

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    values = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", args.out]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT / "results.jsonl"),
                        help="append the run's record to this JSON-lines file")
    args = parser.parse_args(argv)

    cpus, usable = os.cpu_count() or 1, len(os.sched_getaffinity(0))
    if cpus > usable:
        print(f"error: os.cpu_count()={cpus} exceeds the {usable} CPUs this process may "
              "use; the default --parallel would fork more workers than cores", file=sys.stderr)
        return 2
    if not (SRC / "msic" / "__init__.py").exists():
        print(f"error: no msic sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
