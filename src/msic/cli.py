"""Command-line front end.

Exit codes: 0 success, 1 infeasible instance or degenerate generator
parameters, 2 unreadable or malformed input, 3 invalid code, 4 resource
cap (search exponent or oracle guard).  Reports are deterministic for
fixed inputs, flags and seeds, on any machine, except for the "timings"
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__
from .bounds import clique_cover_upper, complement_clique_lower
from .codec import (
    CodeSupportError,
    LinearCode,
    code_from_fitting,
    code_length,
    load_code,
    serialize_code,
    verify_code,
)
from .instance import (
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
from .oracle import optimal_linear_code_bruteforce
from .solver import (
    SearchCapConfigError,
    SearchCapError,
    complexity_exponents,
    hyperminrank,
)

__all__ = ["main", "cli_entrypoint", "CLIError"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_BAD_CODE = 3
EXIT_CAP = 4

ORACLE_GUARD_K = 6
ORACLE_GUARD_LOAD = 10
ORACLE_GUARD_LENGTH = 4


class CLIError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


# ---- plumbing ----


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}", EXIT_PARSE) from None


def _load_instance(path: str) -> Instance:
    text = _read_text(path)
    try:
        return parse_instance(text)
    except InstanceFormatError as exc:
        raise CLIError(f"parse error in {path}: {exc}", EXIT_PARSE) from None
    except InstanceValidationError as exc:
        raise CLIError(f"infeasible instance {path}: {exc}", EXIT_INFEASIBLE) from None


def _digest(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()


def _bits(mask: int, K: int) -> List[int]:
    return [(mask >> i) & 1 for i in range(K)]


def _report(command: str, args: argparse.Namespace, inst: Instance,
            results: Dict, timings: Dict) -> Dict:
    arguments = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "handler" and value is not None
    }
    return {
        "command": command,
        "arguments": arguments,
        "tool_version": __version__,
        "instance_digest": _digest(inst),
        "results": results,
        "timings": timings,
    }


def _emit(
    args: argparse.Namespace,
    report: Dict,
    lines: List[str],
    write_out: bool = True,
) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None) if write_out else None
    if out:
        Path(out).write_text(payload)
    if getattr(args, "json", False):
        sys.stdout.write(payload)
    else:
        for line in lines:
            print(line)


def _solve_value(inst: Instance):
    try:
        return hyperminrank(inst)
    except InstanceValidationError as exc:
        raise CLIError(f"infeasible instance: {exc}", EXIT_INFEASIBLE) from None
    except SearchCapError as exc:
        raise CLIError(str(exc), EXIT_CAP) from None
    except SearchCapConfigError as exc:
        raise CLIError(str(exc), EXIT_PARSE) from None


# ---- subcommands ----


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    solved = _solve_value(inst)
    code = code_from_fitting(solved.witness, inst)
    total = time.perf_counter() - started
    if args.emit_code:
        Path(args.emit_code).write_text(serialize_code(code) + "\n")
    results = {
        "hyperminrank": solved.hyperminrank,
        "candidates_examined": solved.candidates_examined,
        "witness_blocks": solved.witness.to_lists(),
        "code": [
            [_bits(vec, inst.K) for vec in vectors] for vectors in code.senders
        ],
        "code_emitted": args.emit_code,
    }
    timings = {"solve_seconds": solved.elapsed, "total_seconds": total}
    lines = [
        f"hyperminrank = {solved.hyperminrank}",
        f"candidates examined = {solved.candidates_examined}",
        f"derived code length = {code_length(code)}",
    ]
    if args.emit_code:
        lines.append(f"code written to {args.emit_code}")
    _emit(args, _report("solve", args, inst, results, timings), lines)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    mode = "greedy" if args.greedy else "exact"
    started = time.perf_counter()
    upper, cover = clique_cover_upper(inst, mode=mode)
    lower, witness = complement_clique_lower(inst)
    timings = {"bounds_seconds": time.perf_counter() - started}
    results = {
        "lower": lower,
        "upper": upper,
        "cover_exact": cover.exact,
        "cover": [
            {"receivers": sorted(c.receivers), "sender": c.sender}
            for c in cover.cliques
        ],
        "lower_witness": None
        if witness is None
        else {
            "vertices": sorted(witness.vertices),
            "host_sender": witness.host_sender,
        },
    }
    lines = [
        f"lower bound = {lower}",
        f"upper bound = {upper} ({'exact' if cover.exact else 'greedy'} cover, "
        f"{len(cover.cliques)} cliques)",
    ]
    if args.with_exact_solve:
        solved = _solve_value(inst)
        timings["solve_seconds"] = solved.elapsed
        sandwich = lower <= solved.hyperminrank <= upper
        results["hyperminrank"] = solved.hyperminrank
        results["sandwich_ok"] = sandwich
        lines.append(f"hyperminrank = {solved.hyperminrank}")
        lines.append(f"sandwich {'OK' if sandwich else 'VIOLATED'}")
    _emit(args, _report("bounds", args, inst, results, timings), lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    text = _read_text(args.code)
    try:
        code = load_code(text, inst)
    except CodeSupportError as exc:
        raise CLIError(f"support violation: {exc}", EXIT_BAD_CODE) from None
    except ValueError as exc:
        raise CLIError(f"parse error in {args.code}: {exc}", EXIT_PARSE) from None
    started = time.perf_counter()
    algebraic = verify_code(code, inst, mode="algebraic")
    simulated = verify_code(code, inst, mode="simulate")
    timings = {"verify_seconds": time.perf_counter() - started}
    valid = algebraic and simulated
    results = {
        "valid": valid,
        "algebraic": algebraic,
        "simulate": simulated,
        "code_length": code_length(code),
    }
    lines = [f"code {'valid' if valid else 'INVALID'} "
             f"(algebraic={algebraic}, simulate={simulated})"]
    _emit(args, _report("verify", args, inst, results, timings), lines)
    return EXIT_OK if valid else EXIT_BAD_CODE


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    stats = derive_stats(inst)
    max_length = args.max_length if args.max_length is not None else inst.K
    if max_length > inst.K:
        raise CLIError(
            f"--max-length {max_length} exceeds K={inst.K}", EXIT_PARSE
        )
    if max_length < 0:
        raise CLIError(f"--max-length {max_length} is negative", EXIT_PARSE)
    guarded = (
        inst.K > ORACLE_GUARD_K
        or stats.total_load > ORACLE_GUARD_LOAD
        or max_length > ORACLE_GUARD_LENGTH
    )
    if guarded and not args.force:
        raise CLIError(
            f"oracle guard: K={inst.K}, total load={stats.total_load}, "
            f"max length={max_length} beyond (K<={ORACLE_GUARD_K}, "
            f"load<={ORACLE_GUARD_LOAD}, length<={ORACLE_GUARD_LENGTH}); "
            "pass --force to run anyway",
            EXIT_CAP,
        )
    started = time.perf_counter()
    oracle = optimal_linear_code_bruteforce(inst, max_length=max_length)
    oracle_seconds = time.perf_counter() - started
    solved = _solve_value(inst)
    agreement = (
        None if not oracle.found else oracle.optimal_length == solved.hyperminrank
    )
    results = {
        "found": oracle.found,
        "optimal_length": oracle.optimal_length,
        "configurations_checked": oracle.configurations_checked,
        "solver_value": solved.hyperminrank,
        "agreement": agreement,
    }
    timings = {
        "oracle_seconds": oracle_seconds,
        "solve_seconds": solved.elapsed,
    }
    if oracle.found:
        lines = [
            f"oracle optimal length = {oracle.optimal_length}",
            f"solver value = {solved.hyperminrank}",
            f"agreement = {'yes' if agreement else 'NO'}",
        ]
    else:
        lines = [
            f"no code found with length <= {max_length}",
            f"solver value = {solved.hyperminrank}",
        ]
    _emit(args, _report("oracle", args, inst, results, timings), lines)
    return EXIT_OK


def cmd_complexity(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    profile = complexity_exponents(inst)
    stats = derive_stats(inst)
    timings = {"profile_seconds": time.perf_counter() - started}
    results = {
        "e1": profile.e1,
        "e2": profile.e2,
        "e3": profile.e3,
        "search_space": profile.search_space,
        "total_load": stats.total_load,
        "threshold_holds": profile.threshold_holds,
        "threshold_lhs": str(profile.threshold_lhs),
        "threshold_rhs": str(profile.threshold_rhs),
        "e_embedded": profile.e_embedded,
    }
    lines = [
        f"E1 = {profile.e1} (search space 2^{profile.e1} = {profile.search_space})",
        f"E2 = {profile.e2}",
        f"E3 = {profile.e3}",
        f"S = {stats.total_load}",
        f"replication threshold {'holds' if profile.threshold_holds else 'fails'}"
        f" ({profile.threshold_lhs} vs {profile.threshold_rhs})",
    ]
    if profile.e_embedded is not None:
        lines.append(f"embedded exponent = {profile.e_embedded}")
    _emit(args, _report("complexity", args, inst, results, timings), lines)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        if args.embedded:
            inst = generate_embedded(args.k, seed=args.seed)
        else:
            if args.n is None:
                raise CLIError("--n is required unless --embedded", EXIT_PARSE)
            inst = generate_random(
                args.k, args.n, delta=args.delta, r0=args.r0, seed=args.seed
            )
    except (GenerationError, ValueError) as exc:
        raise CLIError(f"cannot generate instance: {exc}", EXIT_INFEASIBLE) from None
    timings = {"gen_seconds": time.perf_counter() - started}
    payload = serialize_instance(inst) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    results = {
        "K": inst.K,
        "N": inst.N,
        "seed": args.seed,
        "embedded": bool(args.embedded),
        "written_to": args.out,
    }
    lines = []
    if args.out:
        lines.append(f"instance written to {args.out} (K={inst.K}, N={inst.N})")
    else:
        lines.append(payload.rstrip("\n"))
    _emit(args, _report("gen", args, inst, results, timings), lines, write_out=False)
    return EXIT_OK


# ---- argument parsing ----


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true",
                    help="print the JSON report instead of plain text")
    sp.add_argument("--out", metavar="PATH",
                    help="also write the JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msic",
        description="Exact multi-sender index coding: solve, bound, verify.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="exact minimum broadcast length")
    sp.add_argument("instance")
    sp.add_argument("--emit-code", metavar="PATH",
                    help="write the derived code to PATH")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_solve)

    sp = sub.add_parser("bounds", help="clique sandwich bounds")
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--exact", action="store_true", default=True,
                     help="exact minimum cover (default)")
    grp.add_argument("--greedy", action="store_true",
                     help="greedy largest-first cover")
    sp.add_argument("instance")
    sp.add_argument("--with-exact-solve", action="store_true",
                    help="also solve exactly and check the sandwich")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_bounds)

    sp = sub.add_parser("verify", help="check a code file against an instance")
    sp.add_argument("instance")
    sp.add_argument("--code", required=True, metavar="PATH")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force cross-check of the solver")
    sp.add_argument("instance")
    sp.add_argument("--max-length", type=int, metavar="L", default=None,
                    help="largest code length to try (default: K)")
    sp.add_argument("--force", action="store_true",
                    help="run past the size guard")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_oracle)

    sp = sub.add_parser("complexity", help="enumeration cost profile")
    sp.add_argument("instance")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_complexity)

    sp = sub.add_parser("gen", help="generate a random valid instance")
    sp.add_argument("--k", type=int, required=True, help="number of messages")
    sp.add_argument("--n", type=int, help="number of senders")
    sp.add_argument("--delta", type=float, default=0.0,
                    help="replication budget: total load <= (1+delta)K")
    sp.add_argument("--r0", type=int, default=0,
                    help="side-information budget per receiver")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--embedded", action="store_true",
                    help="K=N instance where node n stores exactly R(n)")
    sp.add_argument("--out", metavar="PATH",
                    help="write the instance here instead of stdout")
    sp.add_argument("--json", action="store_true",
                    help="print the JSON report instead of the instance")
    sp.set_defaults(handler=cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def cli_entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entrypoint()
