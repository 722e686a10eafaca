"""Command-line front end.

Exit codes: 0 success, 1 infeasible instance or degenerate generator
parameters, 2 unreadable, undecodable, too deeply nested or malformed
input, an unwritable output path or a closed standard output, 3 invalid
code, 4 resource cap (search exponent or oracle guard).
Reports are deterministic for fixed inputs, flags and seeds, on any
machine, except for the "timings" object.

A report is written by `_encode`, a writer built for the report's
types: dicts with str keys, lists, str, int, bool, None and float.
Its bytes are those of `json.dumps(report, indent=2, sort_keys=True)`,
but `indent` would make `json` fall back to its pure-Python encoder,
while `_encode` escapes strings with the C `encode_basestring_ascii` and
joins a list of ints in one call.  A solve's witness and code reach it
as `_BitRows`: int masks with their width K, each written as the list of
its K bits from one binary format string, one join per row, so no
per-bit list is built.  Any other type raises TypeError.

`main` reuses one argument parser per process, built on its first call:
building it costs far more than parsing, and a process that runs many
calls (a test suite, the benchmark) would otherwise rebuild it per call.
Parsing keeps no state between calls, and argparse looks up sys.stdout,
sys.stderr and the terminal width when it prints, so the output is the
same as with a fresh parser.  When the first argument names a
subcommand, `main` hands the rest straight to that subcommand's parser,
as the top-level parser would after its own scan of argv, and sends any
leftover arguments to the top-level parser's error; anything else (no
arguments, -h, --version, an unknown command) goes through the
top-level parser.

Output files (`--emit-code`, `--out`, `gen --out`) are overwritten in
place, without O_TRUNC, and a regular file is then cut to the new length
(`_write_text`): on ext4, truncate-then-write makes every write of an
existing file pay for a block allocation at close().  The bytes written
are the same either way.  Nothing calls fsync, so neither way is durable
before the kernel's writeback; `_write_text` says what a crash can leave.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import stat
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import __version__
from .bounds import clique_cover_upper, complement_clique_lower
from .codec import (
    CodeSupportError,
    code_length,
    load_code,
    serialize_code,
    spanning_code,
    verdicts,
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

_INF = float("inf")
_encode_str = json.encoder.encode_basestring_ascii


class CLIError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


# ---- plumbing ----


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}", EXIT_PARSE) from None
    except UnicodeDecodeError as exc:
        raise CLIError(f"cannot decode {path}: {exc}", EXIT_PARSE) from None


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path`, overwriting an existing file in place.

    The file is opened without O_TRUNC: the bytes are written over the
    old ones and a regular file is then cut to their length, so the
    result is byte for byte that of a fresh write.  Truncating first
    costs several times more on ext4, whose default `auto_da_alloc`
    treats truncate-then-write as a replacement and allocates the new
    blocks at close().  Only a regular file is cut (`fstat`), so
    /dev/null, FIFOs and terminals take the bytes as before.  An
    existing file keeps its inode, its mode bits and its links, and a
    symlink is followed to its target.  Any OSError exits 2.

    Durability: the program never calls fsync, so no write of it is
    durable before the kernel's writeback, which is started, not
    awaited.  Overwriting in place never leaves an existing file empty,
    but a kill or crash during the write can leave old and new bytes
    mixed in a file longer than one page, where truncate-then-write
    could leave a partial file.
    """
    data = text.encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}", EXIT_PARSE) from None


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


class _BitRows(NamedTuple):
    """Int masks, in lists nested to any depth, that the report writer
    writes as rows of `width` >= 1 bits: entry i of a row is bit i of
    its mask."""

    width: int
    rows: object


def _encode_rows(rows: object, fmt: str, full: int, newline: str) -> str:
    """`_BitRows.rows` as `_encode` writes its masks expanded to bit lists;
    fmt is the width's binary format and full its all-ones mask."""
    inner = newline + "  "
    kind = type(rows)
    if kind is int:
        return "[" + inner + ("," + inner).join(format(rows & full, fmt)[::-1]) + newline + "]"
    if kind is not list:
        raise TypeError(f"bit rows must be int masks, not {kind.__name__}")
    if not rows:
        return "[]"
    items = [_encode_rows(row, fmt, full, inner) for row in rows]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _float(value: float) -> str:
    """A float as `json` writes it (allow_nan: NaN, Infinity, -Infinity)."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return repr(value)


def _encode(value: object, newline: str = "\n") -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it;
    `newline` is a line break plus the indent of the line `value` is on."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return str(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        for key in value:
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        items = [_encode_str(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        for item in value:
            if type(item) is not int:
                items = [_encode(item, inner) for item in value]
                break
        else:
            items = map(str, value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is _BitRows:
        width = value.width
        return _encode_rows(value.rows, f"0{width}b", (1 << width) - 1, newline)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float:
        return _float(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(
    command: str,
    args: argparse.Namespace,
    inst: Instance,
    results: Dict,
    timings: Dict,
    lines: List[str],
    write_out: bool = True,
) -> None:
    """Print `lines`, or with --json the JSON report; --out also writes
    the report.  The report is built and encoded only when one of them
    uses it: for a large solve that is most of the cost."""
    out = getattr(args, "out", None) if write_out else None
    as_json = getattr(args, "json", False)
    if out or as_json:
        arguments = {
            key: value
            for key, value in sorted(vars(args).items())
            if key != "handler" and value is not None
        }
        report = {
            "command": command,
            "arguments": arguments,
            "tool_version": __version__,
            "instance_digest": _digest(inst),
            "results": results,
            "timings": timings,
        }
        payload = _encode(report) + "\n"
        if out:
            _write_text(out, payload)
        if as_json:
            sys.stdout.write(payload)
    if not as_json:
        for line in lines:
            print(line)


def _solve_value(inst: Instance):
    try:
        return hyperminrank(inst)
    except SearchCapError as exc:
        raise CLIError(str(exc), EXIT_CAP) from None
    except SearchCapConfigError as exc:
        raise CLIError(str(exc), EXIT_PARSE) from None


# ---- subcommands ----


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    solved = _solve_value(inst)
    # hyperminrank has checked that its witness fits
    code = spanning_code(solved.witness)
    total = time.perf_counter() - started
    if args.emit_code:
        _write_text(args.emit_code, serialize_code(code) + "\n")
    results = {
        "hyperminrank": solved.hyperminrank,
        "candidates_examined": solved.candidates_examined,
        "witness_blocks": _BitRows(inst.K, list(map(list, solved.witness.blocks))),
        "code": _BitRows(inst.K, list(map(list, code.senders))),
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
    _emit("solve", args, inst, results, timings, lines)
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
        "lower_witness": {
            "vertices": sorted(witness.vertices),
            "host_sender": witness.host_sender,
        },
    }
    lines = [
        f"lower bound = {lower}",
        f"upper bound = {upper} ({mode if cover.exact or args.greedy else 'capped'} cover, "
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
    _emit("bounds", args, inst, results, timings, lines)
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
    algebraic, simulated = verdicts(code, inst)  # load_code checked the support
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
    _emit("verify", args, inst, results, timings, lines)
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
    _emit("oracle", args, inst, results, timings, lines)
    return EXIT_OK


def cmd_complexity(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    profile = complexity_exponents(inst)
    timings = {"profile_seconds": time.perf_counter() - started}
    results = {
        "e1": profile.e1,
        "e2": profile.e2,
        "e3": profile.e3,
        "search_space": profile.search_space,
        "total_load": profile.total_load,
        "threshold_holds": profile.threshold_holds,
        "threshold_lhs": str(profile.threshold_lhs),
        "threshold_rhs": str(profile.threshold_rhs),
        "e_embedded": profile.e_embedded,
    }
    lines = [
        f"E1 = {profile.e1} (search space 2^{profile.e1} = {profile.search_space})",
        f"E2 = {profile.e2}",
        f"E3 = {profile.e3}",
        f"S = {profile.total_load}",
        f"replication threshold {'holds' if profile.threshold_holds else 'fails'}"
        f" ({profile.threshold_lhs} vs {profile.threshold_rhs})",
    ]
    if profile.e_embedded is not None:
        lines.append(f"embedded exponent = {profile.e_embedded}")
    _emit("complexity", args, inst, results, timings, lines)
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
        _write_text(args.out, payload)
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
    _emit("gen", args, inst, results, timings, lines, write_out=False)
    return EXIT_OK


# ---- argument parsing ----


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true",
                    help="print the JSON report instead of plain text")
    sp.add_argument("--out", metavar="PATH",
                    help="also write the JSON report to PATH")


@functools.cache
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The one top-level parser of this process and its subcommand
    parsers by name, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="msic",
        description="Exact multi-sender index coding: solve, bound, verify.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: Dict[str, argparse.ArgumentParser] = {}

    def add(name: str, handler, help: str) -> argparse.ArgumentParser:
        sp = commands[name] = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("solve", cmd_solve, "exact minimum broadcast length")
    sp.add_argument("instance")
    sp.add_argument("--emit-code", metavar="PATH",
                    help="write the derived code to PATH")
    _add_output_flags(sp)

    sp = add("bounds", cmd_bounds, "clique sandwich bounds")
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--exact", action="store_true", default=True,
                     help="exact minimum cover (default)")
    grp.add_argument("--greedy", action="store_true",
                     help="greedy largest-first cover")
    sp.add_argument("instance")
    sp.add_argument("--with-exact-solve", action="store_true",
                    help="also solve exactly and check the sandwich")
    _add_output_flags(sp)

    sp = add("verify", cmd_verify, "check a code file against an instance")
    sp.add_argument("instance")
    sp.add_argument("--code", required=True, metavar="PATH")
    _add_output_flags(sp)

    sp = add("oracle", cmd_oracle, "brute-force cross-check of the solver")
    sp.add_argument("instance")
    sp.add_argument("--max-length", type=int, metavar="L", default=None,
                    help="largest code length to try (default: K)")
    sp.add_argument("--force", action="store_true",
                    help="run past the size guard")
    _add_output_flags(sp)

    sp = add("complexity", cmd_complexity, "enumeration cost profile")
    sp.add_argument("instance")
    _add_output_flags(sp)

    sp = add("gen", cmd_gen, "generate a random valid instance")
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
    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    return _parsers()[0]


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # what the top-level parser would do, minus its own scan of argv
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        return args.handler(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def cli_entrypoint() -> None:
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # Python flushes stdout again at shutdown; devnull takes what is
        # left, so that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    sys.exit(code)


if __name__ == "__main__":
    cli_entrypoint()
