"""Linear codes: build them from fittings, verify them, and turn any
working code back into a fitting of no greater total rank.

A code assigns each sender an ordered list of encoding vectors; sender n
may only combine messages it stores, so every vector's support must lie
inside M_n.  Support violations raise CodeSupportError, which is a
different failure from a well-formed code that simply does not decode.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .gf2 import eliminate, express, express_in_span, spanning_rows, support
from .hypergraph import CompositeAdjacency, fits
from .instance import Instance

__all__ = [
    "LinearCode",
    "DecodePlan",
    "CodeSupportError",
    "UndecodableCodeError",
    "code_length",
    "check_support",
    "load_code",
    "serialize_code",
    "code_from_fitting",
    "spanning_code",
    "decode_plan",
    "verify_code",
    "verdicts",
    "code_to_fitting",
]

SIM_EXHAUSTIVE_LIMIT = 16
SIM_SAMPLES = 10_000
SIM_SEED = 0xC0DE


class CodeSupportError(ValueError):
    """A vector uses a message its sender does not store."""


class UndecodableCodeError(ValueError):
    """The code leaves at least one receiver unable to decode."""


@dataclass(frozen=True)
class LinearCode:
    """Per-sender encoding vectors, each a bitmask over the K messages."""

    K: int
    senders: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class DecodePlan:
    """Which transmissions receiver k combines and which known messages
    it subtracts afterwards."""

    receiver: int
    sender_coefficients: Tuple[int, ...]
    side_subtract: FrozenSet[int]


def code_length(code: LinearCode) -> int:
    return sum(len(vs) for vs in code.senders)


def check_support(code: LinearCode, inst: Instance) -> None:
    if len(code.senders) != inst.N or code.K != inst.K:
        raise CodeSupportError(
            f"code shaped for K={code.K}, N={len(code.senders)}; instance has K={inst.K}, N={inst.N}"
        )
    for n, vectors in enumerate(code.senders, start=1):
        store_mask = 0
        for m in inst.sender_stores[n - 1]:
            store_mask |= 1 << (m - 1)
        for vec in vectors:
            if vec & ~store_mask:
                extra = [m + 1 for m in support(vec & ~store_mask)]
                raise CodeSupportError(
                    f"sender {n} combines unstored messages {extra}"
                )


# ---- file format ----


def load_code(text: str, inst: Instance) -> LinearCode:
    """Decode {"code": [[vector...]...]} and validate support."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"code"}:
        raise ValueError('code file must be an object with the single field "code"')
    outer = obj["code"]
    if not isinstance(outer, list) or len(outer) != inst.N:
        raise ValueError(f"code must list vectors for exactly {inst.N} senders")
    senders = []
    for n, vec_list in enumerate(outer, start=1):
        if not isinstance(vec_list, list):
            raise ValueError(f"sender {n} entry must be an array of vectors")
        vectors = []
        for vec in vec_list:
            if (
                not isinstance(vec, list)
                or len(vec) != inst.K
                or any(type(b) is not int or b not in (0, 1) for b in vec)
            ):
                raise ValueError(f"sender {n} holds a malformed vector {vec!r}")
            vectors.append(sum(b << i for i, b in enumerate(vec)))
        senders.append(tuple(vectors))
    code = LinearCode(K=inst.K, senders=tuple(senders))
    check_support(code, inst)
    return code


def serialize_code(code: LinearCode) -> str:
    """The code as `json.dumps({"code": bit lists}, sort_keys=True,
    separators=(",", ":"))` writes it; entry i of a vector's list is its
    bit i, so bits past K are dropped."""
    fmt, full = f"0{code.K}b", (1 << code.K) - 1
    senders = [
        ["[" + (",".join(format(vec & full, fmt)[::-1]) if full else "") + "]" for vec in vectors]
        for vectors in code.senders
    ]
    return '{"code":[' + ",".join(["[" + ",".join(rows) + "]" for rows in senders]) + "]}"


# ---- fitting -> code ----


def code_from_fitting(A: CompositeAdjacency, inst: Instance) -> LinearCode:
    """Spanning rows of each block become that sender's transmissions."""
    if fits(A, inst) is None:
        raise ValueError("matrix does not fit the instance's hypergraph")
    return spanning_code(A)


def spanning_code(A: CompositeAdjacency) -> LinearCode:
    """The code that `code_from_fitting` derives, without its fit check:
    for a matrix already known to fit, such as a solver witness."""
    return LinearCode(
        K=A.K,
        senders=tuple(tuple(block[i] for i in spanning_rows(block)) for block in A.blocks),
    )


def decode_plan(A: CompositeAdjacency, inst: Instance, k: int) -> DecodePlan:
    """How receiver k recovers x_k from the code induced by fitting A.

    Each block row of receiver k is expressed over that sender's
    transmissions; the XOR of the rows then equals e_k plus messages the
    receiver already holds, which it subtracts.
    """
    code = code_from_fitting(A, inst)
    coefficients = []
    combined = 0
    for n in range(1, inst.N + 1):
        row = A.blocks[n - 1][k - 1]
        lam = express_in_span(row, list(code.senders[n - 1]))
        assert lam is not None
        coefficients.append(lam)
        combined ^= row
    assert (combined >> (k - 1)) & 1
    subtract = frozenset(m + 1 for m in support(combined) if m + 1 != k)
    assert subtract <= inst.side_info[k - 1]
    return DecodePlan(
        receiver=k,
        sender_coefficients=tuple(coefficients),
        side_subtract=subtract,
    )


# ---- verification ----


def _decodings(
    code: LinearCode, inst: Instance
) -> Iterator[Tuple[int, Optional[int], List[int]]]:
    """Yield (k, mask, side) for each receiver k in turn.

    side is R(k) in ascending order; mask holds the coefficients that
    write e_k over the code's vectors in sender order followed by the
    units of side, or None when receiver k cannot decode, after which
    nothing more is yielded.  Both verify modes and the converse read
    their decoding from here.

    The code's vectors are eliminated once.  Each receiver continues
    from a copy of that table with its side units, then expresses e_k.
    Pivots are claimed in basis order either way, so mask is the one
    `express_in_span(e_k, vectors + units)` returns.
    """
    vectors = [vec for vs in code.senders for vec in vs]
    shared: Dict[int, Tuple[int, int]] = {}
    eliminate(shared, vectors, 0)
    for k in range(1, inst.K + 1):
        side = sorted(inst.side_info[k - 1])
        table = dict(shared)
        eliminate(table, [1 << (j - 1) for j in side], len(vectors))
        mask = express(1 << (k - 1), table)
        yield k, mask, side
        if mask is None:
            return


def verify_code(code: LinearCode, inst: Instance, mode: str = "algebraic") -> bool:
    """True iff every receiver can decode its demand.

    algebraic: span-membership test of e_k against the transmissions
    plus the receiver's known unit vectors.
    simulate: run the actual encode/decode pipeline over message
    vectors (see `verdicts`).
    """
    check_support(code, inst)
    if mode not in ("algebraic", "simulate"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if mode == "algebraic":
        return all(mask is not None for _, mask, _ in _decodings(code, inst))
    return all(verdicts(code, inst))


def verdicts(code: LinearCode, inst: Instance) -> Tuple[bool, bool]:
    """(algebraic, simulate): what `verify_code` returns in each mode,
    from one decoding of each receiver.  The support is not checked:
    the caller has done that (`load_code` does).

    The simulation runs the encode/decode pipeline over message vectors,
    exhaustively for K <= 16 and on seeded samples beyond, and only when
    every receiver decodes algebraically.  It is bit-sliced: each
    message bit is an integer holding that bit of every simulated
    message, so one XOR per support bit encodes a transmission for all
    messages, and one XOR per selected transmission or known message
    decodes a receiver.
    """
    decodings = list(_decodings(code, inst))
    if decodings[-1][1] is None:
        return False, False
    columns = _message_columns(inst.K)
    tx = []
    for vs in code.senders:
        for vec in vs:
            sent = 0
            for j in support(vec):
                sent ^= columns[j]
            tx.append(sent)
    for k, mask, side in decodings:
        # The simulated values of the basis that mask selects from.
        basis = tx + [columns[j - 1] for j in side]
        decoded = 0
        for i in support(mask):
            decoded ^= basis[i]
        if decoded != columns[k - 1]:
            return True, False
    return True, True


def _message_columns(K: int) -> List[int]:
    """Bit-sliced simulation messages: entry j has bit x set iff bit j
    of message x is set.

    The messages are all 2^K vectors for K <= SIM_EXHAUSTIVE_LIMIT and
    SIM_SAMPLES seeded random vectors beyond, so XOR-ing columns runs
    one encode or decode step on every message at once.
    """
    if K > SIM_EXHAUSTIVE_LIMIT:
        rng = random.Random(SIM_SEED)
        rows = [format(rng.getrandbits(K), f"0{K}b") for _ in range(SIM_SAMPLES)]
        # zip(*rows) yields bit K-1 first; a column's string lists the
        # messages last first, so message x lands on bit x.
        return [int("".join(bits[::-1]), 2) for bits in zip(*rows)][::-1]
    total = 1 << K
    columns = []
    for j in range(K):
        half = 1 << j
        column = ((1 << half) - 1) << half
        period = 2 * half
        while period < total:
            column |= column << period
            period *= 2
        columns.append(column)
    return columns


# ---- code -> fitting ----


def code_to_fitting(code: LinearCode, inst: Instance) -> CompositeAdjacency:
    """Fitting whose total rank never exceeds the code length.

    Decomposes e_k over the transmissions and the receiver's known
    units; the per-sender share of that decomposition becomes row k of
    the sender's block.  Row supports stay inside sender stores, the
    diagonal parity works out odd and the unknown-message parities even,
    so the result always fits.
    """
    check_support(code, inst)
    rows = [[0] * inst.K for _ in range(inst.N)]
    for k, mask, _ in _decodings(code, inst):
        if mask is None:
            raise UndecodableCodeError("code does not decode; no fitting derived")
        for n, vs in enumerate(code.senders):
            for vec in vs:
                if mask & 1:
                    rows[n][k - 1] ^= vec
                mask >>= 1
    A = CompositeAdjacency(
        K=inst.K, N=inst.N, blocks=tuple(tuple(r) for r in rows)
    )
    assert fits(A, inst) is not None
    assert A.sum_rank() <= code_length(code)
    return A
