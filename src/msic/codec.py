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
from typing import FrozenSet, List, Tuple

from .gf2 import express_in_span, in_span_with_side_info, spanning_rows, support
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
    "decode_plan",
    "verify_code",
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
    except json.JSONDecodeError as exc:
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
    payload = {
        "code": [
            [[(vec >> i) & 1 for i in range(code.K)] for vec in vectors]
            for vectors in code.senders
        ]
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---- fitting -> code ----


def code_from_fitting(A: CompositeAdjacency, inst: Instance) -> LinearCode:
    """Spanning rows of each block become that sender's transmissions."""
    if fits(A, inst) is None:
        raise ValueError("matrix does not fit the instance's hypergraph")
    senders = []
    for block in A.blocks:
        rows = list(block)
        senders.append(tuple(rows[i] for i in spanning_rows(rows)))
    return LinearCode(K=inst.K, senders=tuple(senders))


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


def _flat_vectors(code: LinearCode) -> Tuple[List[int], List[int]]:
    """Code vectors in sender order plus each vector's owning sender."""
    vectors: List[int] = []
    owners: List[int] = []
    for n, vs in enumerate(code.senders, start=1):
        for vec in vs:
            vectors.append(vec)
            owners.append(n)
    return vectors, owners


def verify_code(code: LinearCode, inst: Instance, mode: str = "algebraic") -> bool:
    """True iff every receiver can decode its demand.

    algebraic: span-membership test of e_k against the transmissions
    plus the receiver's known unit vectors.
    simulate: run the actual encode/decode pipeline over message
    vectors, exhaustively for K <= 16 and on seeded samples beyond.
    """
    check_support(code, inst)
    vectors, _ = _flat_vectors(code)
    if mode == "algebraic":
        return all(
            in_span_with_side_info(
                1 << (k - 1), vectors, [j - 1 for j in inst.side_info[k - 1]]
            )
            for k in range(1, inst.K + 1)
        )
    if mode != "simulate":
        raise ValueError(f"unknown verification mode {mode!r}")

    plans = []
    for k in range(1, inst.K + 1):
        side = sorted(inst.side_info[k - 1])
        basis = vectors + [1 << (j - 1) for j in side]
        coeffs = express_in_span(1 << (k - 1), basis)
        if coeffs is None:
            return False
        sel_tx = [i for i in range(len(vectors)) if (coeffs >> i) & 1]
        sel_side = [side[i] for i in range(len(side)) if (coeffs >> (len(vectors) + i)) & 1]
        plans.append((k, sel_tx, sel_side))

    if inst.K <= SIM_EXHAUSTIVE_LIMIT:
        messages = range(1 << inst.K)
    else:
        rng = random.Random(SIM_SEED)
        messages = [rng.getrandbits(inst.K) for _ in range(SIM_SAMPLES)]
    for x in messages:
        tx = [(vec & x).bit_count() & 1 for vec in vectors]
        for k, sel_tx, sel_side in plans:
            bit = 0
            for i in sel_tx:
                bit ^= tx[i]
            for j in sel_side:
                bit ^= (x >> (j - 1)) & 1
            if bit != (x >> (k - 1)) & 1:
                return False
    return True


# ---- code -> fitting ----


def code_to_fitting(code: LinearCode, inst: Instance) -> CompositeAdjacency:
    """Fitting whose total rank never exceeds the code length.

    Decomposes e_k over the transmissions and the receiver's known
    units; the per-sender share of that decomposition becomes row k of
    the sender's block.  Row supports stay inside sender stores, the
    diagonal parity works out odd and the unknown-message parities even,
    so the result always fits.
    """
    if not verify_code(code, inst, mode="algebraic"):
        raise UndecodableCodeError("code does not decode; no fitting derived")
    vectors, owners = _flat_vectors(code)
    rows = [[0] * inst.K for _ in range(inst.N)]
    for k in range(1, inst.K + 1):
        side = sorted(inst.side_info[k - 1])
        basis = vectors + [1 << (j - 1) for j in side]
        coeffs = express_in_span(1 << (k - 1), basis)
        assert coeffs is not None
        for i, vec in enumerate(vectors):
            if (coeffs >> i) & 1:
                rows[owners[i] - 1][k - 1] ^= vec
    A = CompositeAdjacency(
        K=inst.K, N=inst.N, blocks=tuple(tuple(r) for r in rows)
    )
    assert fits(A, inst) is not None
    assert A.sum_rank() <= code_length(code)
    return A
