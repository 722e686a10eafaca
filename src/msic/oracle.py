"""Brute-force search for the shortest working linear code.

This module exists to certify the solver, so it deliberately shares no
machinery with it: no hypergraphs, no adjacency matrices, no fittings.
A configuration is just a list of candidate transmission vectors per
sender; it works iff every receiver's unit vector lies in the span of
the transmissions plus the units the receiver already holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .codec import LinearCode
from .gf2 import express_in_span
from .instance import Instance

__all__ = ["OracleReport", "optimal_linear_code_bruteforce"]


@dataclass(frozen=True)
class OracleReport:
    optimal_length: Optional[int]
    witness_code: Optional[LinearCode]
    configurations_checked: int
    found: bool


def _supported_vectors(store_mask: int) -> List[int]:
    """Nonzero submasks of store_mask, ascending."""
    subs = []
    sub = store_mask
    while sub:
        subs.append(sub)
        sub = (sub - 1) & store_mask
    return sorted(subs)


def _compositions(total: int, caps: List[int]) -> Iterator[Tuple[int, ...]]:
    """Tuples summing to total with per-position caps, lex ascending."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def optimal_linear_code_bruteforce(inst: Instance, max_length: Optional[int] = None) -> OracleReport:
    """Smallest total transmission count over all linear codes.

    Tries lengths 0, 1, ... in order; within a length, sender splits are
    tried in lex order and vector picks per sender in ascending
    combination order, so the first hit is deterministic.  Vector lists
    are strictly increasing within a sender because only the span
    matters.  With max_length = K a feasible instance always succeeds,
    since K unit transmissions decode everything.
    """
    if max_length is None:
        max_length = inst.K
    if not 0 <= max_length <= inst.K:
        raise ValueError(f"max_length must lie in [0, {inst.K}], got {max_length}")
    store_masks = []
    for store in inst.sender_stores:
        mask = 0
        for m in store:
            mask |= 1 << (m - 1)
        store_masks.append(mask)
    candidates = [_supported_vectors(mask) for mask in store_masks]
    caps = [len(c) for c in candidates]
    # the unit rows of the messages each receiver knows
    units = [[1 << (j - 1) for j in sorted(known)] for known in inst.side_info]
    targets = [1 << (k - 1) for k in range(1, inst.K + 1)]

    checked = 0
    for length in range(max_length + 1):
        for split in _compositions(length, caps):
            pools = [
                itertools.combinations(candidates[n], ln)
                for n, ln in enumerate(split)
            ]
            for picks in itertools.product(*pools):
                checked += 1
                flat = [vec for sender_vecs in picks for vec in sender_vecs]
                if all(
                    express_in_span(targets[k], flat + units[k]) is not None
                    for k in range(inst.K)
                ):
                    witness = LinearCode(K=inst.K, senders=tuple(tuple(p) for p in picks))
                    return OracleReport(
                        optimal_length=length,
                        witness_code=witness,
                        configurations_checked=checked,
                        found=True,
                    )
    return OracleReport(
        optimal_length=None,
        witness_code=None,
        configurations_checked=checked,
        found=False,
    )
