"""Bench-owned reference join and per-tuple result digests.

The reference is a numpy-vectorised nested-loop join with the repository's
count-window semantics: the stream is cut into slides of ``slide`` tuples
(counted over every stream), and a probe at position ``i`` sees every
earlier tuple of the opposite role whose slide is one of the last
``num_slides`` slides, its own included.  That is what ``SPOJoin`` does
with one merge interval per slide (the mutable tier holds the open slide,
the immutable tier the ``num_slides - 1`` closed ones) and what
``repro.joins.NestedLoopJoin`` does with its deque of slides.

Results are compared per input tuple through an order-independent digest:
the number of matches and two wrapping 64-bit sums of fixed per-tid
hash codes.  Two match multisets with equal digests differ only with
probability about 2**-128, so the digest stands in for the full match set
without holding millions of pairs in memory.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "JoinInput",
    "Digest",
    "reference_digest",
    "reference_matches",
    "pairs_to_arrays",
]

_OPS = {
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "=": np.equal,
    "!=": np.not_equal,
}

#: Salts of the two per-tid hash codes.
_SALT1 = np.uint64(0x9E3779B97F4A7C15)
_SALT2 = np.uint64(0xD1B54A32D192ED03)


@dataclass
class JoinInput:
    """One workload's input in the shape the reference needs.

    ``values`` is ``(n, fields)`` in arrival order, so tid ``i`` is row
    ``i``.  ``is_left`` marks the tuples that play the left predicate role
    (stream ``R`` of a cross join; every tuple of a self join).
    ``predicates`` are ``(left_field, op, right_field)`` triples.
    """

    values: np.ndarray
    is_left: np.ndarray
    self_join: bool
    predicates: List[Tuple[int, str, int]]
    length: int
    slide: int

    @classmethod
    def from_query(cls, query, rows, streams, window):
        """Build from a ``QuerySpec``, value rows, stream names and a count
        ``WindowSpec``; stream ``R`` is the left side of a cross join, as
        in ``SPOJoin`` and ``NestedLoopJoin`` by default."""
        if window.kind.value != "count":
            raise ValueError("the reference covers count windows only")
        self_join = query.is_self_join
        is_left = np.array(
            [self_join or s == "R" for s in streams], dtype=bool
        )
        return cls(
            values=np.asarray(rows, dtype=np.float64),
            is_left=is_left,
            self_join=self_join,
            predicates=[
                (p.left_field, p.op.value, p.right_field)
                for p in query.predicates
            ],
            length=int(window.length),
            slide=int(window.slide),
        )

    def __len__(self) -> int:
        return len(self.values)

    def window_starts(self) -> np.ndarray:
        """First position each probe can see (inclusive)."""
        slides = math.ceil(self.length / self.slide)
        idx = np.arange(len(self), dtype=np.int64)
        return np.maximum(0, (idx // self.slide - (slides - 1)) * self.slide)


def _block_mask(inp: JoinInput, starts: np.ndarray, b0: int, b1: int):
    """Match mask of probes ``[b0, b1)`` against candidates ``[lo, b1)``."""
    lo = int(starts[b0])
    probes = np.arange(b0, b1)
    cand = np.arange(lo, b1)
    mask = (cand[None, :] >= starts[b0:b1, None]) & (cand[None, :] < probes[:, None])
    if not inp.self_join:
        mask &= inp.is_left[b0:b1, None] != inp.is_left[None, lo:b1]
    probe_left = inp.is_left[b0:b1, None]
    pv = inp.values[b0:b1]
    cv = inp.values[lo:b1]
    for left_field, op, right_field in inp.predicates:
        fn = _OPS[op]
        # Probe on the left: probe.left_field op stored.right_field;
        # probe on the right (cross-join S side): stored op probe.
        as_left = fn(pv[:, left_field][:, None], cv[:, right_field][None, :])
        if inp.self_join:
            mask &= as_left
        else:
            as_right = fn(cv[:, left_field][None, :], pv[:, right_field][:, None])
            mask &= np.where(probe_left, as_left, as_right)
    return lo, mask


def reference_matches(inp: JoinInput, limit: int = None, block: int = 256):
    """Exact sorted match tids per probe (for tests on small prefixes)."""
    n = len(inp) if limit is None else min(limit, len(inp))
    starts = inp.window_starts()
    out: List[np.ndarray] = []
    for b0 in range(0, n, block):
        b1 = min(n, b0 + block)
        lo, mask = _block_mask(inp, starts, b0, b1)
        out.extend(lo + np.flatnonzero(row) for row in mask)
    return out


class Digest:
    """Per-tuple ``(count, code sum 1, code sum 2)`` plus result coverage.

    ``records`` counts how many result records a tuple produced on a
    record-emitting path; ``bad`` flags tuples that emitted a match tid
    outside the input.  ``expected_records`` is what a correct run emits
    per tuple (0 means the path has no per-tuple records, as for the
    local ``process_many`` pair lists).
    """

    def __init__(self, n: int, expected_records: int = 0) -> None:
        self.n = n
        self.counts = np.zeros(n, dtype=np.int64)
        self.h1 = np.zeros(n, dtype=np.uint64)
        self.h2 = np.zeros(n, dtype=np.uint64)
        self.records = np.zeros(n, dtype=np.int64)
        self.bad = np.zeros(n, dtype=bool)
        self.expected_records = expected_records

    def add(self, probes: np.ndarray, matches: np.ndarray) -> None:
        """Fold ``(probe tid, match tid)`` pairs in, in any order."""
        if not len(probes):
            return
        probes = np.asarray(probes, dtype=np.int64)
        matches = np.asarray(matches, dtype=np.int64)
        inside = (probes >= 0) & (probes < self.n)
        if not inside.all():
            raise ValueError("result names a probe tid outside the input")
        valid = (matches >= 0) & (matches < self.n)
        if not valid.all():
            self.bad[probes[~valid]] = True
            probes, matches = probes[valid], matches[valid]
            if not len(probes):
                return
        if len(probes) > 1 and np.any(probes[1:] < probes[:-1]):
            order = np.argsort(probes, kind="stable")
            probes, matches = probes[order], matches[order]
        heads = np.flatnonzero(np.r_[True, probes[1:] != probes[:-1]])
        uniq = probes[heads]
        self.counts[uniq] += np.diff(np.r_[heads, len(probes)])
        self.h1[uniq] += np.add.reduceat(_code(matches, _SALT1), heads)
        self.h2[uniq] += np.add.reduceat(_code(matches, _SALT2), heads)

    def add_records(self, tids: Sequence[int], match_lists: Iterable[Sequence[int]]) -> None:
        """Fold per-tuple result records (``tid`` plus its match list)."""
        tids = np.asarray(tids, dtype=np.int64)
        if not len(tids):
            return
        if np.any((tids < 0) | (tids >= self.n)):
            raise ValueError("result record names a tid outside the input")
        np.add.at(self.records, tids, 1)
        lists = list(match_lists)
        lengths = np.fromiter((len(m) for m in lists), dtype=np.int64, count=len(lists))
        flat = np.fromiter(
            itertools.chain.from_iterable(lists), dtype=np.int64, count=int(lengths.sum())
        )
        self.add(np.repeat(tids, lengths), flat)

    def differs(self, reference: "Digest", upto: int = None) -> np.ndarray:
        """Boolean per tuple: emitted result set differs from reference."""
        n = self.n if upto is None else upto
        wrong = (
            (self.counts[:n] != reference.counts[:n])
            | (self.h1[:n] != reference.h1[:n])
            | (self.h2[:n] != reference.h2[:n])
            | self.bad[:n]
        )
        if self.expected_records:
            wrong |= self.records[:n] != self.expected_records
        return wrong

    def error_rate(self, reference: "Digest") -> float:
        return float(self.differs(reference).mean()) if self.n else 0.0

    def hexdigest(self) -> str:
        """One SHA-256 over every tuple's digest (run-level identity)."""
        h = hashlib.sha256()
        for arr in (self.counts, self.h1, self.h2, self.records, self.bad):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _code(tids: np.ndarray, salt: np.uint64) -> np.ndarray:
    """SplitMix64 finaliser of ``tid + salt``: a fixed 64-bit code per tid."""
    z = np.asarray(tids, dtype=np.int64).astype(np.uint64) + salt
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_digest(inp: JoinInput, block: int = 256) -> Digest:
    """Digest of the reference join over the whole input."""
    n = len(inp)
    digest = Digest(n)
    tids = np.arange(n)
    c1, c2 = _code(tids, _SALT1), _code(tids, _SALT2)
    starts = inp.window_starts()
    for b0 in range(0, n, block):
        b1 = min(n, b0 + block)
        lo, mask = _block_mask(inp, starts, b0, b1)
        digest.counts[b0:b1] = mask.sum(axis=1)
        digest.h1[b0:b1] = np.where(mask, c1[None, lo:b1], 0).sum(axis=1, dtype=np.uint64)
        digest.h2[b0:b1] = np.where(mask, c2[None, lo:b1], 0).sum(axis=1, dtype=np.uint64)
    return digest


def pairs_to_arrays(pairs: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``[(probe, match), ...]`` as two int64 arrays."""
    flat = np.fromiter(
        itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
    )
    return flat[0::2], flat[1::2]
