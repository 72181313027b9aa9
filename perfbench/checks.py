"""Correctness checks, run untimed after the measured loop.

* ``knn-fcfw`` / ``knn-acaw``: on a fixed sample of queries, the ids and
  distances the workspace returned must be bit-identical to a
  cascade-free reference scan through ``SDTW(config).distance``, ordered
  by (distance, insertion position).
* ``serve-churn``: the exact answers over HTTP on the final state must
  equal those of an unsharded in-process ``Workspace`` rebuilt from the
  final roster.

Each mismatching answer counts as one failed op.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import SDTW

Answer = Tuple[Tuple[str, ...], Tuple[float, ...]]
"""The part of a query result that is checked: (ids, distances)."""


def answer_of(result) -> Answer:
    return tuple(result.ids), tuple(float(d) for d in result.distances)


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def same_answer(got: Answer, expected: Answer) -> bool:
    """Ids equal and distances equal bit for bit."""
    got_ids, got_distances = got
    want_ids, want_distances = expected
    return tuple(got_ids) == tuple(want_ids) and len(got_distances) == len(
        want_distances
    ) and all(
        _bits(a) == _bits(b) for a, b in zip(got_distances, want_distances)
    )


def reference_answer(sdtw: SDTW, constraint: str, query: np.ndarray,
                     stored: Sequence[np.ndarray], identifiers: Sequence[str],
                     k: int) -> Answer:
    """Top-k by a full scan with no pruning and no early abandoning."""
    scored = sorted(
        (sdtw.distance(query, values, constraint).distance, position)
        for position, values in enumerate(stored)
    )[:k]
    return (
        tuple(identifiers[position] for _, position in scored),
        tuple(float(distance) for distance, _ in scored),
    )


@dataclass
class CheckReport:
    checked: int = 0
    failed: int = 0
    recall_hits: int = 0
    recall_total: int = 0

    @property
    def recall(self) -> float:
        if not self.recall_total:
            return 0.0
        return self.recall_hits / float(self.recall_total)

    def record(self, got: Answer, expected: Answer) -> None:
        self.checked += 1
        if not same_answer(got, expected):
            self.failed += 1
        self.recall_hits += len(set(got[0]) & set(expected[0]))
        self.recall_total += len(expected[0])


def check_against_reference(answers: List[Answer], queries: List[np.ndarray],
                            sdtw: SDTW, constraint: str,
                            stored: Sequence[np.ndarray],
                            identifiers: Sequence[str], k: int) -> CheckReport:
    report = CheckReport()
    for got, query in zip(answers, queries):
        report.record(
            got, reference_answer(sdtw, constraint, query, stored, identifiers, k)
        )
    return report


def check_pairs(got: List[Answer], expected: List[Answer]) -> CheckReport:
    report = CheckReport()
    for a, b in zip(got, expected):
        report.record(a, b)
    return report
