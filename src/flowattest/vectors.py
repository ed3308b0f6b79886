"""Exact-integer counter-vector helpers.

Counter vectors are plain tuples of Python ints so all arithmetic is exact
and unbounded.  Every value in this package that represents event counts
(block deltas, measurement deltas, loop vectors, cone targets) uses this
representation.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable

Vec = tuple[int, ...]


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vectors of dimension {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vectors of dimension {len(a)} and {len(b)}")
    return tuple(map(sub, a, b))


def vsum(vectors: Iterable[Vec], dim: int) -> Vec:
    acc = [0] * dim
    for v in vectors:
        for i, x in enumerate(v):
            acc[i] += x
    return tuple(acc)


def is_nonneg(a: Vec) -> bool:
    return all(x >= 0 for x in a)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)
