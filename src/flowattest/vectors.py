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
    """Componentwise sum of ``dim``-dimensional vectors, in one C-level pass
    per component; no vectors sum to zero."""
    return tuple(map(sum, zip(*vectors))) or (0,) * dim
