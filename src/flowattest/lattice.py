"""Integer lattice bases.

The cone solver prunes a search node whose residual lies outside the
integer lattice spanned by its free generators: no integer combination,
nonnegative or otherwise, reaches it.  :func:`lattice_basis` gives that
lattice an echelon basis by exact integer row reduction.
"""

from __future__ import annotations

from .vectors import Vec


def lattice_basis(vectors: list[Vec]) -> list[Vec]:
    """Row-echelon integer basis of the lattice generated by ``vectors``.

    Standard euclidean column reduction: within each column, repeatedly
    reduce rows against the one with the smallest nonzero pivot until a
    single pivot row remains, then move on.  The result spans the same
    lattice; its length is the lattice rank.
    """
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return []
    dim = len(rows[0])
    basis: list[Vec] = []
    for col in range(dim):
        while True:
            live = [i for i, r in enumerate(rows) if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(rows[i][col]))
            pivot = live[0]
            for i in live[1:]:
                q = rows[i][col] // rows[pivot][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot])]
            rows = [r for r in rows if any(r)]
        live = [i for i, r in enumerate(rows) if r[col] != 0]
        if live:
            row = rows.pop(live[0])
            if row[col] < 0:
                row = [-a for a in row]
            basis.append(tuple(row))
    return basis
