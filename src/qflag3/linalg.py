"""Exact sparse linear algebra over Q(q): reduction against pivot rows, rank,
and the solution of square systems.

A row is a dict from an orderable column key to a nonzero Coefficient.  A
pivot set maps each leading column (the least key of its row) to the rest of
that row divided by minus its lead entry, its tail; every tail key is greater
than its lead and distinct rows have distinct leading columns.  Reducing a
row whose lead has a pivot pops that lead and adds lead * tail, so the
cancelled lead is never computed.  A caller whose pivots follow a rule may
leave them out of the set and pass `reduce` a lookup that derives the tail
of a lead the set misses.
"""

from __future__ import annotations

from .scalar import ZERO


def reduce(row, pivots, lookup=None) -> dict:
    """The remainder of the row after eliminating, lead by lead, every leading
    column that has a pivot; a new dict, empty iff the row is in their span.
    A lead with no pivot in `pivots` is passed to `lookup`, if given, which
    returns its tail or None."""
    row = dict(row)
    while row:
        lead = min(row)
        tail = pivots.get(lead)
        if tail is None and lookup is not None:
            tail = lookup(lead)
        if tail is None:
            return row
        factor = row.pop(lead)
        for j, c in tail.items():
            new = row.get(j, ZERO) + factor * c
            if new.is_zero():
                row.pop(j, None)
            else:
                row[j] = new
    return row


def insert_pivot(row, pivots) -> bool:
    """Add the row's remainder to the pivot set; False if the row is dependent."""
    rem = reduce(row, pivots)
    if not rem:
        return False
    lead = min(rem)
    scale = -rem.pop(lead)
    pivots[lead] = {j: c / scale for j, c in rem.items()}
    return True


def rank(rows) -> int:
    """The dimension of the span of the rows."""
    pivots = {}
    return sum(1 for row in rows if insert_pivot(row, pivots))


def solve(matrix, rhs):
    """The x with matrix . x = rhs for a square matrix; None if it is singular."""
    n = len(matrix)
    if len(rhs) != n or any(len(entries) != n for entries in matrix):
        raise ValueError("solve needs an n x n matrix and n right-hand sides")
    pivots = {}
    for entries, value in zip(matrix, rhs):
        row = {j: c for j, c in enumerate(entries) if not c.is_zero()}
        if not value.is_zero():
            row[n] = value
        insert_pivot(row, pivots)
    if any(j not in pivots for j in range(n)):
        return None
    x = [ZERO] * n
    for i in reversed(range(n)):
        # row i reads -x_i + sum_j tail_j x_j = tail_n
        value = -pivots[i].get(n, ZERO)
        for j, c in pivots[i].items():
            if j < n:
                value = value + c * x[j]
        x[i] = value
    return x
