"""GF(2) linear systems on bit-packed int rows."""

from __future__ import annotations

from typing import Sequence


def solve(rows: Sequence[int], rhs: Sequence[int], cols: int) -> int | None:
    """One solution x of the system over GF(2), or None if inconsistent.

    Row i is an int whose bit c is the coefficient of unknown c (c <
    `cols`), with right-hand side bit rhs[i]; the solution is packed the
    same way. Gauss-Jordan elimination pivots on the columns in order,
    each time on the first row below the pivots made so far, and free
    unknowns are 0: the solution read off the reduced row echelon form.
    """
    aug = [row | (b & 1) << cols for row, b in zip(rows, rhs)]
    x = 0
    r = 0
    for c in range(cols):
        hit = next((i for i in range(r, len(aug)) if aug[i] >> c & 1), -1)
        if hit < 0:
            continue
        aug[r], aug[hit] = aug[hit], aug[r]
        pivot = aug[r]
        aug = [row ^ pivot if i != r and row >> c & 1 else row for i, row in enumerate(aug)]
        r += 1
    if any(aug[r:]):
        return None
    for row in aug[:r]:
        # the pivot is the row's lowest set bit; no other pivot column is set
        low = row & -row
        x |= (row >> cols & 1) * low
    return x
