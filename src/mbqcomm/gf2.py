"""Small dense GF(2) linear algebra helpers on numpy uint8 arrays."""

from __future__ import annotations

import numpy as np


def row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a binary matrix in place-free fashion.

    Returns the reduced matrix and the list of pivot column indices.
    """
    m = np.atleast_2d(np.array(mat, dtype=np.uint8, copy=True)) & 1
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.flatnonzero(m[r:, c])
        if hit.size == 0:
            continue
        pivot = r + int(hit[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        others = np.flatnonzero(m[:, c])
        for o in others:
            if o != r:
                m[o] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution x of mat @ x = rhs over GF(2), or None if inconsistent."""
    a = np.array(mat, dtype=np.uint8) & 1
    b = np.array(rhs, dtype=np.uint8).reshape(-1, 1) & 1
    aug, pivots = row_reduce(np.hstack([a, b]))
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    r = 0
    for c in pivots:
        x[c] = aug[r, cols]
        r += 1
    return x
