"""Reproducible random streams on the PCG64DXSM bit generator.

Stream derivation: seed `s` names `PCG64DXSM(SeedSequence(s,
spawn_key=(0,)))`, the stream that numpy's `SeedSequence(s).spawn` hands
its first child. The seed enters SeedSequence as an exact integer of any
size, so distinct nonnegative seeds name distinct streams. A run is
bitwise reproducible from (seed, config, version).

Every categorical draw in the package (Bell indices, Pauli letters)
reproduces `Generator.choice(k, size, p)` draw for draw: the same
normalised cumsum (`_cut_points`), one `random()` double per draw, and
the index as the number of cut points at or below it (what
`searchsorted(side="right")` computes). `draw_indices` makes such draws
into a uint8 array from fixed chunks of doubles; the bit generator yields
the same doubles whether asked once or in pieces, so a noise layer may
also cut the doubles of one `random(n)` call itself.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_CHUNK = 1 << 18
_ATOL = float(np.sqrt(np.finfo(float).eps))  # Generator.choice's tolerance on sum(p)


def make_rng(seed: int) -> np.random.Generator:
    """Generator of the stream of `seed`; a seed always gives the same stream."""
    seed = operator.index(seed)  # an exact Python int, never a float
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    seq = np.random.SeedSequence(seed, spawn_key=(0,))
    return np.random.Generator(np.random.PCG64DXSM(seq))


@lru_cache(maxsize=256)
def _cut_points(weights: tuple) -> tuple[float, ...]:
    """Inner cut points cdf[:-1] of the normalised cumsum, as choice forms it."""
    cdf, total = [], 0.0
    for w in weights:
        w = float(w)
        if not w >= 0.0:
            raise ValueError("probabilities must be non-negative")
        total += w
        cdf.append(total)
    if not abs(total - 1.0) <= _ATOL:
        raise ValueError("probabilities do not sum to 1")
    return tuple(c / total for c in cdf[:-1])


def draw_indices(rng: np.random.Generator, weights, size: int) -> np.ndarray:
    """Indices into `weights`, i.i.d., as `rng.choice(len(weights), size, p=weights)`,
    as a uint8 array of `size` indices (up to 256 categories)."""
    cuts = _cut_points(tuple(weights))
    # the first cut point writes the output through a bool view (with
    # none, 1.0 > every double gives index 0); later ones add their mask
    first, later = (cuts[0], cuts[1:]) if cuts else (1.0, ())
    out = np.empty(size, dtype=np.uint8)
    buf = np.empty(min(size, _CHUNK))
    hit = np.empty(buf.size, dtype=np.uint8)
    for start in range(0, size, _CHUNK):
        n = min(_CHUNK, size - start)
        u, h, o = buf[:n], hit[:n], out[start:start + n]
        rng.random(out=u)
        np.greater_equal(u, first, out=o.view(bool))
        for c in later:
            np.greater_equal(u, c, out=h.view(bool))
            o += h
    return out

