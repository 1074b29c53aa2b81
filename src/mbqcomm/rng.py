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
`searchsorted(side="right")` computes). `index_slices` is the one loop
that makes such draws: it yields them as uint8 slices, each drawn into
one reused set of buffers. The samplers take slices of `_CHUNK` draws,
and `draw_indices` joins them into one array. The bit generator yields
the same doubles whether asked once or in pieces, so slicing moves no
draw, and a noise layer may also cut the doubles of one `random(n)`
call itself.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

# Draws per slice of `index_slices`, the one slice size of the package's
# samplers: a slice's doubles (512 KiB), mask and indices (64 KiB each) fit
# in a core's L2 cache of 1 MiB, so each pass over them stays in the cache;
# 2^18 draws (2.5 MiB) overflow even a 2 MiB L2.
_CHUNK = 1 << 16
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


def index_slices(rng: np.random.Generator, weights, size: int, step: int):
    """The `size` indices of `draw_indices(rng, weights, size)`, as consecutive
    uint8 slices of `step` indices (the last may be shorter).

    The slices consume the same doubles in the same order as the one call.
    The weights are checked here, as `choice` checks them, even when no
    slice is asked for. Every slice is drawn into one set of buffers
    (doubles, mask, indices) of min(size, step) entries, allocated here,
    so a slice holds its indices only until the next one is drawn.
    """
    cuts = _cut_points(tuple(weights))
    # the first cut point writes the indices through a bool view (with
    # none, 1.0 > every double gives index 0); later ones add their mask
    first, later = (cuts[0], cuts[1:]) if cuts else (1.0, ())
    n = min(size, step)
    buf, hit, idx = np.empty(n), np.empty(n, dtype=np.uint8), np.empty(n, dtype=np.uint8)

    def slices():
        for start in range(0, size, step):
            n = min(step, size - start)
            u, h, o = buf[:n], hit[:n], idx[:n]
            rng.random(out=u)
            np.greater_equal(u, first, out=o.view(bool))
            for c in later:
                np.greater_equal(u, c, out=h.view(bool))
                o += h
            yield o

    return slices()


def draw_indices(rng: np.random.Generator, weights, size: int) -> np.ndarray:
    """Indices into `weights`, i.i.d., as `rng.choice(len(weights), size, p=weights)`,
    as a uint8 array of `size` indices (up to 256 categories), joined from
    the slices of `index_slices`."""
    out = np.empty(size, dtype=np.uint8)
    for start, idx in zip(range(0, size, _CHUNK), index_slices(rng, weights, size, _CHUNK)):
        out[start:start + idx.size] = idx
    return out
