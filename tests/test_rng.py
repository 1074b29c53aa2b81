"""Tests for the stream derivation of `make_rng` and for the slice loop
of the categorical draws, `index_slices`."""

import warnings

import numpy as np
import pytest

from mbqcomm import rng as streams
from mbqcomm.rng import draw_indices, index_slices, make_rng


@pytest.mark.parametrize("seed", [0, 1, 2**70])
def test_stream_is_numpy_spawn_derivation(seed):
    # the stream of the first child that numpy's SeedSequence(seed).spawn hands out
    ref = np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(1)[0])
    ours = make_rng(seed).bit_generator
    assert np.array_equal(ours.random_raw(8), ref.random_raw(8))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draw_indices_follows_choice_on_each_seed(seed):
    weights = (0.55, 0.25, 0.15, 0.05)
    ours, ref = make_rng(seed), make_rng(seed)
    assert np.array_equal(draw_indices(ours, weights, 5000),
                          ref.choice(4, size=5000, p=weights))
    assert ours.random() == ref.random()


@pytest.mark.parametrize("step", [8, 1000, 1 << 16])
def test_slices_join_into_draw_indices_and_choice(step, monkeypatch):
    # draw_indices slices at the patched constant, index_slices at `step`;
    # the slices share one set of buffers, so each is copied as it comes
    monkeypatch.setattr(streams, "_CHUNK", step)
    weights = (0.55, 0.25, 0.15, 0.05)
    for size in (0, 1, step - 1, step, step + 1, 3 * step + 7):
        whole, sliced, ref = make_rng(size), make_rng(size), make_rng(size)
        slices = [(s, s.copy()) for s in index_slices(sliced, weights, size, step)]
        assert [c.size for _, c in slices] == [min(step, size - k) for k in range(0, size, step)]
        assert all(np.shares_memory(s, slices[0][0]) for s, _ in slices)
        joined = np.concatenate([np.zeros(0, dtype=np.uint8)] + [c for _, c in slices])
        drawn = draw_indices(whole, weights, size)
        assert drawn.dtype == joined.dtype == np.uint8
        assert np.array_equal(drawn, joined), size
        assert np.array_equal(drawn, ref.choice(4, size=size, p=weights)), size
        assert whole.random() == sliced.random() == ref.random(), size  # streams end alike


@pytest.mark.parametrize("seeds", [(2**63 + 1, 2**63 + 2), (1, 2**64 + 1), (0, 2**64)])
def test_seeds_are_exact_integers(seeds):
    # no seed is cast or reduced: each names its own stream, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = (make_rng(seed).random(4) for seed in seeds)
    assert not np.array_equal(a, b)


def test_seed_takes_any_integer_type_exactly():
    seed = 2**63 + 1
    assert make_rng(np.uint64(seed)).random() == make_rng(seed).random()


@pytest.mark.parametrize("seed", [-1, -(2**63)])
def test_negative_seed_is_rejected(seed):
    with pytest.raises(ValueError):
        make_rng(seed)
