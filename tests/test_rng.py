"""Tests for the stream derivation of `make_rng`."""

import warnings

import numpy as np
import pytest

from mbqcomm.rng import draw_indices, make_rng


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
