"""Tests for the stage-list evaluators of recurrence purification and
the nested repeater: frozen exact values, Monte Carlo against exact,
and shard merging."""

import math
from collections import Counter

import pytest

from mbqcomm.belldiag import werner
from mbqcomm.netsim import ChainConfig, repeater_chain
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import PauliString
from mbqcomm.protocols import (
    Depolarize,
    ProtocolError,
    Purify,
    Swap,
    pairs_per_output,
    purify_recurrence,
    sample_stages,
    stats_from_counts,
)
from mbqcomm.rng import make_rng
from mbqcomm.tableau import StabilizerState

PURIFY_NOISE = NoiseModel(0.97, 0.97, 1.0)
REPEATER_NOISE = NoiseModel(0.99, 0.99, 0.95)

# (mode, variant, rounds): (fidelity, p_success) at F = 0.8, p = q = 0.97
PURIFY_EXACT = {
    ("merged", "DEJMPS", 1): (0.7149610826238216, 0.6865665015121069),
    ("merged", "DEJMPS", 2): (0.8203693219199483, 0.3053008994722206),
    ("merged", "DEJMPS", 3): (0.9009175391123873, 0.07257964487452916),
    ("merged", "BBPSSW", 1): (0.7149610826238216, 0.6865665015121065),
    ("merged", "BBPSSW", 2): (0.7509648408687383, 0.3380064120919631),
    ("merged", "BBPSSW", 3): (0.7873525371001802, 0.08591305678710666),
    ("stepwise", "DEJMPS", 1): (0.7149610826238216, 0.6865665015121069),
    ("stepwise", "DEJMPS", 2): (0.6708192600847906, 0.4055652391978631),
    ("stepwise", "DEJMPS", 3): (0.6173695068939881, 0.23427302813728107),
    ("stepwise", "BBPSSW", 1): (0.7149610826238216, 0.6865665015121065),
    ("stepwise", "BBPSSW", 2): (0.6398797692302549, 0.4348260326837105),
    ("stepwise", "BBPSSW", 3): (0.5701084446908916, 0.25817780794433653),
}

# (segments, rounds): (fidelity, p_success) at q_channel 0.95, p = q = 0.99
REPEATER_EXACT = {
    (2, 1): (0.9002846590211704, 0.6191496764239542),
    (2, 2): (0.9803430476711851, 0.4721545705523548),
    (4, 1): (0.8787283940246107, 0.4488779550348762),
    (4, 2): (0.9825029877835803, 0.38101225295662866),
    (8, 1): (0.8349326835321282, 0.3141110128620491),
    (8, 2): (0.9828436542601899, 0.31274145281805543),
}


def _z(estimate: float, exact: float, trials: int) -> float:
    """Distance in standard errors of a binomial proportion."""
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
    return abs(estimate - exact) / se


@pytest.mark.parametrize("key", sorted(PURIFY_EXACT))
def test_purify_exact_values_frozen(key):
    mode, variant, rounds = key
    s = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode=mode,
                          engine="analytic", variant=variant)
    fidelity, p_success = PURIFY_EXACT[key]
    assert abs(s.fidelity - fidelity) < 1e-12
    assert abs(s.p_success - p_success) < 1e-12
    assert abs(s.protocol_yield - p_success / 2 ** rounds) < 1e-15


@pytest.mark.parametrize("key", sorted(REPEATER_EXACT))
def test_repeater_exact_values_frozen(key):
    segments, rounds = key
    cfg = ChainConfig(segments=segments, noise=REPEATER_NOISE, purify_rounds=rounds)
    r = repeater_chain(cfg, mode="analytic")
    fidelity, p_success = REPEATER_EXACT[key]
    assert abs(r.fidelity - fidelity) < 1e-12
    assert abs(r.p_success - p_success) < 1e-12


@pytest.mark.parametrize("mode", ["merged", "stepwise"])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_purify_mc_matches_exact(mode, rounds):
    fidelity, p_success = PURIFY_EXACT[(mode, "DEJMPS", rounds)]
    s = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode=mode,
                          samples=200_000, rng=make_rng(7), engine="mc")
    counts = s.extra["counts"]
    assert s.samples == 200_000
    assert _z(s.fidelity, fidelity, counts["kept"]) < 4
    assert _z(s.p_success, p_success, counts["consumed"] >> rounds) < 4


@pytest.mark.parametrize("key", sorted(REPEATER_EXACT))
def test_repeater_mc_matches_exact(key):
    segments, rounds = key
    fidelity, p_success = REPEATER_EXACT[key]
    cfg = ChainConfig(segments=segments, noise=REPEATER_NOISE, purify_rounds=rounds,
                      samples=1 << 18)
    r = repeater_chain(cfg, make_rng(11), mode="mc")
    slots = cfg.samples >> (rounds * (segments.bit_length()))
    assert r.extra["delivered"] == round(r.p_success * slots)
    assert _z(r.fidelity, fidelity, r.extra["delivered"]) < 4
    assert _z(r.p_success, p_success, slots) < 4


def test_summed_shard_counts_keep_p_success():
    n, rounds = 200_000, 2
    exact = PURIFY_EXACT[("stepwise", "DEJMPS", rounds)][1]
    whole = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode="stepwise",
                              samples=n, rng=make_rng(3, 0), engine="mc")
    summed = Counter()
    for shard, size in enumerate((n // 2, n - n // 2)):
        part = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode="stepwise",
                                 samples=size, rng=make_rng(3, shard), engine="mc")
        summed.update(part.extra["counts"])
    merged = stats_from_counts(dict(summed), 1 << rounds)
    assert merged.samples == n
    assert _z(merged.p_success, exact, n >> rounds) < 4
    assert _z(whole.p_success, exact, n >> rounds) < 4
    assert abs(merged.p_success - whole.p_success) < 4 * math.sqrt(
        2 * exact * (1 - exact) / (n >> rounds))


def test_pairs_per_output_and_consumed():
    stages = [Depolarize(0.9), Purify(2), Swap(), Depolarize(0.9), Purify(2)]
    assert pairs_per_output(stages) == 2 * 4 * 4
    counts = sample_stages(werner(0.9), stages, 64, make_rng(1))
    assert counts["consumed"] == 2 * 64
    assert counts["attempts"] == 64


def test_sampler_rejects_non_deterministic_variant():
    with pytest.raises(ProtocolError):
        purify_recurrence(werner(0.8), 1, PURIFY_NOISE, samples=10, rng=make_rng(1),
                          engine="mc", variant="BBPSSW")


@pytest.mark.parametrize("index,letter", enumerate("IZXY"))
def test_bell_pair_constructor(index, letter):
    ref = StabilizerState.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )
    if letter != "I":
        ref.apply_pauli(PauliString.single(2, 1, letter))
    pair = StabilizerState.bell_pair(index)
    assert pair.stabs == ref.stabs
    assert pair.destabs == ref.destabs
    pair.validate()
