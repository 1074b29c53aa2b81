"""Tests of encoded transmission: the syndrome/frame rule shared by the
stations and the dense chain, frozen chain values, and stabilizer
trajectories against the exact branch-ensemble (dense) evaluation."""

import math

import pytest

from mbqcomm.belldiag import apply_pauli_channel, perfect_pair
from mbqcomm.catalog import code_by_name
from mbqcomm.codes import all_single_qubit_errors
from mbqcomm.netsim import ChainConfig, effective_step_noise, encoded_chain, encoded_chain_dense
from mbqcomm.noise import NoiseModel, PauliChannel
from mbqcomm.pauli import PauliString
from mbqcomm.rng import make_rng

CHAIN_NOISE = NoiseModel(0.98, 0.99, 0.9)

# fidelity at CHAIN_NOISE before the chain shared one shot body, and for
# trajectories (10 shots at seed 1) the stations' non-trivial syndromes
CHAIN_FROZEN = {
    ("ring5", "dense", 1, "end"): (0.8990951221413057, None),
    ("ring5", "dense", 2, "end"): (0.811765970116841, None),
    ("ring5", "dense", 2, "station"): (0.8117659701168409, None),
    ("ring5", "trajectory", 3, "end"): (0.8, 10),
    ("ring5", "trajectory", 3, "station"): (0.8, 10),
    ("repetition3", "trajectory", 3, "station"): (0.6, 6),
}

# the paper's ring-5 bound at CHAIN_NOISE, as reported before one logical
# channel served every code
ANALYTIC_FROZEN = {1: 0.8962128276627241, 2: 0.8067880248478049, 3: 0.7297380852608575}


@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase"])
def test_estimate_removes_the_pending_frame(name):
    code = code_by_name(name)
    frames = [PauliString.identity(code.n)] + all_single_qubit_errors(code.n)
    for error in all_single_qubit_errors(code.n):
        for frame in frames:
            raw = code.syndrome_of(error * frame)
            syndrome, correction = code.estimate(raw, frame)
            assert syndrome == code.syndrome_of(error)
            assert correction == code.correction_for(syndrome)
            assert code.estimate(raw) == (raw, code.correction_for(raw))


@pytest.mark.parametrize("key", sorted(CHAIN_FROZEN))
def test_chain_frozen(key):
    code, mode, segments, timing = key
    fidelity, flagged = CHAIN_FROZEN[key]
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, code=code, samples=10,
                      correction_timing=timing)
    s = encoded_chain(cfg, make_rng(1), mode=mode)
    assert abs(s.fidelity - fidelity) < 1e-12
    if flagged is not None:
        trivial = (0,) * len(code_by_name(code).stabilizers)
        assert segments * cfg.samples - s.extra["syndromes"].get(trivial, 0) == flagged


@pytest.mark.parametrize("segments", sorted(ANALYTIC_FROZEN))
def test_ring5_analytic_chain_frozen(segments):
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, code="ring5")
    assert abs(encoded_chain(cfg, mode="analytic").fidelity - ANALYTIC_FROZEN[segments]) < 1e-12


@pytest.mark.parametrize("segments", [1, 2, 3])
@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase", "repetition5"])
def test_logical_channel_composes_to_the_dense_chain(name, segments):
    # one exact logical channel per perfect correction step, composed on
    # one half of a Bell pair, is the dense branch ensemble
    code = code_by_name(name)
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, code=name)
    pair = perfect_pair()
    for seg in range(segments):
        physical = PauliChannel.depolarizing(effective_step_noise(cfg, seg))
        logical = PauliChannel(tuple(code.logical_channel(physical.weights)))
        pair = apply_pauli_channel(pair, "B", logical)
    assert abs(pair.fidelity - encoded_chain_dense(cfg)) < 1e-12


@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase", "repetition5"])
def test_analytic_chain_is_a_lower_bound_on_dense(name):
    # the analytic mode counts only errors up to the correctable weight
    for noise in (NoiseModel(q_channel=0.9), CHAIN_NOISE):
        cfg = ChainConfig(segments=1, noise=noise, code=name)
        analytic = encoded_chain(cfg, mode="analytic")
        assert analytic.fidelity <= encoded_chain(cfg, mode="dense").fidelity
        assert analytic.extra["report"]["direct_fidelity"] == (3 * noise.q_channel + 1) / 4


@pytest.mark.parametrize("timing", ["end", "station"])
@pytest.mark.parametrize("segments", [1, 2])
def test_chain_trajectory_matches_dense(segments, timing):
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, samples=30,
                      correction_timing=timing)
    exact = encoded_chain(cfg, mode="dense").fidelity
    s = encoded_chain(cfg, make_rng(1), mode="trajectory")
    se = math.sqrt(exact * (1 - exact) / cfg.samples)
    assert s.samples == cfg.samples
    assert sum(s.extra["syndromes"].values()) == segments * cfg.samples
    assert abs(s.fidelity - exact) < 4 * se
