"""Tests of encoded transmission: the syndrome/frame rule shared by the
stations and the dense chain, frozen chain values, and stabilizer
trajectories against the exact branch-ensemble (dense) evaluation."""

import math

import pytest

from mbqcomm.catalog import code_by_name
from mbqcomm.codes import all_single_qubit_errors
from mbqcomm.netsim import ChainConfig, encoded_chain
from mbqcomm.noise import NoiseModel
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
