"""Tests of encoded transmission: the stations' syndrome/frame rule, one
shot or many, frozen chain values, the deferred corrections against
corrections applied at each station, the composed logical channel
(dense) against a density-matrix branch ensemble, and stabilizer
trajectories against the dense chain."""

import math
from collections import Counter

import numpy as np
import pytest

from mbqcomm.catalog import code_by_name, code_correct, code_decode_syndrome
from mbqcomm.codes import CodeSpec
from mbqcomm.netsim import (
    ChainConfig,
    ChainError,
    corrected,
    effective_step_noise,
    encoded_chain,
    encoded_shot,
    enumerate_single_errors,
)
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import PauliString
from mbqcomm.protocols import station_reading
from mbqcomm.rng import make_rng
import oracles
from oracles import (
    all_single_qubit_errors,
    at_station_shot,
    correction_for,
    depolarize,
    embed_unitary,
    fidelity_with_vec,
    logical_flips,
    single_and_double_errors,
    syndrome_of,
    to_dense,
)

CHAIN_NOISE = NoiseModel(0.98, 0.99, 0.9)

# fidelity at CHAIN_NOISE before the chain shared one shot body, and for
# trajectories (10 shots at seed 1 of the PCG64DXSM stream) the stations' non-trivial syndromes.
# "end" is the package's chain, which defers every correction; "station"
# applies each correction where it is found: the branch ensemble
# (dense) or the at-station shot of the oracles (trajectory)
CHAIN_FROZEN = {
    ("ring5", "dense", 1, "end"): (0.8990951221413057, None),
    ("ring5", "dense", 2, "end"): (0.811765970116841, None),
    ("ring5", "dense", 2, "station"): (0.8117659701168409, None),
    ("ring5", "trajectory", 3, "end"): (0.9, 10),
    ("ring5", "trajectory", 3, "station"): (0.9, 10),
    ("repetition3", "trajectory", 3, "station"): (0.5, 6),
}

# the paper's ring-5 bound at CHAIN_NOISE, as reported before one logical
# channel served every code
ANALYTIC_FROZEN = {1: 0.8962128276627241, 2: 0.8067880248478049, 3: 0.7297380852608575}


@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase", "repetition5"])
def test_estimate_removes_the_pending_frame(name):
    # a station reads the syndrome bits of its outcome codes XOR the
    # pending frame; the frame's own syndrome drops out because the bits
    # the table reads for any Pauli on the block are its code syndrome.
    # Read as one batch, every error gets its one-shot reading
    code = code_by_name(name)
    errors = [PauliString.identity(code.n)] + single_and_double_errors(code.n)
    batch = np.array([error.codes() for error in errors], dtype=np.uint8).T
    for spec in (code_correct(code), code_decode_syndrome(code)):
        shots = []
        for error in errors:
            codes = np.array(error.codes(), dtype=np.uint8)
            assert tuple(spec.byproduct(codes)[1]) == syndrome_of(code, error)
            syndrome, correctable, frame = station_reading(code, spec, codes)
            assert tuple(syndrome) == syndrome_of(code, error)
            estimate = correction_for(code, tuple(syndrome))
            assert correctable == (estimate.weight <= code.correctable_weight)
            fixed = error * estimate
            assert list(frame) == list(spec.byproduct(np.array(fixed.codes(), dtype=np.uint8))[0])
            shots.append((syndrome, correctable, frame))
        for want, got in zip(zip(*shots), station_reading(code, spec, batch)):
            assert np.array_equal(np.stack(want, axis=-1), got)


def at_station_chain(cfg: ChainConfig, rng) -> tuple[float, Counter]:
    """Fidelity and station syndrome histogram of the trajectory chain
    run by the at-station oracle."""
    code = code_by_name(cfg.code)
    q_channel = [cfg.channel_for(seg) for seg in range(cfg.segments)]
    good, syndromes = 0, Counter()
    for _ in range(cfg.samples):
        ok, stations = at_station_shot(code, cfg.noise, rng, q_channel)
        good += ok
        syndromes.update(syndrome for syndrome, _ in stations)
    return good / cfg.samples, syndromes


@pytest.mark.parametrize("name", ["ring5", "repetition2", "repetition3", "repetition3-phase",
                                  "repetition4", "repetition5"])
def test_enumerated_errors_are_the_oracle_filter(name):
    # the single errors that `qec --enumerate-errors` injects, filtered on
    # letter arrays, are those the PauliString reading says the lookup
    # undoes; with none (repetition2 corrects weight 0) it raises
    code = code_by_name(name)
    errors = [e for e in all_single_qubit_errors(code.n)
              if e.weight <= code.correctable_weight
              and logical_flips(code, e * correction_for(code, syndrome_of(code, e))) == (0, 0)]
    if not errors:
        with pytest.raises(ChainError, match=f"code {name} corrects no single-qubit error"):
            enumerate_single_errors(code)
        return
    ok = corrected(code, np.array([e.codes() for e in errors], dtype=np.uint8).T)
    assert enumerate_single_errors(code) == (int(ok.sum()), len(errors))


@pytest.mark.parametrize("key", sorted(CHAIN_FROZEN))
def test_chain_frozen(key):
    code, mode, segments, timing = key
    fidelity, flagged = CHAIN_FROZEN[key]
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, code=code, samples=10)
    if timing == "end":
        s = encoded_chain(cfg, make_rng(1), mode=mode)
        got, syndromes = s.fidelity, s.extra.get("syndromes")
    elif mode == "dense":
        got, syndromes = _branch_ensemble_fidelity(cfg, timing), None
    else:
        got, syndromes = at_station_chain(cfg, make_rng(1))
    assert abs(got - fidelity) < 1e-12
    if flagged is not None:
        trivial = (0,) * len(code_by_name(code).stabilizers)
        assert segments * cfg.samples - syndromes.get(trivial, 0) == flagged


@pytest.mark.parametrize("seed", [1, 99])
@pytest.mark.parametrize("segments", [1, 2])
@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase"])
def test_corrections_at_each_station_give_the_deferred_shots(name, segments, seed):
    # every operation is Clifford, so applying each correction where it is
    # found takes the same draws and delivers the same pair as deferring
    # all of them into the frame, shot by shot
    code = code_by_name(name)
    noise = NoiseModel(0.95, 0.97, 0.85)
    deferred_rng, at_station_rng = make_rng(seed), make_rng(seed)
    outcomes = set()
    for _ in range(12):
        ok, stations = encoded_shot(code, noise, deferred_rng, [0.85] * segments)
        want_ok, want = at_station_shot(code, noise, at_station_rng, [0.85] * segments)
        assert ok == want_ok
        assert stations == want  # each station's syndrome and correctable flag
        outcomes.add((bool(ok), any(any(syndrome) for syndrome, _ in stations)))
    assert len(outcomes) > 1


@pytest.mark.parametrize("segments", sorted(ANALYTIC_FROZEN))
def test_ring5_analytic_chain_frozen(segments):
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, code="ring5")
    assert abs(encoded_chain(cfg, mode="analytic").fidelity - ANALYTIC_FROZEN[segments]) < 1e-12


def apply_pauli(rho: oracles.DensityMatrix, p: PauliString) -> oracles.DensityMatrix:
    m = oracles.pauli_matrix(p)
    return oracles.DensityMatrix(m @ rho.mat @ m.conj().T)


def _syndrome_projector_branches(code: CodeSpec, dm: oracles.DensityMatrix,
                                 gen_mats: list[np.ndarray]):
    """Exact syndrome measurement branches on the block qubits.

    Splits one generator at a time so partial projections are shared
    across the syndrome tree.
    """
    out = []

    def split(mat: np.ndarray, bits: tuple[int, ...]):
        if len(bits) == len(gen_mats):
            prob = float(np.trace(mat).real)
            if prob > 1e-14:
                out.append(
                    (prob, bits, oracles.DensityMatrix(mat / prob))
                )
            return
        gm = gen_mats[len(bits)]
        grho = gm @ mat
        rhog = mat @ gm
        grhog = grho @ gm
        split((mat + grho + rhog + grhog) / 4.0, bits + (0,))
        split((mat - grho - rhog + grhog) / 4.0, bits + (1,))

    split(dm.mat, ())
    return out


def _branch_ensemble_fidelity(cfg: ChainConfig, timing: str) -> float:
    """Delivered fidelity by exact branch-ensemble evolution.

    The host is a reference qubit plus the encoded block; each segment
    applies the folded per-step noise and a perfect syndrome projection
    (valid by the tested resource channel identities). Corrections are
    applied at each station (`timing` "station") or tracked and applied
    at the end ("end").
    """
    code = code_by_name(cfg.code)
    n = code.n
    gens = [g.embed(n + 1, list(range(1, n + 1))) for g in code.stabilizers]
    gens.append(
        PauliString.single(n + 1, 0, "X")
        * code.logical_x.embed(n + 1, list(range(1, n + 1)))
    )
    gens.append(
        PauliString.single(n + 1, 0, "Z")
        * code.logical_z.embed(n + 1, list(range(1, n + 1)))
    )
    ideal_vec = to_dense(oracles.from_generators(gens))
    block = list(range(1, n + 1))
    gen_mats = [
        embed_unitary(n + 1, oracles.pauli_matrix(g), block)
        for g in code.stabilizers
    ]
    start = oracles.DensityMatrix.from_vec(ideal_vec)
    branches = [(1.0, start, PauliString.identity(n))]
    for seg in range(cfg.segments):
        p_tilde = effective_step_noise(cfg, seg)
        nxt = []
        for prob, dm, frame in branches:
            for q in block:
                dm = depolarize(dm, q, p_tilde)
            for bprob, raw_bits, bdm in _syndrome_projector_branches(code, dm, gen_mats):
                syndrome = tuple(a ^ b for a, b in zip(raw_bits, syndrome_of(code, frame)))
                est = correction_for(code, syndrome)
                if timing == "station":
                    bdm = apply_pauli(bdm, est.embed(n + 1, block))
                    new_frame = frame
                else:
                    new_frame = (frame * est).unsigned()
                nxt.append((prob * bprob, bdm, new_frame))
        branches = nxt
    fid = 0.0
    for prob, dm, frame in branches:
        if timing == "end" and not frame.is_identity:
            dm = apply_pauli(dm, frame.embed(n + 1, block))
        fid += prob * fidelity_with_vec(dm, ideal_vec)
    return fid


@pytest.mark.parametrize("segments", [1, 2, 3])
@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase", "repetition5"])
def test_logical_channel_composes_to_the_dense_chain(name, segments):
    # the dense chain composes one exact logical channel per perfect
    # correction step; the density-matrix branch ensemble, at either
    # correction timing, is its reference
    exact = encoded_chain(ChainConfig(segments=segments, noise=CHAIN_NOISE, code=name),
                          mode="dense").fidelity
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, code=name)
    for timing in ("end", "station"):
        assert abs(exact - _branch_ensemble_fidelity(cfg, timing)) < 1e-12


def test_dense_chain_reaches_codes_beyond_the_branch_ensemble():
    # frozen from the branch-ensemble oracle, too slow to run for this code
    cfg = ChainConfig(segments=2, noise=NoiseModel(q_channel=0.9), code="repetition7")
    assert abs(encoded_chain(cfg, mode="dense").fidelity - 0.6141904216222696) < 1e-12


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
    # "end" is the package's chain; "station" the at-station oracle
    cfg = ChainConfig(segments=segments, noise=CHAIN_NOISE, samples=30)
    exact = encoded_chain(cfg, mode="dense").fidelity
    if timing == "end":
        s = encoded_chain(cfg, make_rng(1), mode="trajectory")
        assert s.samples == cfg.samples
        fidelity, syndromes = s.fidelity, s.extra["syndromes"]
    else:
        fidelity, syndromes = at_station_chain(cfg, make_rng(1))
    se = math.sqrt(exact * (1 - exact) / cfg.samples)
    assert sum(syndromes.values()) == segments * cfg.samples
    assert abs(fidelity - exact) < 4 * se
