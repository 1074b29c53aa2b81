"""Tests for the depolarizing error model, both sampled and exact."""

import itertools
import math

import numpy as np
import pytest

from mbqcomm.noise import (
    NoiseModel,
    NoiseParameterError,
    PauliChannel,
    apply_sampled_noise,
)
from mbqcomm.pauli import PauliString
from mbqcomm.rng import make_rng
from mbqcomm.tableau import StabilizerState
import oracles
from oracles import (
    MoveNoiseReport,
    copy_state,
    density,
    depolarize,
    move_noise_across_bell,
    random_clifford,
    same_state,
    to_dense,
    zero_state,
)


# -- oracle helpers: the sampled noise model on one state, checked below
# against exact channels


def noisy_bell_measure(state: StabilizerState, a: int, b: int, q: float,
                       rng) -> int:
    """Depolarize both measured qubits with parameter q, then Bell-measure."""
    apply_sampled_noise(state, [a, b], q, rng)
    return state.bell_measure(a, b, rng, [])


def noisy_state_trajectory(state: StabilizerState, p: float, rng) -> StabilizerState:
    """One sampled noisy copy of a state: E(p) insertion on every particle."""
    out = copy_state(state)
    apply_sampled_noise(out, list(range(out.n)), p, rng)
    return out


def compose_noise(p1: float, p2: float) -> float:
    """E(p1) o E(p2) = E(p1 * p2)."""
    return p1 * p2


def test_noise_model_validation():
    NoiseModel(0.9, 1.0, 0.5)
    with pytest.raises(NoiseParameterError):
        NoiseModel(p_resource=1.2)
    with pytest.raises(NoiseParameterError):
        NoiseModel(q_meas=-0.1)


def test_noise_model_folding():
    m = NoiseModel(p_resource=0.9, q_meas=0.8, q_channel=0.7)
    f = m.folded()
    assert f.q_meas == 1.0
    assert abs(f.p_resource - 0.9 * 0.64) < 1e-15
    assert f.q_channel == 0.7


def test_apply_sampled_noise_edge_cases():
    # p = 1 inserts nothing; p = 0 inserts each letter with probability
    # 1/4, read off as the Bell index of |phi+> with the letter on one half
    rng = np.random.default_rng(0)
    state = _phi_plus_state()
    for _ in range(50):
        apply_sampled_noise(state, [0], 1.0, rng)
    assert same_state(state, _phi_plus_state())
    counts = {i: 0 for i in range(4)}
    for _ in range(4000):
        s = _phi_plus_state()
        apply_sampled_noise(s, [0], 0.0, rng)
        counts[s.bell_measure(0, 1, None, [])] += 1
    for c in counts.values():
        assert 800 < c < 1200


def test_apply_sampled_noise_rejects_p_above_one():
    state = StabilizerState.bell_pair()
    with pytest.raises(NoiseParameterError):
        apply_sampled_noise(state, [0, 1], 1.5, np.random.default_rng(0))


@pytest.mark.parametrize("p", [0.0, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("qubits", [[], [0, 1, 2, 3, 4], [3, 0, 4, 1]],
                         ids=["none", "all", "unsorted"])
def test_one_draw_per_layer_matches_one_draw_per_qubit(p, qubits):
    # the batched layer draws the same doubles and leaves the same tableau,
    # signs included, as the oracle's per-qubit draws and insertions
    for seed in range(4):
        old = zero_state(5)
        oracles.apply_clifford(old, random_clifford(5, np.random.default_rng(seed)))
        new = copy_state(old)
        rng_old, rng_new = make_rng(seed), make_rng(seed)
        for _ in range(10):
            oracles.apply_sampled_noise_per_qubit(old, qubits, p, rng_old)
            apply_sampled_noise(new, qubits, p, rng_new)
            assert (new.stabs, new.destabs) == (old.stabs, old.destabs)
        assert rng_new.random() == rng_old.random()


def test_apply_sampled_noise_at_p_one_inserts_nothing_and_draws_nothing():
    state, rng = StabilizerState.bell_pair(), np.random.default_rng(4)
    apply_sampled_noise(state, [0, 1], 1.0, rng)
    assert same_state(state, StabilizerState.bell_pair())
    assert rng.random() == np.random.default_rng(4).random()


def test_depolarize_weights():
    ch = PauliChannel.depolarizing(0.8)
    assert np.allclose(ch.weights, (0.85, 0.05, 0.05, 0.05))


def test_sampling_reproduces_exact_channel():
    # average sampled Pauli insertions on a random 2-qubit state vs E(p)
    rng = np.random.default_rng(42)
    n_samples = 100_000
    for p in (0.3, 0.8):
        ch = PauliChannel.depolarizing(p)
        state = zero_state(2)
        oracles.apply_clifford(state, random_clifford(2, rng))
        rho = oracles.DensityMatrix.from_vec(to_dense(state))
        counts = rng.multinomial(n_samples, ch.weights)
        avg = np.zeros_like(rho.mat)
        for k, letter in enumerate("IZXY"):
            m = oracles.pauli_matrix(PauliString.single(2, 0, letter))
            avg += (counts[k] / n_samples) * (m @ rho.mat @ m.conj().T)
        exact = rho.apply_pauli_channel(ch.weights, 0).mat
        tol = 3.0 * 0.5 / np.sqrt(n_samples)
        assert np.max(np.abs(avg - exact)) < tol


def test_compose_noise_values():
    assert compose_noise(1.0, 0.5) == 0.5
    assert abs(compose_noise(0.9, 0.9) - 0.81) < 1e-15


def test_compose_noise_matches_channel_composition():
    # E(p1) o E(p2) = E(p1 p2) on one half of |phi+>: equal Choi states
    # are equal channels
    choi = oracles.DensityMatrix.from_vec(to_dense(StabilizerState.bell_pair()))
    for p1, p2 in [(0.7, 0.6), (1.0, 0.3), (0.0, 0.9), (0.5, 0.5)]:
        lhs = depolarize(depolarize(choi, 0, p2), 0, p1)
        rhs = depolarize(choi, 0, compose_noise(p1, p2))
        assert np.allclose(lhs.mat, rhs.mat, atol=1e-15)


def _phi_plus_state():
    return oracles.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )


def test_noisy_bell_measure_ideal():
    rng = np.random.default_rng(1)
    for _ in range(30):
        s = _phi_plus_state()
        outcome = noisy_bell_measure(s, 0, 1, 1.0, rng)
        assert outcome == 0


def test_noisy_bell_measure_fully_depolarized():
    # q=0: exact channel makes the pair maximally mixed -> uniform outcomes
    rho = oracles.DensityMatrix.from_vec(to_dense(_phi_plus_state()))
    noised = depolarize(depolarize(rho, 0, 0.0), 1, 0.0)
    for prob, _i, _ in noised.bell_measure(0, 1):
        assert abs(prob - 0.25) < 1e-12
    rng = np.random.default_rng(2)
    counts = {i: 0 for i in range(4)}
    for _ in range(2000):
        s = _phi_plus_state()
        outcome = noisy_bell_measure(s, 0, 1, 0.0, rng)
        counts[outcome] += 1
    assert all(c > 400 for c in counts.values())


class _ScriptedUniforms:
    """Stands in for a Generator whose `random(size)` returns scripted doubles."""

    def __init__(self, uniforms):
        self.left = list(uniforms)

    def random(self, size):
        drawn, self.left = self.left[:size], self.left[size:]
        return np.array(drawn)


def _insertion_patterns(p: float, k: int):
    """(probability, uniforms) of each of the 4^k letter patterns of E(p)
    on k qubits. Each uniform is the midpoint of its letter's interval of
    the inverse-cdf draw, so a sampler fed these doubles inserts exactly
    that pattern."""
    w = PauliChannel.depolarizing(p).weights
    edges = np.concatenate([[0.0], np.cumsum(w)])
    mids = (edges[:-1] + edges[1:]) / 2
    for letters in itertools.product(range(4), repeat=k):
        yield math.prod(w[i] for i in letters), [mids[i] for i in letters]


def test_noisy_bell_measure_partial_matches_exact_probability():
    # the sampled insertions weighted over all 4^2 patterns give the exact
    # outcome probability; each pattern's outcome is deterministic on |phi+>
    q = 0.9
    rho = oracles.DensityMatrix.from_vec(to_dense(_phi_plus_state()))
    noised = depolarize(depolarize(rho, 0, q), 1, q)
    exact_p0 = noised.bell_measure(0, 1)[0][0]
    total = p0 = 0.0
    for weight, uniforms in _insertion_patterns(q, 2):
        rng = _ScriptedUniforms(uniforms)
        outcome = noisy_bell_measure(_phi_plus_state(), 0, 1, q, rng)
        assert rng.left == []
        total += weight
        p0 += weight * (outcome == 0)
    assert abs(total - 1.0) < 1e-12
    assert abs(p0 - exact_p0) < 1e-12


def _ghz3():
    gens = [PauliString.from_string(t) for t in ("XXX", "ZZI", "IZZ")]
    return oracles.from_generators(gens)


def test_noisy_resource_ideal_and_fully_mixed():
    rng = np.random.default_rng(4)
    base = _ghz3()
    traj = noisy_state_trajectory(base, 1.0, rng)
    assert same_state(traj, base)
    # p=0: averaging over the uniform Pauli twirl gives I/2^n
    avg = np.zeros((8, 8), dtype=complex)
    for _ in range(6000):
        t = noisy_state_trajectory(base, 0.0, rng)
        v = to_dense(t)
        avg += np.outer(v, v.conj())
    avg /= 6000
    assert np.max(np.abs(avg - np.eye(8) / 8)) < 0.02


def test_noisy_resource_fidelity_matches_insertion_average():
    # exact expectation over all 4^3 Pauli insertion patterns
    p = 0.85
    base = _ghz3()
    ideal = to_dense(base)
    w = PauliChannel.depolarizing(p).weights
    exact = 0.0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                ins = PauliString.from_codes([a, b, c])
                v = oracles.apply_pauli_vec(ins, ideal)
                exact += w[a] * w[b] * w[c] * abs(np.vdot(ideal, v)) ** 2
    # the tableau trajectories, weighted over the same 4^3 patterns
    average = 0.0
    for weight, uniforms in _insertion_patterns(p, 3):
        rng = _ScriptedUniforms(uniforms)
        t = noisy_state_trajectory(base, p, rng)
        assert rng.left == []
        average += weight * abs(np.vdot(ideal, to_dense(t))) ** 2
    assert abs(average - exact) < 1e-12


def test_move_noise_trivially_holds_for_identity():
    rho = oracles.DensityMatrix.from_vec(to_dense(_phi_plus_state()))
    report = move_noise_across_bell(PauliChannel.depolarizing(1.0), rho, 0, 1)
    assert report.holds and report.max_deviation < 1e-15


def test_move_noise_on_random_stabilizer_states():
    rng = np.random.default_rng(6)
    for _ in range(25):
        s = zero_state(3)
        oracles.apply_clifford(s, random_clifford(3, rng))
        rho = oracles.DensityMatrix.from_vec(to_dense(s))
        report = move_noise_across_bell(PauliChannel.depolarizing(0.8), rho, 0, 2)
        assert isinstance(report, MoveNoiseReport)
        assert report.holds, report.counterexample
        assert report.max_deviation < 1e-12


def test_move_noise_on_random_mixed_states_and_channels():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mats = []
        for _ in range(3):
            s = zero_state(3)
            oracles.apply_clifford(s, random_clifford(3, rng))
            v = to_dense(s)
            mats.append(np.outer(v, v.conj()))
        weights = rng.dirichlet(np.ones(3))
        rho = density(sum(w * m for w, m in zip(weights, mats)))
        ch_w = rng.dirichlet(np.ones(4))
        report = move_noise_across_bell(PauliChannel(tuple(ch_w)), rho, 1, 2)
        assert report.holds
        assert report.max_deviation < 1e-12
