"""Tests for Bell-diagonal analytics and the coefficient maps derived
from the recurrence circuit."""

import numpy as np
import pytest

from mbqcomm import belldiag
from mbqcomm.belldiag import (
    BellDiagonalError,
    BellDiagonalState,
    apply_depolarizing,
    apply_pauli_channel,
    perfect_pair,
    recurrence_step,
    recurrence_table,
    shannon_entropy,
    swap_pairs,
    werner,
)
from mbqcomm.catalog import epp_site_resource
from mbqcomm.noise import PauliChannel
from mbqcomm.pauli import PauliString
import oracles
from oracles import BD_SIGMA_ORDER, density, embed_unitary, fidelity_with_vec, partial_trace

# -- oracle helpers: closed forms, checked below


def fidelity_from_noise(p: float) -> float:
    """Fidelity of E_a(p)|phi+>: the map p -> F = (3p + 1)/4."""
    return (3.0 * p + 1.0) / 4.0


def entropy_yield(state: BellDiagonalState) -> float:
    """Asymptotic hashing yield 1 - S(c), clamped at 0."""
    return max(0.0, 1.0 - shannon_entropy(state))


def twirl_werner(state: BellDiagonalState) -> BellDiagonalState:
    """The Werner state of the same fidelity."""
    c = state.as_array()
    r = (1.0 - c[0]) / 3.0
    return BellDiagonalState((c[0], r, r, r))


# -- dense oracle: Bell-diagonal states as density matrices


def bd_to_dense(state: BellDiagonalState) -> oracles.DensityMatrix:
    """The density matrix sum_k c_k |phi_k><phi_k| in the Bell basis."""
    mat = sum(
        c * np.outer(oracles.bell_vector(s), oracles.bell_vector(s).conj())
        for c, s in zip(state.coeffs, BD_SIGMA_ORDER)
    )
    return density(mat)


def bell_coeffs(rho: oracles.DensityMatrix) -> np.ndarray:
    """Diagonal Bell-basis coefficients of a 2-qubit state.

    Ordering is the Bell-diagonal index convention (I, Z, X, Y).
    """
    if rho.n != 2:
        raise ValueError("bell_coeffs requires a 2-qubit state")
    order = [0, 3, 1, 2]  # sigma indices for bd order I,Z,X,Y
    return np.array([fidelity_with_vec(rho, oracles.bell_vector(s)) for s in order])


def apply_unitary(rho: oracles.DensityMatrix, u: np.ndarray,
                  targets: list[int]) -> oracles.DensityMatrix:
    full = embed_unitary(rho.n, u, targets)
    return oracles.DensityMatrix(full @ rho.mat @ full.conj().T)


def measure_pauli(rho: oracles.DensityMatrix,
                  p: PauliString) -> list[tuple[float, int, oracles.DensityMatrix]]:
    """Projective +-1 measurement branches with Born probabilities."""
    m = oracles.pauli_matrix(p)
    eye = np.eye(m.shape[0])
    out = []
    for outcome in (+1, -1):
        proj = (eye + outcome * m) / 2
        sub = proj @ rho.mat @ proj
        prob = float(np.trace(sub).real)
        if prob > 1e-14:
            out.append((prob, outcome, oracles.DensityMatrix(sub / prob)))
    return out


def test_werner_basics():
    assert werner(1.0).coeffs == (1.0, 0.0, 0.0, 0.0)
    assert abs(fidelity_from_noise(1 / 3) - 0.5) < 1e-15
    assert abs(fidelity_from_noise(0.0) - 0.25) < 1e-15
    with pytest.raises(BellDiagonalError):
        werner(1.5)


def test_invalid_coefficients_rejected():
    with pytest.raises(BellDiagonalError):
        BellDiagonalState((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(BellDiagonalError):
        BellDiagonalState((0.5, 0.1, 0.1, 0.1))


def test_apply_depolarizing_identity_and_uniform():
    w = werner(0.8)
    assert apply_depolarizing(w, 1.0).coeffs == w.coeffs
    out = apply_depolarizing(w, 0.0)
    assert np.allclose(out.coeffs, 0.25)


def test_two_sided_equals_one_sided_squared():
    # E_a(q) E_b(q) |phi+> = E_a(q^2) |phi+>
    q = 0.83
    both = apply_depolarizing(apply_depolarizing(perfect_pair(), q), q)
    one = apply_depolarizing(perfect_pair(), q * q)
    assert np.allclose(both.coeffs, one.coeffs, atol=1e-15)


def test_apply_channel_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = rng.dirichlet(np.ones(4))
        state = BellDiagonalState(tuple(c))
        ch = PauliChannel(tuple(rng.dirichlet(np.ones(4))))
        out = apply_pauli_channel(state, ch)
        for qubit in (0, 1):
            rho = bd_to_dense(state).apply_pauli_channel(ch.weights, qubit)
            assert np.allclose(out.as_array(), bell_coeffs(rho), atol=1e-12)


def test_channel_weights_are_the_bell_indices_they_give_a_perfect_pair():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ch = PauliChannel(tuple(rng.dirichlet(np.ones(4))))
        assert apply_pauli_channel(perfect_pair(), ch).coeffs == ch.weights


def test_entropy_yield_extremes():
    assert entropy_yield(perfect_pair()) == 1.0
    assert entropy_yield(BellDiagonalState((0.25,) * 4)) == 0.0


def test_entropy_at_hashing_boundary():
    # F_min ~ 0.8107 is where the Werner entropy crosses one bit
    s = shannon_entropy(werner(0.8107))
    assert abs(s - 1.0) < 1e-3
    assert entropy_yield(werner(0.8107)) < 1e-3
    assert entropy_yield(werner(0.83)) > 0.0


def test_recurrence_noiseless_fixed_point():
    for variant in ("BBPSSW", "DEJMPS"):
        out, p = recurrence_step(perfect_pair(), perfect_pair(), variant)
        assert abs(p - 1.0) < 1e-12
        assert np.allclose(out.coeffs, (1, 0, 0, 0), atol=1e-12)


def test_recurrence_bbpssw_werner_07():
    # frozen from the dense oracle: F' = 25/34, p_success = 17/25
    out, p = recurrence_step(werner(0.7), werner(0.7), "BBPSSW")
    assert abs(out.fidelity - 25 / 34) < 1e-12
    assert abs(p - 0.68) < 1e-12


def test_recurrence_boundary_fixed_point():
    out, _ = recurrence_step(werner(0.5), werner(0.5), "BBPSSW")
    assert abs(out.fidelity - 0.5) < 1e-12


def test_recurrence_monotone_near_boundary():
    for variant in ("BBPSSW", "DEJMPS"):
        for f in (0.52, 0.55, 0.62):
            out, _ = recurrence_step(werner(f), werner(f), variant)
            assert out.fidelity > f, (variant, f)
        for f in (0.40, 0.45, 0.48):
            out, _ = recurrence_step(werner(f), werner(f), variant)
            assert out.fidelity < f, (variant, f)


def test_recurrence_invalid_variant():
    with pytest.raises(BellDiagonalError):
        recurrence_step(perfect_pair(), perfect_pair(), "NOPE")


def test_swap_identities():
    out = swap_pairs(perfect_pair(), perfect_pair())
    assert np.allclose(out.coeffs, (1, 0, 0, 0), atol=1e-15)
    w = werner(0.77)
    assert np.allclose(swap_pairs(w, perfect_pair()).coeffs, w.coeffs, atol=1e-15)
    assert np.allclose(swap_pairs(perfect_pair(), w).coeffs, w.coeffs, atol=1e-15)


def test_swap_werner_09():
    # frozen from the dense oracle: F = 0.81 + 0.01/3 = 61/75
    out = swap_pairs(werner(0.9), werner(0.9))
    assert abs(out.fidelity - 61 / 75) < 1e-12


def test_swap_fidelity_never_exceeds_min_for_werner():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f1, f2 = rng.uniform(0.25, 1.0, size=2)
        out = swap_pairs(werner(f1), werner(f2))
        assert out.fidelity <= min(f1, f2) + 1e-12


def test_recurrence_tables_are_the_catalog_round():
    # the tables conjugate the errors through one site's circuit; the
    # stabilizer engine's two site resources must keep and output the same.
    # The derived tensors are exact (0/1 and the twirl's thirds); the
    # 4-qubit state-vector oracle rounds to within 1.2e-15 of them.
    dense_maps = oracles.dense_coefficient_maps()
    for variant in ("DEJMPS", "BBPSSW"):
        keep, out = recurrence_table(variant)
        pairs = np.array([np.arange(16) >> 2, np.arange(16) & 3], dtype=np.uint8)
        out_a, read_a = epp_site_resource(1, "A", variant).byproduct(np.zeros_like(pairs))
        out_b, read_b = epp_site_resource(1, "B", variant).byproduct(pairs)
        frame_keep = (read_a == read_b).all(axis=0)
        assert np.array_equal(frame_keep, keep), variant
        assert np.array_equal((out_a[0] ^ out_b[0])[keep], out[keep]), variant
        tensor = belldiag._recurrence_tensor(variant)
        assert np.max(np.abs(tensor - dense_maps[f"recurrence_{variant.lower()}"])) < 1e-14
    assert np.max(np.abs(belldiag._SWAP_TENSOR - dense_maps["swap"])) < 1e-14


def _dense_recurrence_reference(rho1, rho2, variant):
    """Mixed-state dense reference for one 2->1 round (test-local oracle)."""
    mat = np.kron(bd_to_dense(rho1).mat, bd_to_dense(rho2).mat)
    dm = density(mat)
    if variant == "BBPSSW":
        t1 = twirl_werner(rho1)
        t2 = twirl_werner(rho2)
        dm = density(np.kron(bd_to_dense(t1).mat, bd_to_dense(t2).mat))
    else:
        minus = (oracles.I2 - 1j * oracles.X) / np.sqrt(2)
        plus = (oracles.I2 + 1j * oracles.X) / np.sqrt(2)
        for q, u in ((0, minus), (1, plus), (2, minus), (3, plus)):
            dm = apply_unitary(dm, u, [q])
    dm = apply_unitary(apply_unitary(dm, oracles.CNOT, [0, 2]), oracles.CNOT, [1, 3])
    za = PauliString.single(4, 2, "Z")
    zb = PauliString.single(4, 3, "Z")
    total = np.zeros(4)
    p_succ = 0.0
    for pa, oa, da in measure_pauli(dm, za):
        for pb, ob, db in measure_pauli(da, zb):
            if oa != ob:
                continue
            reduced = partial_trace(db, [0, 1])
            coeffs = bell_coeffs(reduced)
            if variant == "BBPSSW":
                r = (1.0 - coeffs[0]) / 3.0
                coeffs = np.array([coeffs[0], r, r, r])
            total += pa * pb * coeffs
            p_succ += pa * pb
    return total / p_succ, p_succ


def test_recurrence_matches_dense_reference_on_random_states():
    rng = np.random.default_rng(10)
    for variant in ("BBPSSW", "DEJMPS"):
        for _ in range(6):
            c1 = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
            c2 = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
            got, p_got = recurrence_step(c1, c2, variant)
            want, p_want = _dense_recurrence_reference(c1, c2, variant)
            assert abs(p_got - p_want) < 1e-12
            assert np.allclose(got.as_array(), want, atol=1e-12)


def test_swap_matches_dense_reference_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(8):
        c1 = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
        c2 = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
        got = swap_pairs(c1, c2)
        dm = density(np.kron(bd_to_dense(c1).mat, bd_to_dense(c2).mat))
        total = np.zeros(4)
        for prob, m, branch in dm.bell_measure(1, 2):
            if branch is None:
                continue
            sigma = oracles.PAULI_MATS["IXYZ"[m]]
            corrected = apply_unitary(branch, sigma, [1])
            total += prob * bell_coeffs(corrected)
        assert np.allclose(got.as_array(), total, atol=1e-12)


def test_normalization_preserved():
    rng = np.random.default_rng(12)
    for _ in range(30):
        c1 = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
        c2 = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
        out, _p = recurrence_step(c1, c2, "DEJMPS")
        assert abs(sum(out.coeffs) - 1.0) < 1e-12
        out2 = swap_pairs(c1, c2)
        assert abs(sum(out2.coeffs) - 1.0) < 1e-12
        out3 = apply_depolarizing(c1, float(rng.uniform()))
        assert abs(sum(out3.coeffs) - 1.0) < 1e-12


def test_bd_dense_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        c = BellDiagonalState(tuple(rng.dirichlet(np.ones(4))))
        assert np.allclose(bell_coeffs(bd_to_dense(c)), c.as_array(), atol=1e-12)
    assert BD_SIGMA_ORDER == (0, 3, 1, 2)
