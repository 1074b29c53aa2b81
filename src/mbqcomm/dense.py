"""Dense-matrix micro-engine: exact linear algebra on small systems.

State vectors index basis states with qubit 0 as the most significant
bit, matching ``kron(q0, q1, ...)`` ordering. Everything here is exact
linear algebra on <= DENSE_LIMIT qubits. The package uses it in three
places: `StabilizerState.to_dense` projects onto a tableau's generators,
`belldiag.generate_golden_maps` derives the recurrence and swap
coefficient maps from 4-qubit state vectors, and `oracle-check` compares
the stabilizer engine and the noise-moving identity against it
(`DensityMatrix` serves that identity).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .pauli import PauliString

DENSE_LIMIT = 12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
PAULI_MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

_PHASES = np.array([1, 1j, -1, -1j])


class DenseLimitError(ValueError):
    """Raised when an operation exceeds the dense-oracle qubit limit."""


def _check_limit(n: int):
    if n > DENSE_LIMIT:
        raise DenseLimitError(f"{n} qubits exceeds dense limit {DENSE_LIMIT}")


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def basis_state(n: int, index: int = 0) -> np.ndarray:
    _check_limit(n)
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return v


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a phased PauliString (small n only, cached).

    The returned array is shared across calls; treat it as read-only.
    """
    return _pauli_matrix_cached(p)


@lru_cache(maxsize=8192)
def _pauli_matrix_cached(p: PauliString) -> np.ndarray:
    _check_limit(p.n)
    mats = [PAULI_MATS[p.letter(j)] for j in range(p.n)] or [np.eye(1, dtype=complex)]
    sign = _PHASES[(p.phase - p.y_count) % 4]
    out = sign * kron_all(*mats)
    out.setflags(write=False)
    return out


def _index_masks(p: PauliString) -> tuple[int, int]:
    n = p.n
    xm = zm = 0
    for j in range(n):
        if p.x_bit(j):
            xm |= 1 << (n - 1 - j)
        if p.z_bit(j):
            zm |= 1 << (n - 1 - j)
    return xm, zm


def apply_pauli_vec(p: PauliString, v: np.ndarray) -> np.ndarray:
    """Apply a PauliString to a state vector without building its matrix."""
    n = p.n
    if v.shape != (1 << n,):
        raise ValueError("vector length does not match Pauli qubit count")
    xm, zm = _index_masks(p)
    idx = np.arange(1 << n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & zm) & 1)
    out = np.empty_like(v, dtype=complex)
    out[idx ^ xm] = signs * v
    return _PHASES[p.phase % 4] * out


def apply_unitary_vec(v: np.ndarray, u: np.ndarray, targets: list[int]) -> np.ndarray:
    """Apply a 2^k x 2^k unitary on the listed qubits of a state vector."""
    n = int(round(np.log2(v.size)))
    k = len(targets)
    t = v.reshape((2,) * n)
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, t, axes=(list(range(k, 2 * k)), targets))
    # tensordot puts the target axes first; move them back in place
    t = np.moveaxis(t, list(range(k)), targets)
    return t.reshape(-1)


def measure_pauli_vec(v: np.ndarray, p: PauliString) -> list[tuple[float, int, np.ndarray]]:
    """Born decomposition of a +-1 Pauli measurement on a pure state.

    Returns [(probability, outcome, normalized post state), ...] for the
    outcomes with nonzero probability.
    """
    pv = apply_pauli_vec(p, v)
    out = []
    for outcome in (+1, -1):
        branch = (v + outcome * pv) / 2
        prob = float(np.vdot(branch, branch).real)
        if prob > 1e-14:
            out.append((prob, outcome, branch / np.sqrt(prob)))
    return out


def bell_vector(i: int) -> np.ndarray:
    """|phi_i> = (I (x) sigma_i^*) |phi^+> with sigma ordering I,X,Y,Z."""
    phi0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    sigma = [I2, X, Y, Z][i]
    return kron_all(I2, sigma.conj()) @ phi0


def project_bell_vec(v: np.ndarray, a: int, b: int, i: int) -> tuple[float, np.ndarray]:
    """Project qubits (a, b) onto Bell state i and remove them.

    Returns (branch probability, normalized reduced vector on the
    remaining qubits in their original order). Probability may be 0.
    """
    n = int(round(np.log2(v.size)))
    t = v.reshape((2,) * n)
    t = np.moveaxis(t, [a, b], [0, 1]).reshape(4, -1)
    reduced = bell_vector(i).conj() @ t
    prob = float(np.vdot(reduced, reduced).real)
    if prob > 1e-14:
        reduced = reduced / np.sqrt(prob)
    return prob, reduced


def states_equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < tol or nv < tol:
        return nu < tol and nv < tol
    overlap = abs(np.vdot(u, v)) / (nu * nv)
    return abs(overlap - 1.0) < tol


class DensityMatrix:
    """Exact density matrix on up to DENSE_LIMIT qubits."""

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        n = int(round(np.log2(mat.shape[0])))
        _check_limit(n)
        if mat.shape != (1 << n, 1 << n):
            raise ValueError("density matrix must be square with power-of-2 dim")
        self.n = n
        self.mat = mat

    @classmethod
    def from_vec(cls, v: np.ndarray) -> "DensityMatrix":
        return cls(np.outer(v, v.conj()))

    def apply_pauli_channel(self, weights: dict[str, float], qubit: int) -> "DensityMatrix":
        out = np.zeros_like(self.mat)
        for letter, w in weights.items():
            if w == 0.0:
                continue
            p = PauliString.single(self.n, qubit, letter)
            m = pauli_matrix(p)
            out += w * (m @ self.mat @ m.conj().T)
        return DensityMatrix(out)

    def bell_measure(self, a: int, b: int) -> list[tuple[float, int, "DensityMatrix"]]:
        """All four Bell-outcome branches on (a, b), qubits removed."""
        n = self.n
        t = self.mat.reshape((2,) * (2 * n))
        out = []
        for i in range(4):
            bell = bell_vector(i).conj().reshape(2, 2)
            # contract ket side (axes a, b) and bra side (axes n+a, n+b)
            r = np.tensordot(bell, t, axes=([0, 1], [a, b]))
            r = np.tensordot(bell.conj(), r, axes=([0, 1], [n + a - 2, n + b - 2]))
            dim = 1 << (n - 2)
            r = r.reshape(dim, dim)
            prob = float(np.trace(r).real)
            if prob > 1e-14:
                out.append((prob, i, DensityMatrix(r / prob)))
            else:
                out.append((0.0, i, None))
        return out
