"""Exact two-party analytics on Bell-diagonal states.

Coefficients are indexed in the order (I, Z, X, Y), i.e. by the Pauli
that turns |phi+> into the basis state, so that index arithmetic under
entanglement swapping is XOR on (bit-flip, phase-flip) bits and c[0] is
the fidelity.

The 2->1 recurrence and swap coefficient maps are not hand-written:
they are generated from the dense 4-qubit oracle, frozen into a golden
file shipped with the package, and re-derived on demand by the
oracle-check command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources as importlib_resources

import numpy as np

from . import dense
from .noise import PauliChannel

BD_SIGMA_ORDER = (0, 3, 1, 2)  # sigma index (I,X,Y,Z numbering) per bd index

_MAP_NAMES = ("swap", "recurrence_bbpssw", "recurrence_dejmps")

_golden_cache: dict[str, np.ndarray] | None = None


class BellDiagonalError(ValueError):
    """Raised for invalid Bell-diagonal coefficient vectors."""


@dataclass(frozen=True)
class BellDiagonalState:
    """Two-qubit state diagonal in the Bell basis: four probabilities."""

    coeffs: tuple[float, float, float, float]

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4,):
            raise BellDiagonalError("need exactly four coefficients")
        if np.any(c < -1e-12) or abs(c.sum() - 1.0) > 1e-9:
            raise BellDiagonalError("coefficients must form a distribution")
        object.__setattr__(self, "coeffs", tuple(float(x) for x in np.clip(c, 0.0, 1.0)))

    @property
    def fidelity(self) -> float:
        return self.coeffs[0]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs)


def perfect_pair() -> BellDiagonalState:
    return BellDiagonalState((1.0, 0.0, 0.0, 0.0))


def werner(fidelity: float) -> BellDiagonalState:
    if not 0.0 <= fidelity <= 1.0:
        raise BellDiagonalError("fidelity must be in [0, 1]")
    r = (1.0 - fidelity) / 3.0
    return BellDiagonalState((fidelity, r, r, r))


def apply_pauli_channel(state: BellDiagonalState, side: str,
                        channel: PauliChannel) -> BellDiagonalState:
    """Exact action of a one-sided Pauli channel: XOR convolution."""
    if side not in ("A", "B"):
        raise BellDiagonalError("side must be 'A' or 'B'")
    w = channel.bd_weights()
    c = state.as_array()
    out = np.zeros(4)
    for k in range(4):
        for e in range(4):
            out[k] += w[e] * c[k ^ e]
    return BellDiagonalState(tuple(out))


def apply_depolarizing(state: BellDiagonalState, side: str, p: float) -> BellDiagonalState:
    return apply_pauli_channel(state, side, PauliChannel.depolarizing(p))


def shannon_entropy(state: BellDiagonalState) -> float:
    """Shannon entropy (bits) of the coefficient vector."""
    return -sum(c * math.log2(c) for c in state.coeffs if c > 0.0)


# -- golden coefficient maps ---------------------------------------------


def _bell_pair_vec(bd_index: int) -> np.ndarray:
    return dense.bell_vector(BD_SIGMA_ORDER[bd_index])


def _dejmps_rotations(v: np.ndarray) -> np.ndarray:
    minus = (dense.I2 - 1j * dense.X) / np.sqrt(2)
    plus = (dense.I2 + 1j * dense.X) / np.sqrt(2)
    for q, u in ((0, minus), (1, plus), (2, minus), (3, plus)):
        v = dense.apply_unitary_vec(v, u, [q])
    return v


def _recurrence_branches(i: int, j: int, rotate: bool) -> np.ndarray:
    """Unnormalized output bd coefficients of one 2->1 step on basis inputs.

    Qubits are (A1, B1, A2, B2); pair 2 is the measured target. Kept
    branches are the two with equal Z outcomes at A2 and B2.
    """
    v = np.kron(_bell_pair_vec(i), _bell_pair_vec(j))
    if rotate:
        v = _dejmps_rotations(v)
    v = dense.apply_unitary_vec(v, dense.CNOT, [0, 2])
    v = dense.apply_unitary_vec(v, dense.CNOT, [1, 3])
    out = np.zeros(4)
    from .pauli import PauliString

    za = PauliString.single(4, 2, "Z")
    zb = PauliString.single(4, 3, "Z")
    for pa, oa, va in dense.measure_pauli_vec(v, za):
        for pb, ob, vb in dense.measure_pauli_vec(va, zb):
            if oa != ob:
                continue
            t = vb.reshape(2, 2, 2, 2)
            reduced = t[:, :, (1 - oa) // 2, (1 - ob) // 2].reshape(-1)
            norm = np.linalg.norm(reduced)
            if norm < 1e-12:
                continue
            reduced = reduced / norm
            for k in range(4):
                amp = np.vdot(_bell_pair_vec(k), reduced)
                out[k] += pa * pb * float(np.abs(amp) ** 2)
    return out


def _swap_branches(i: int, j: int) -> np.ndarray:
    """Output bd coefficients of entanglement swapping on basis inputs.

    Pairs are (q0, q1) and (q2, q3); the Bell measurement joins (q1, q2)
    and the byproduct correction sigma_m is applied to q3.
    """
    v = np.kron(_bell_pair_vec(i), _bell_pair_vec(j))
    out = np.zeros(4)
    for m in range(4):
        prob, reduced = dense.project_bell_vec(v, 1, 2, m)
        if prob < 1e-14:
            continue
        sigma = dense.PAULI_MATS["IXYZ"[m]]
        corrected = dense.apply_unitary_vec(reduced, sigma, [1])
        for k in range(4):
            amp = np.vdot(_bell_pair_vec(k), corrected)
            out[k] += prob * float(np.abs(amp) ** 2)
    return out


def _werner_twirl_matrix() -> np.ndarray:
    t = np.full((4, 4), 0.0)
    t[0, 0] = 1.0
    t[1:, 1:] = 1.0 / 3.0
    return t


def generate_golden_maps() -> dict[str, np.ndarray]:
    """Re-derive all coefficient tensors from the dense oracle."""
    swap = np.zeros((4, 4, 4))
    plain = np.zeros((4, 4, 4))
    dejmps = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            swap[:, i, j] = _swap_branches(i, j)
            plain[:, i, j] = _recurrence_branches(i, j, rotate=False)
            dejmps[:, i, j] = _recurrence_branches(i, j, rotate=True)
    t = _werner_twirl_matrix()
    # BBPSSW = output twirl o plain circuit o (input twirl (x) input twirl)
    bbpssw = np.einsum("kl,lab,ai,bj->kij", t, plain, t, t)
    return {"swap": swap, "recurrence_bbpssw": bbpssw, "recurrence_dejmps": dejmps}


def parse_golden_text(text: str) -> dict[str, np.ndarray]:
    maps: dict[str, np.ndarray] = {}
    current: np.ndarray | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("map "):
            name = line.split(None, 1)[1]
            current = np.zeros((4, 4, 4))
            maps[name] = current
            continue
        if current is None:
            raise BellDiagonalError("golden file entry before any map header")
        k, i, j, frac = line.split()
        num, den = frac.split("/")
        current[int(k), int(i), int(j)] = float(Fraction(int(num), int(den)))
    missing = [n for n in _MAP_NAMES if n not in maps]
    if missing:
        raise BellDiagonalError(f"golden file is missing maps: {missing}")
    return maps


def load_golden_maps(refresh: bool = False) -> dict[str, np.ndarray]:
    global _golden_cache
    if _golden_cache is None or refresh:
        text = (
            importlib_resources.files("mbqcomm")
            .joinpath("data/golden_maps.txt")
            .read_text()
        )
        _golden_cache = parse_golden_text(text)
    return _golden_cache


# -- the public coefficient maps ------------------------------------------

RECURRENCE_VARIANTS = ("BBPSSW", "DEJMPS")


def recurrence_step(rho1: BellDiagonalState, rho2: BellDiagonalState,
                    variant: str = "DEJMPS") -> tuple[BellDiagonalState, float]:
    """One probabilistic 2->1 purification round.

    Returns (post-selected output state, success probability). The
    coefficient map is the golden tensor frozen from the dense oracle.
    """
    if variant.upper() not in RECURRENCE_VARIANTS:
        raise BellDiagonalError(f"unknown recurrence variant {variant!r}")
    tensor = load_golden_maps()[f"recurrence_{variant.lower()}"]
    out = np.einsum("kij,i,j->k", tensor, rho1.as_array(), rho2.as_array())
    p_success = float(out.sum())
    if p_success < 1e-15:
        raise BellDiagonalError("success probability is zero for this input")
    return BellDiagonalState(tuple(out / p_success)), p_success


def swap_pairs(rho1: BellDiagonalState, rho2: BellDiagonalState) -> BellDiagonalState:
    """Entanglement swapping with byproduct correction (deterministic)."""
    tensor = load_golden_maps()["swap"]
    out = np.einsum("kij,i,j->k", tensor, rho1.as_array(), rho2.as_array())
    return BellDiagonalState(tuple(out))
