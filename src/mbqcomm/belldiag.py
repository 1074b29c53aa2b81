"""Exact two-party analytics on Bell-diagonal states.

Coefficients are indexed in the order (I, Z, X, Y), i.e. by the Pauli
that turns |phi+> into the basis state, coded 2x + z by its bit-flip
and phase-flip bits, so that index arithmetic under entanglement
swapping is XOR on those bits and c[0] is the fidelity.

One recurrence round is defined once, as the local circuit of
`epp_site_circuit`: the catalog builds the stabilizer engine's
resources from it, and `recurrence_table` conjugates the Pauli errors of
two pairs through it to get the round's keep flags and output indices,
which the analytic maps and the index sampler both read. Nothing here is
frozen from a simulation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import Frozen
from .noise import PauliChannel
from .pauli import PauliString, circuit_map


class BellDiagonalError(ValueError):
    """Raised for invalid Bell-diagonal states or recurrence parameters."""


class BellDiagonalState(Frozen):
    """Two-qubit state diagonal in the Bell basis: four probabilities."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, float, float, float]):
        c = np.asarray(coeffs, dtype=float)
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


def apply_pauli_channel(state: BellDiagonalState, channel: PauliChannel) -> BellDiagonalState:
    """Exact action of a Pauli channel on one half: XOR convolution of
    the coefficients with `channel.weights`, which share their letter
    order. A Pauli on either half of |phi+> gives the same Bell index,
    so the half need not be named."""
    w = channel.weights
    c = state.as_array()
    out = np.zeros(4)
    for k in range(4):
        for e in range(4):
            out[k] += w[e] * c[k ^ e]
    return BellDiagonalState(tuple(out))


def apply_depolarizing(state: BellDiagonalState, p: float) -> BellDiagonalState:
    return apply_pauli_channel(state, PauliChannel.depolarizing(p))


def shannon_entropy(state: BellDiagonalState) -> float:
    """Shannon entropy (bits) of the coefficient vector."""
    return -sum(c * math.log2(c) for c in state.coeffs if c > 0.0)




# -- the recurrence round and the coefficient maps ---------------------------

RECURRENCE_VARIANTS = ("DEJMPS", "BBPSSW")


def epp_site_circuit(rounds: int, role: str, variant: str = "DEJMPS"):
    """Local circuit of one party for `rounds` merged recurrence rounds.

    Wires are pair slots (2^rounds of them); each round rotates the
    active wires (DEJMPS only), then folds the upper half of every block
    into its lower half with CNOTs. Returns (gates, target wires).
    """
    if rounds < 1:
        raise BellDiagonalError("need at least one purification round")
    if role not in ("A", "B"):
        raise BellDiagonalError("role must be 'A' or 'B'")
    if variant.upper() not in RECURRENCE_VARIANTS:
        raise BellDiagonalError(f"unknown recurrence variant {variant!r}")
    n = 1 << rounds
    rot = "SQX" if role == "A" else "SQXDG"
    gates = []
    targets = []
    active = list(range(n))
    for r in range(1, rounds + 1):
        if variant.upper() == "DEJMPS":
            gates.extend((rot, w) for w in active)
        step = 1 << r
        half = 1 << (r - 1)
        new_active = []
        for j in range(0, n, step):
            src, tgt = j, j + half
            gates.append(("CNOT", src, tgt))
            targets.append(tgt)
            new_active.append(src)
        active = new_active
    return gates, targets


@lru_cache(maxsize=None)
def recurrence_table(variant: str) -> tuple[np.ndarray, np.ndarray]:
    """16-entry (keep, out_index) tables of one recurrence round.

    Entry (i << 2) | j holds the round on source index i and target
    index j. A pair with Bell index 2x + z is |phi+> with the error
    X^x Z^z on B's half; A's circuit is the complex conjugate of B's, so
    the errors of both pairs travel through B's circuit alone. The round
    keeps the pair when no X reaches the measured target wire, and the
    letter left on the source wire is the output index.
    """
    circuit = circuit_map(2, epp_site_circuit(1, "B", variant)[0])
    keep = np.zeros(16, dtype=bool)
    out = np.zeros(16, dtype=np.uint8)
    for code in range(16):
        i, j = code >> 2, code & 3
        # signs play no part: only the letters of the image are read
        error = circuit.conjugate(PauliString.from_codes([i, j]))
        keep[code] = not error.x_bit(1)
        out[code] = error.codes()[0]
    keep.setflags(write=False)  # cached: every caller shares these arrays
    out.setflags(write=False)
    return keep, out


@lru_cache(maxsize=None)
def _recurrence_tensor(variant: str) -> np.ndarray:
    """Coefficient map [out, source, target] of one round, unnormalized.

    DEJMPS is its table as a one-hot tensor; BBPSSW twirls both inputs
    and the output to Werner form around the plain CNOT round.
    """
    keep, out = recurrence_table(variant)
    tensor = np.zeros((4, 16))
    tensor[out[keep], np.flatnonzero(keep)] = 1.0
    tensor = tensor.reshape(4, 4, 4)
    if variant == "BBPSSW":
        twirl = np.zeros((4, 4))
        twirl[0, 0] = 1.0
        twirl[1:, 1:] = 1.0 / 3.0
        # output twirl o plain round o (input twirl (x) input twirl)
        tensor = np.einsum("kl,lab,ai,bj->kij", twirl, tensor, twirl, twirl)
    tensor.setflags(write=False)
    return tensor


# Entanglement swapping with the byproduct corrected: the Bell indices XOR.
_SWAP_TENSOR = (np.arange(4)[:, None, None] == np.arange(4)[:, None] ^ np.arange(4)).astype(float)


def recurrence_step(rho1: BellDiagonalState, rho2: BellDiagonalState,
                    variant: str = "DEJMPS") -> tuple[BellDiagonalState, float]:
    """One probabilistic 2->1 purification round.

    Returns (post-selected output state, success probability). The
    coefficient map is derived from the round's circuit
    (`recurrence_table`).
    """
    tensor = _recurrence_tensor(variant.upper())
    out = np.einsum("kij,i,j->k", tensor, rho1.as_array(), rho2.as_array())
    p_success = float(out.sum())
    if p_success < 1e-15:
        raise BellDiagonalError("success probability is zero for this input")
    return BellDiagonalState(tuple(out / p_success)), p_success


def swap_pairs(rho1: BellDiagonalState, rho2: BellDiagonalState) -> BellDiagonalState:
    """Entanglement swapping with byproduct correction (deterministic)."""
    out = np.einsum("kij,i,j->k", _SWAP_TENSOR, rho1.as_array(), rho2.as_array())
    return BellDiagonalState(tuple(out))
