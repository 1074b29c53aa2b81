"""The error model: per-particle depolarizing noise, noisy Bell
measurements and noisy resource states, in two forms that are kept
interchangeable by tests: trajectory sampling (Pauli insertion on
stabilizer states) and exact Pauli channels (`PauliChannel`, which the
Bell-diagonal maps apply).

A one-qubit Pauli is coded by its letter code 2x + z (I, Z, X, Y = 0, 1,
2, 3), as everywhere in the package: channel weights, Bell indices and
frame letters are indexed alike, and letters multiply by XOR.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from . import Frozen
from .pauli import PauliString
from .rng import _cut_points
from .tableau import StabilizerState


class NoiseParameterError(ValueError):
    """Raised for noise parameters outside [0, 1]."""


def _check_prob(value: float, name: str):
    if not 0.0 <= value <= 1.0:
        raise NoiseParameterError(f"{name} must be in [0, 1], got {value}")


def _depolarizing_weights(p: float) -> tuple[float, float, float, float]:
    """Weights of E(p), identity first: keep with probability p, else
    uniform. The three Paulis weigh alike, so any letter order reads them."""
    _check_prob(p, "p")
    r = (1.0 - p) / 4.0
    return (p + r, r, r, r)


class NoiseModel(Frozen):
    """Error parameters of the simulation, equal to another with the same
    parameters.

    p_resource: per-particle depolarizing parameter of resource states.
    q_meas: per-qubit depolarizing parameter of Bell measurements.
    q_channel: per-transmission/storage depolarizing parameter.

    All parameters are "keep" probabilities: 1.0 means noiseless.
    """

    __slots__ = ("p_resource", "q_meas", "q_channel")

    def __init__(self, p_resource: float = 1.0, q_meas: float = 1.0, q_channel: float = 1.0):
        _check_prob(p_resource, "p_resource")
        _check_prob(q_meas, "q_meas")
        _check_prob(q_channel, "q_channel")
        self._fill(p_resource, q_meas, q_channel)

    def __eq__(self, other):
        if other.__class__ is not NoiseModel:
            return NotImplemented
        return ((self.p_resource, self.q_meas, self.q_channel)
                == (other.p_resource, other.q_meas, other.q_channel))

    def __hash__(self) -> int:
        return hash((self.p_resource, self.q_meas, self.q_channel))

    def folded(self) -> "NoiseModel":
        """Fold measurement noise into the resource parameter.

        A noisy Bell measurement is equivalent to a perfect one preceded
        by extra depolarization q_meas^2 on the measured resource
        particle, so q_meas can be normalized to 1.
        """
        return NoiseModel(self.p_resource * self.q_meas ** 2, 1.0, self.q_channel)


class PauliChannel(Frozen):
    """Single-qubit Pauli-diagonal channel: `weights[c]` is the
    probability of the letter of code c = 2x + z (I, Z, X, Y), which is
    also the Bell index it gives |phi+> on either half."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[float, float, float, float]):
        w = np.asarray(weights, dtype=float)
        if w.shape != (4,):
            raise NoiseParameterError("need exactly four weights")
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise NoiseParameterError("weights must be a probability distribution")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @classmethod
    def depolarizing(cls, p: float) -> "PauliChannel":
        """White noise: keep with probability p, else uniformly randomize."""
        return cls(_depolarizing_weights(p))


def apply_sampled_noise(state: StabilizerState, qubits: list[int], p: float, rng):
    """Insert i.i.d. depolarizing-sampled Paulis on the listed qubits: the
    letters of one `random(len(qubits))` call, cut as `draw_indices` cuts
    them, applied as one Pauli (sign flips compose).

    This is the package's one reading of a cut index in the order I, X,
    Y, Z rather than by letter code: the seed-pinned trajectory records
    of `qec` and `chain` were drawn with it, and E(p)'s weights do not
    depend on the order, only which double becomes which letter does."""
    _check_prob(p, "p")
    if p == 1.0:
        return
    cuts = _cut_points(_depolarizing_weights(p))
    x = z = 0
    for q, u in zip(qubits, rng.random(len(qubits)).tolist()):
        letter = bisect_right(cuts, u)  # I, X, Y, Z = 0, 1, 2, 3
        x ^= (letter in (1, 2)) << q
        z ^= (letter >= 2) << q
    if x | z:
        state.apply_pauli(PauliString(state.n, x, z))
