"""Stabilizer code descriptions: repetition codes and the 5-qubit ring code.

Each CodeSpec carries its stabilizer generators, logical operators, an
encoding Clifford (wire 0 = logical qubit, other wires ancilla |0>) and
a syndrome lookup table built by enumeration, never transcribed: one
correction per syndrome integer, as letter codes. The table has one
reader, `CodeSpec.decode`: a QEC station is one lookup in it, for one
shot or for many at once. Errors are read through the code one way, as
arrays: `CodeSpec.residual` takes bit-packed errors to the logical
letter that their lookup correction leaves. Summed over all Pauli
errors, it is the one source of every code's logical error rate and
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .noise import PauliChannel
from .pauli import CliffordMap, PauliString, complete_clifford


class CodeError(ValueError):
    """Raised for malformed codes or syndrome lookups."""


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """One logical qubit in n physical qubits, compared and hashed by
    identity.

    `lookup` is the syndrome table, read-only: row s holds, as letter
    codes, the correction of the syndrome whose bit j, for generator j,
    is bit j of s.
    """

    name: str
    n: int
    stabilizers: tuple[PauliString, ...]
    logical_x: PauliString
    logical_z: PauliString
    encoder: CliffordMap
    lookup: np.ndarray
    correctable_weight: int

    def __post_init__(self):
        for i, g in enumerate(self.stabilizers):
            for h in self.stabilizers[i + 1:]:
                if not g.commutes(h):
                    raise CodeError("stabilizer generators must commute")
            if not self.logical_x.commutes(g) or not self.logical_z.commutes(g):
                raise CodeError("logicals must commute with the stabilizer group")
        if self.logical_x.commutes(self.logical_z):
            raise CodeError("logical X and Z must anticommute")
        if self.lookup.shape != (1 << len(self.stabilizers), self.n):
            raise CodeError("the lookup table needs one correction per syndrome")
        self.lookup.setflags(write=False)

    @cached_property
    def correctable(self) -> np.ndarray:
        """Per syndrome integer: whether the table's correction has weight
        within `correctable_weight`."""
        flags = np.count_nonzero(self.lookup, axis=1) <= self.correctable_weight
        flags.setflags(write=False)
        return flags

    def decode(self, bits) -> tuple[np.ndarray, np.ndarray]:
        """The lookup corrections of syndrome `bits`, one bit per generator
        on the first axis, for one shot or, on a second axis, for many (at
        most one shot axis): their letter codes, one per qubit on the
        first axis, and whether each is correctable."""
        bits = np.asarray(bits)
        if len(bits) != len(self.stabilizers):
            raise CodeError(f"syndrome needs {len(self.stabilizers)} bits, got {len(bits)}")
        index = (1 << np.arange(len(bits))) @ bits
        return self.lookup[index].T, self.correctable[index]

    def residual(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The logical letter code 2x + z that one lookup correction leaves
        of each error with bit-packed parts (x, z): its anticommutation
        bits with (logical X, logical Z) are its z and x bits."""
        k = len(self.stabilizers)
        logicals = (self.logical_x, self.logical_z)
        fixes = self.decode(np.arange(1 << k) >> np.arange(k)[:, None] & 1)[0]
        qubit = 1 << np.arange(self.n)
        fix_flips = _parities(qubit @ (fixes >> 1), qubit @ (fixes & 1), logicals)
        return _parities(x, z, logicals) ^ fix_flips[_parities(x, z, self.stabilizers)]

    def logical_channel(self, weights, max_weight: int | None = None) -> np.ndarray:
        """Weights of the residual logical Pauli after i.i.d. single-qubit
        Pauli noise `weights` on every block qubit and one lookup
        correction, both indexed by letter code 2x + z (I, Z, X, Y).

        Sums exactly over all 4^n errors: one `residual` of them all.
        With `max_weight` only errors of at most that weight count, so
        the weights sum to less than one.
        """
        n = self.n
        err = np.arange(1 << 2 * n, dtype=np.int64)
        x, z = err & ((1 << n) - 1), err >> n
        weights = np.asarray(weights, dtype=float)
        prob = np.ones(err.size)
        for q in range(n):
            prob *= weights[2 * (x >> q & 1) + (z >> q & 1)]
        if max_weight is not None:
            prob[np.bitwise_count(x | z) > max_weight] = 0.0
        return np.bincount(self.residual(x, z), weights=prob, minlength=4)

    def logical_noise(self, p: float, max_weight: int | None = None) -> float:
        """Logical depolarizing parameter (4 F - 1)/3 of one correction step
        under depolarizing noise p on every block qubit, F the identity
        weight of `logical_channel`; a lower bound with `max_weight`."""
        f = self.logical_channel(PauliChannel.depolarizing(p).weights, max_weight)[0]
        return float(4.0 * f - 1.0) / 3.0


def _parities(x: np.ndarray, z: np.ndarray, ops) -> np.ndarray:
    """Packed anticommutation bits of the Paulis with bit-packed parts
    (x, z): bit j is set where operator j anticommutes."""
    out = np.zeros(np.shape(x), dtype=np.int64)
    for j, g in enumerate(ops):
        out |= (np.bitwise_count((x & g.z) ^ (z & g.x)) & 1).astype(np.int64) << j
    return out


def _min_weight_table(stabilizers, candidates) -> np.ndarray:
    """The lookup table: row s the letter codes of the lowest-weight
    candidate error with syndrome integer s, ties broken lexically (the
    text of the operators is compared among exact ties alone). Raises
    CodeError if a syndrome has no candidate."""
    x = np.array([p.x for p in candidates])
    z = np.array([p.z for p in candidates])
    syndromes = _parities(x, z, stabilizers)
    weights = np.array([p.weight for p in candidates])
    order = np.lexsort((weights, syndromes))
    found, first = np.unique(syndromes[order], return_index=True)
    if found.size < 1 << len(stabilizers):
        s = min(set(range(1 << len(stabilizers))) - set(found.tolist()))
        missing = tuple(s >> j & 1 for j in range(len(stabilizers)))
        raise CodeError(f"syndrome {missing} missing from lookup table")
    best = order[first]
    lowest = weights == weights[best][syndromes]  # of the lowest weight of their syndrome
    for s in np.flatnonzero(np.bincount(syndromes[lowest]) > 1).tolist():
        ties = np.flatnonzero(lowest & (syndromes == s))
        best[s] = min(ties.tolist(), key=lambda i: str(candidates[i]))
    qubit = np.arange(candidates[0].n)
    return (2 * (x[best, None] >> qubit & 1) + (z[best, None] >> qubit & 1)).astype(np.uint8)


def encoder_from_code(stabilizers, logical_x, logical_z) -> CliffordMap:
    """Clifford taking |x, 0...0> to the codeword |x_L>.

    Wire 0 carries the logical qubit: Z_0 -> logical Z, X_0 -> logical X
    and Z_k -> generator k-1; the remaining images are completed.
    """
    n = logical_x.n
    partial_x = {0: logical_x}
    partial_z = {0: logical_z}
    for k, g in enumerate(stabilizers, start=1):
        partial_z[k] = g
    return complete_clifford(partial_x, partial_z, n)


def repetition_code(m: int, basis: str = "bit") -> CodeSpec:
    """m-qubit repetition code; corrects up to (m-1)//2 flips.

    basis="bit" protects against X errors (|0_L> = |0...0>);
    basis="phase" is the Hadamard-rotated variant protecting against Z.
    """
    if m < 2:
        raise CodeError("repetition code needs at least 2 qubits")
    if basis not in ("bit", "phase"):
        raise CodeError("basis must be 'bit' or 'phase'")
    stabs = [
        PauliString.single(m, k, "Z") * PauliString.single(m, k + 1, "Z")
        for k in range(m - 1)
    ]
    logical_x = PauliString(m, (1 << m) - 1, 0, 0)  # X...X
    logical_z = PauliString.single(m, 0, "Z")
    # enumerate every X pattern: that is the full correctable error basis
    candidates = [
        PauliString(m, bits, 0, 0) for bits in range(1 << m)
    ]
    if basis == "phase":
        stabs = [_hadamard_all(g) for g in stabs]
        logical_x, logical_z = _hadamard_all(logical_x), _hadamard_all(logical_z)
        candidates = [_hadamard_all(c) for c in candidates]
    table = _min_weight_table(stabs, candidates)
    encoder = encoder_from_code(stabs, logical_x, logical_z)
    return CodeSpec(
        name=f"repetition{m}" + ("-phase" if basis == "phase" else ""),
        n=m,
        stabilizers=tuple(stabs),
        logical_x=logical_x,
        logical_z=logical_z,
        encoder=encoder,
        lookup=table,
        correctable_weight=(m - 1) // 2,
    )


def _hadamard_all(p: PauliString) -> PauliString:
    return PauliString(p.n, p.z, p.x, p.phase).unsigned()


def ring5_code() -> CodeSpec:
    """Five-qubit ring (cluster) code correcting any single-qubit error.

    |0_L> is the 5-cycle graph state; |1_L> = Z^(x5) |0_L>. The code
    stabilizers are products of adjacent graph generators, the logical X
    is Z^(x5) and logical Z a single graph generator.
    """
    n = 5
    # graph generators K_a = X_a Z_{a-1} Z_{a+1} of the 5-cycle
    k_ops = [PauliString(n, 1 << a, 1 << (a - 1) % n | 1 << (a + 1) % n)
             for a in range(n)]
    stabs = [k_ops[i] * k_ops[i + 1] for i in range(4)]
    logical_x = PauliString(n, 0, (1 << n) - 1, 0)  # Z...Z flips 0_L <-> 1_L
    logical_z = k_ops[0]
    singles = [
        PauliString.single(n, q, c) for q in range(n) for c in "XYZ"
    ]
    doubles = [
        a * b for a, b in combinations(singles, 2)
        if (a.x | a.z) & (b.x | b.z) == 0
    ]
    table = _min_weight_table(stabs, [PauliString.identity(n)] + singles + doubles)
    syndromes = _parities(np.array([e.x for e in singles]), np.array([e.z for e in singles]),
                          stabs)
    if len(set(syndromes.tolist()) - {0}) != 15:
        raise CodeError("ring5 single-qubit errors do not have distinct syndromes")
    encoder = encoder_from_code(stabs, logical_x, logical_z)
    return CodeSpec(
        name="ring5",
        n=n,
        stabilizers=tuple(stabs),
        logical_x=logical_x,
        logical_z=logical_z,
        encoder=encoder,
        lookup=table,
        correctable_weight=1,
    )
