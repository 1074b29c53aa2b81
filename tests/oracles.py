"""Reference implementations that several test files compare the package
against: dense state vectors and density matrices, gates appended by
composing with their full n-wire `gate_map` (which checks the package's
rewriting of the gate's qubits alone), stabilizer-state
helpers the commands never call (among them a tableau copy, the
Gauss-Jordan qubit removal that checks the package's one-pass removal,
and Bell measurements that drop their pair at once or have a forced
outcome), graph states and their local-Clifford tools, tableau invariant
checks, noise sampled one qubit at a time, the noise-moving identity,
the joint two-site recurrence and repeater-station resources, the
reading of Bell outcomes by conjugating them through a resource's
circuit (which checks the package's table reading) with the
forced-branch teleport built on it, a code's reading of one error as a
`PauliString` (its syndrome, logical flips and lookup correction, which
check the package's letter-array reading) and its lookup table by
sorting every candidate, the numpy Gauss-Jordan reduction that checks
the package's bit-packed GF(2) solve, the encoded shot that applies each
station's correction at once (which checks that deferring them changes
nothing), and the dense 4-qubit derivation of the Bell-diagonal
coefficient maps. None of this runs under the CLI.

Dense state vectors index basis states with qubit 0 as the most
significant bit, matching ``kron(q0, q1, ...)`` ordering, on at most
DENSE_LIMIT qubits.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from mbqcomm.catalog import code_correct, code_decode_syndrome, code_encode, epp_site_resource
from mbqcomm.noise import PauliChannel, apply_sampled_noise
from mbqcomm.pauli import (
    CliffordMap,
    PauliError,
    PauliString,
    circuit_map,
    complete_clifford,
    gate_map,
)
from mbqcomm.protocols import qec_encode, station_reading
from mbqcomm.resources import (
    ResourceError,
    ResourceSpec,
    cj_state,
    merge,
    premeasure_outputs,
    teleport_in,
)
from mbqcomm.rng import draw_indices
from mbqcomm.tableau import (
    InconsistentProjection,
    StabilizerState,
    TableauError,
    _check_qubits,
)

# Controlled-phase gate diag(1,1,1,-1): the graph-state edge unitary.
U_PG = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


# -- dense linear algebra ------------------------------------------------------

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

    def apply_pauli_channel(self, weights, qubit: int) -> "DensityMatrix":
        """The Pauli channel with weights `weights` on `qubit`, indexed by
        letter code 2x + z (I, Z, X, Y) as `PauliChannel.weights` is."""
        out = np.zeros_like(self.mat)
        for letter, w in zip("IZXY", weights):
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


# -- stabilizer states ---------------------------------------------------


def plus_state(n: int) -> StabilizerState:
    """|+>^n as a tableau."""
    stabs = [PauliString.single(n, k, "X") for k in range(n)]
    destabs = [PauliString.single(n, k, "Z") for k in range(n)]
    return StabilizerState(stabs, destabs)


def from_generators(gens: list[PauliString]) -> StabilizerState:
    """The state of n commuting independent generators on n qubits.

    The generators are the Z images of a Clifford completed by
    `complete_clifford`; its X images are the destabilizers. Raises
    TableauError when the generators define no state.
    """
    try:
        c = complete_clifford({}, dict(enumerate(gens)), len(gens))
    except PauliError as exc:
        raise TableauError(str(exc)) from exc
    return StabilizerState(list(c.image_z), list(c.image_x))


def apply_clifford(state: StabilizerState, c: CliffordMap):
    """Conjugate every stabilizer and destabilizer row by `c`, in place."""
    state.stabs = [c.conjugate(g) for g in state.stabs]
    state.destabs = [c.conjugate(d) for d in state.destabs]


def row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan reduction of a binary matrix, on a copy: the reduced
    row echelon form and its pivot columns."""
    m = np.atleast_2d(np.array(mat, dtype=np.uint8, copy=True)) & 1
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hit = np.flatnonzero(m[r:, c])
        if hit.size == 0:
            continue
        pivot = r + int(hit[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        others = np.flatnonzero(m[:, c])
        for o in others:
            if o != r:
                m[o] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def solve_dense(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Oracle of `gf2.solve` on uint8 arrays: one solution x of
    mat @ x = rhs over GF(2), free unknowns 0, or None if inconsistent."""
    a = np.array(mat, dtype=np.uint8) & 1
    b = np.array(rhs, dtype=np.uint8).reshape(-1, 1) & 1
    aug, pivots = row_reduce(np.hstack([a, b]))
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, c in enumerate(pivots):
        x[c] = aug[r, cols]
    return x


def rank(mat: np.ndarray) -> int:
    """GF(2) rank of a binary matrix."""
    return len(row_reduce(mat)[1])


def validate_tableau(state: StabilizerState):
    """Raise TableauError unless the tableau holds n Hermitian, commuting
    stabilizers and n destabilizers, each paired with its stabilizer alone."""
    n = state.n
    stabs, destabs = state.stabs, state.destabs
    if len(stabs) != n or len(destabs) != n:
        raise TableauError("tableau must hold n stabilizers and n destabilizers")
    for i, g in enumerate(stabs):
        if not g.is_hermitian:
            raise TableauError(f"generator {i} is not Hermitian")
        for j in range(i + 1, n):
            if not g.commutes(stabs[j]):
                raise TableauError(f"generators {i},{j} do not commute")
    for k, d in enumerate(destabs):
        for j, g in enumerate(stabs):
            want = (j == k)
            if d.commutes(g) == want:
                raise TableauError(f"destabilizer {k} pairing broken at {j}")
        for j in range(k + 1, n):
            if not d.commutes(destabs[j]):
                raise TableauError(f"destabilizers {k},{j} do not commute")


def then_gate_composed(c: CliffordMap, gate: str, *qubits: int) -> CliffordMap:
    """`c` with `gate` appended by conjugating all its images through the
    gate's full n-wire map: the oracle of one gate appended by
    `pauli.circuit_map`."""
    return gate_map(c.n, gate, *qubits) @ c


def circuit_composed(n: int, gates) -> CliffordMap:
    """A gate list [(name, qubits...), ...] composed gate by gate through
    `then_gate_composed`: the oracle of `pauli.circuit_map`."""
    c = CliffordMap.identity(n)
    for name, *qubits in gates:
        c = then_gate_composed(c, name, *qubits)
    return c


def apply_gate(state: StabilizerState, name: str, *qubits: int):
    """Apply a named gate of `pauli.gate_map` to the tableau in place."""
    apply_clifford(state, gate_map(state.n, name.upper(), *qubits))


def zero_state(n: int) -> StabilizerState:
    """|0>^n as a tableau."""
    stabs = [PauliString.single(n, k, "Z") for k in range(n)]
    destabs = [PauliString.single(n, k, "X") for k in range(n)]
    return StabilizerState(stabs, destabs)


def bell_pair(code: int) -> StabilizerState:
    """|phi+> on qubits (0, 1) with the letter of code `code` on qubit 1:
    the pair of Bell-diagonal index `code`."""
    pair = StabilizerState.bell_pair()
    pair.apply_pauli(PauliString.from_codes([0, code]))
    return pair


def copy_state(state: StabilizerState) -> StabilizerState:
    """An independent copy of a tableau."""
    return StabilizerState._from_rows(state.n, state.sx[:], state.sz[:], state.sp[:],
                                      state.dx[:], state.dz[:])


def bell_measure_and_drop(state: StabilizerState, a: int, b: int, rng=None) -> int:
    """`bell_measure` of (a, b), then `drop_measured` of the pair: the
    other qubits keep their order. Returns the outcome's letter code."""
    pinned: list[int] = []
    code = state.bell_measure(a, b, rng, pinned)
    state.drop_measured(pinned, (a, b))
    return code


def forced_bell_measure(state: StabilizerState, a: int, b: int, code: int) -> float:
    """Bell measurement of (a, b) forced onto the outcome of letter code
    `code`: X_a X_b and Z_a Z_b are measured with forced signs and pinned,
    and `drop_measured` removes the pair, as in `bell_measure_and_drop`.
    Returns the Born probability of the branch (1/2 per random
    measurement); raises InconsistentProjection when it is zero."""
    n = state.n
    pair = 1 << a | 1 << b
    prob = 1.0
    pinned: list[int] = []
    for op, bit in ((PauliString(n, pair, 0), code & 1), (PauliString(n, 0, pair), code >> 1)):
        if not all(g.commutes(op) for g in state.stabs):
            prob /= 2
        state.measure(op, force=1 - 2 * bit, pinned=pinned)
    state.drop_measured(pinned, (a, b))
    return prob


def pauli_sign(p: PauliString) -> int:
    """+1 or -1 for a Hermitian Pauli; raises otherwise."""
    r = (p.phase - p.y_count) % 4
    if r == 0:
        return 1
    if r == 2:
        return -1
    raise PauliError("sign undefined for non-Hermitian phase")


def _columns(qubits) -> list[tuple[bool, int]]:
    """The x columns of `qubits`, then their z columns, as (is_x, mask)."""
    qubits = list(qubits)
    return [(True, 1 << q) for q in qubits] + [(False, 1 << q) for q in qubits]


def _eliminate(stabs: list[PauliString], destabs: list[PauliString],
               cols, candidates) -> list[int]:
    """Gauss-Jordan elimination on the stabilizer rows, in place.

    Pivots each column of `cols` in turn on the lowest-numbered candidate
    row that has it and is no pivot yet, and clears it from every other
    row. Row operations keep each destabilizer paired with its stabilizer
    (Aaronson and Gottesman, PRA 70, 052328): s_i <- s_i s_j goes with
    d_j <- d_j d_i. Returns the pivot rows in column order; over all
    columns of independent rows these rows are the unique RREF.
    """
    pivots: list[int] = []
    free = set(candidates)
    for is_x, mask in cols:
        # a row operation on row i changes row i alone, so the rows that
        # have the column are found once per column
        if is_x:
            has = [i for i, g in enumerate(stabs) if g.x & mask]
        else:
            has = [i for i, g in enumerate(stabs) if g.z & mask]
        for row in has:
            if row in free:
                break
        else:
            continue
        pivots.append(row)
        free.discard(row)
        pivot = stabs[row]
        for i in has:
            if i != row:
                stabs[i] = stabs[i] * pivot
                destabs[row] = destabs[row] * destabs[i]
    return pivots


def negate(p: PauliString) -> PauliString:
    """-p."""
    return PauliString(p.n, p.x, p.z, p.phase + 2)


def remove_qubits(state: StabilizerState, qubits):
    """Oracle of `StabilizerState.drop_measured`: drop qubits that are in a
    product state with the rest, whatever measured them, by two
    Gauss-Jordan eliminations.

    A product state leaves exactly one pivot row per dropped qubit after
    elimination on the dropped columns; elimination on the kept columns
    clears the kept qubits from those rows, which are then deleted.
    Raises TableauError, leaving the state as it was, otherwise.
    """
    n = state.n
    drop = sorted(set(qubits))
    _check_qubits(drop, n)
    keep = [q for q in range(n) if q not in drop]
    stabs, destabs = list(state.stabs), list(state.destabs)
    dropped = _eliminate(stabs, destabs, _columns(drop), range(n))
    if len(dropped) != len(drop):
        raise TableauError("removed qubits are still entangled with the rest")
    rest = [i for i in range(n) if i not in dropped]
    _eliminate(stabs, destabs, _columns(keep), rest)
    # the surviving stabilizers do not touch the dropped qubits, so each
    # keeps its phase; the dropped rows now act there alone and a
    # surviving destabilizer commutes with them, so its part there lies
    # in their group and cutting it off keeps every pairing
    state.stabs = [restrict(stabs[k], keep).with_phase(stabs[k].phase) for k in rest]
    state.destabs = [restrict(destabs[k], keep) for k in rest]


def canonical_generators(state: StabilizerState) -> tuple[PauliString, ...]:
    """Unique generator set via sign-tracked RREF (state equality key)."""
    stabs, destabs = list(state.stabs), list(state.destabs)
    pivots = _eliminate(stabs, destabs, _columns(range(state.n)), range(state.n))
    return tuple(stabs[i] for i in pivots)


def same_state(a: StabilizerState, b: StabilizerState) -> bool:
    return a.n == b.n and canonical_generators(a) == canonical_generators(b)


def to_dense(state: StabilizerState) -> np.ndarray:
    """Dense state vector (the joint +1 eigenvector of all generators)."""
    n = state.n
    v = _project_all(state.stabs, basis_state(n, 0))
    norm = np.linalg.norm(v)
    if norm < 1e-6:
        probe_rng = np.random.default_rng(0xC0FFEE)
        probe = probe_rng.normal(size=1 << n) + 1j * probe_rng.normal(size=1 << n)
        v = _project_all(state.stabs, probe)
        norm = np.linalg.norm(v)
    v = v / norm
    lead = np.flatnonzero(np.abs(v) > 1e-9)[0]
    return v * (abs(v[lead]) / v[lead])


def _project_all(gens: list[PauliString], v: np.ndarray) -> np.ndarray:
    for g in gens:
        v = (v + apply_pauli_vec(g, v)) / 2
    return v


def random_clifford(n: int, rng, depth: int | None = None) -> CliffordMap:
    """Random Clifford from a random H/S/CNOT circuit."""
    depth = depth if depth is not None else max(12, 6 * n)
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 0:
            gates.append(("H", int(rng.integers(0, n))))
        elif kind == 1:
            gates.append(("S", int(rng.integers(0, n))))
        elif n >= 2:
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            b = b if b < a else b + 1
            gates.append(("CNOT", a, b))
        else:
            gates.append(("H", 0))
    return circuit_map(n, gates)


def random_pauli(n: int, rng, allow_identity: bool = True) -> PauliString:
    """Uniformly random Hermitian Pauli."""
    while True:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if allow_identity or x or z:
            break
    sign = int(rng.integers(0, 2))
    p = PauliString(n, x, z, 0).unsigned()
    return negate(p) if sign else p


# -- graph states ----------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("edge endpoint out of range")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)


def ring_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((k, (k + 1) % n) for k in range(n)))


def path_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((k, k + 1) for k in range(n - 1)))


def graph_state(g: GraphSpec) -> StabilizerState:
    """State stabilized by K_a = X_a prod_{b in N(a)} Z_b."""
    n = g.n
    stabs = []
    for a in range(n):
        row = PauliString.single(n, a, "X")
        for b in g.neighbors(a):
            row = row * PauliString.single(n, b, "Z")
        stabs.append(row)
    destabs = [PauliString.single(n, a, "Z") for a in range(n)]
    return StabilizerState(stabs, destabs)


def to_graph(state: StabilizerState) -> tuple[GraphSpec, list[tuple[str, int]]]:
    """Reduce a stabilizer state to graph-canonical form.

    Returns (graph, ops) where ops is a list of single-qubit gates that,
    applied to the input state, produce exactly graph_state(graph).
    """
    work = copy_state(state)
    n = work.n
    ops: list[tuple[str, int]] = []

    def xmat():
        return np.array(
            [[g.x_bit(q) for q in range(n)] for g in work.stabs], dtype=np.uint8
        )

    r = rank(xmat())
    while r < n:
        improved = False
        for q in range(n):
            trial = copy_state(work)
            apply_gate(trial, "H", q)
            m = np.array(
                [[g.x_bit(c) for c in range(n)] for g in trial.stabs], dtype=np.uint8
            )
            if rank(m) > r:
                apply_gate(work, "H", q)
                ops.append(("H", q))
                r = rank(xmat())
                improved = True
                break
        if not improved:
            raise TableauError("cannot complete X-block rank (not a stabilizer state?)")

    # row-reduce so the X block becomes the identity, destabilizers in step
    stabs, destabs = list(work.stabs), list(work.destabs)
    pivots = _eliminate(stabs, destabs, [(True, 1 << q) for q in range(n)], range(n))
    work.stabs = [stabs[i] for i in pivots]
    work.destabs = [destabs[i] for i in pivots]

    for q in range(n):
        if work.stabs[q].z_bit(q):
            apply_gate(work, "SDG", q)
            ops.append(("SDG", q))
    for q in range(n):
        if pauli_sign(work.stabs[q]) == -1:
            work.apply_pauli(PauliString.single(n, q, "Z"))
            ops.append(("Z", q))

    edges = set()
    for a in range(n):
        g = work.stabs[a]
        for b in range(n):
            if b != a and g.z_bit(b):
                edges.add((min(a, b), max(a, b)))
    spec = GraphSpec(n, frozenset(edges))
    if not same_state(graph_state(spec), work):
        raise TableauError("graph reduction did not reach graph form")
    return spec, ops


def local_complement(g: GraphSpec, v: int) -> GraphSpec:
    """Toggle all edges among the neighbors of v."""
    nb = g.neighbors(v)
    edges = set(g.edges)
    for i in range(len(nb)):
        for j in range(i + 1, len(nb)):
            e = (min(nb[i], nb[j]), max(nb[i], nb[j]))
            if e in edges:
                edges.remove(e)
            else:
                edges.add(e)
    return GraphSpec(g.n, frozenset(edges))


def lc_orbit(g: GraphSpec, cap: int = 20000) -> set[frozenset]:
    """All edge sets reachable by local complementations (BFS)."""
    seen = {g.edges}
    frontier = [g]
    while frontier and len(seen) < cap:
        nxt = []
        for cur in frontier:
            for v in range(cur.n):
                cand = local_complement(cur, v)
                if cand.edges not in seen:
                    seen.add(cand.edges)
                    nxt.append(cand)
        frontier = nxt
    return seen


def lc_equivalent(g1: GraphSpec, g2: GraphSpec, allow_relabel: bool = True) -> bool:
    """Local-Clifford equivalence of two graphs, optionally up to relabeling."""
    if g1.n != g2.n:
        return False
    orbit = lc_orbit(g1)
    if g2.edges in orbit:
        return True
    if not allow_relabel:
        return False
    for perm in permutations(range(g2.n)):
        mapped = frozenset(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g2.edges
        )
        if mapped in orbit:
            return True
    return False


def is_connected(g: GraphSpec) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# -- resources ---------------------------------------------------------------


def relabelled(spec: ResourceSpec, name: str | None = None,
               syndrome: tuple[str, ...] | None = None) -> ResourceSpec:
    """The same resource under another `name`, or reading another
    `syndrome`; its tableau and frame table are built anew when read."""
    return ResourceSpec(spec.name if name is None else name, spec.inputs, spec.outputs,
                        spec.circuit, spec.input_wires, spec.output_wires,
                        spec.ancilla_init, spec.virtual_meas,
                        spec.syndrome if syndrome is None else syndrome)


@lru_cache(maxsize=None)
def epp_recurrence(rounds: int, variant: str = "DEJMPS") -> ResourceSpec:
    """The joint two-site recurrence resource: site A as `L` and site B as
    `R`, side by side with no connections. Inputs L/in{k} and R/in{k}
    take the two halves of pair k, the kept pair appears on (L/out0,
    R/out0), and its syndrome is site A's bits, then site B's."""
    site_a = relabelled(epp_site_resource(rounds, "A", variant), name="L")
    site_b = relabelled(epp_site_resource(rounds, "B", variant), name="R")
    return merge(site_a, site_b, (), name=f"epp_recurrence{rounds}")


def sites_agree(syndrome) -> bool:
    """Keep rule of an attempt through `epp_recurrence`: each target's L
    and R bits agree."""
    half = len(syndrome) // 2
    return tuple(syndrome[:half]) == tuple(syndrome[half:])


def bell_measurement_resource() -> ResourceSpec:
    """Two inputs and no outputs: CNOT and H, then Z on both wires, which
    reads X X on the inputs as `meas[out0]` and Z Z as `meas[out1]`. Its
    syndrome is empty: `repeater_station` reads the swap outcome from
    `conjugation_reading`'s bits, not from the frame table."""
    circuit = circuit_map(2, [("CNOT", 0, 1), ("H", 0)])
    bell = premeasure_outputs(cj_state(circuit, "bell"), [("out0", "Z"), ("out1", "Z")],
                              name="bell")
    return relabelled(bell, syndrome=())


def repeater_station(rounds: int) -> ResourceSpec:
    """Input-only station resource: purify left and right, then swap.

    The two purified output particles are merged into a Bell-measurement
    resource, so the resource has 2^(rounds+1) input qubits and no
    outputs; the reconstructed swap outcome is the pair of virtual bits
    bell/meas[out0] (X X) and bell/meas[out1] (Z Z).
    """
    # Bob's side of the left segment, Alice's side of the right one
    left = relabelled(epp_site_resource(rounds, "B"), name="L")
    right = relabelled(epp_site_resource(rounds, "A"), name="R")
    return merge(merge(left, right, (), name="LR"), bell_measurement_resource(),
                 [("L/out0", "in0"), ("R/out0", "in1")], name=f"repeater_station{rounds}")


# -- Bell outcomes read by conjugation through the circuit --------------------


def restrict(p: PauliString, qubits) -> PauliString:
    """Unsigned sub-Pauli of `p` on the listed qubits, in the given order."""
    x = z = 0
    for i, q in enumerate(qubits):
        x |= (p.x >> q & 1) << i
        z |= (p.z >> q & 1) << i
    return PauliString(len(qubits), x, z, (x & z).bit_count())


def push_through(spec: ResourceSpec, riding: PauliString) -> tuple[PauliString, PauliString]:
    """Conjugate a Pauli on the inputs (in input order) through the
    circuit: its image on the wires and that image restricted to the
    surviving outputs (in output order)."""
    pushed = spec.circuit.conjugate(riding.embed(spec.n_wires, list(spec.input_wires)))
    return pushed, restrict(pushed, spec.output_wires)


@dataclass(frozen=True)
class ConjugationReading:
    """What letter codes riding into a resource's inputs mean, found by
    conjugating their Pauli through the circuit."""

    frame: PauliString  # on the outputs, in output order
    bits: dict  # virtual-measurement name -> flipped bit
    syndrome: tuple[int, ...]


def conjugation_reading(spec: ResourceSpec, codes) -> ConjugationReading:
    """The image's restriction to the outputs is the frame, and its
    anticommutation with each pre-measured operator flips that virtual
    bit; `syndrome` reads the bits."""
    if len(codes) != len(spec.inputs):
        raise ResourceError("need one letter code per input")
    pushed, frame = push_through(spec, PauliString.from_codes(codes))
    bits = {vm.name: 0 if pushed.commutes(vm.operator) else 1 for vm in spec.virtual_meas}
    return ConjugationReading(frame, bits, tuple(bits[name] for name in spec.syndrome))


def conjugation_station(code, spec: ResourceSpec, outcomes,
                        frame: PauliString) -> tuple[tuple[int, ...], PauliString]:
    """Syndrome and new frame of a QEC station, read by conjugation: the
    raw syndrome of the Bell outcome codes, with the pending frame's own
    syndrome XORed out, is looked up, and the frame times the correction
    is pushed through and multiplied into the outcomes' frame."""
    reading = conjugation_reading(spec, outcomes)
    syndrome = tuple(a ^ b for a, b in zip(reading.syndrome, syndrome_of(code, frame)))
    fix = push_through(spec, frame * correction_for(code, syndrome))[1]
    return syndrome, (reading.frame * fix).unsigned()


# -- one error read through a code ---------------------------------------------


def _anticommuting(error: PauliString, ops) -> tuple[int, ...]:
    """One bit per operator: 1 where it anticommutes with `error`."""
    return tuple(0 if error.commutes(g) else 1 for g in ops)


def min_weight_table(stabilizers, candidates) -> np.ndarray:
    """Oracle of a code's lookup table: the candidates sorted by weight and
    then by text, and the letter codes of the first one of each syndrome
    integer (bit j for generator j)."""
    ranked = sorted(candidates, key=lambda p: (p.weight, str(p)))
    table: dict[int, list[int]] = {}
    for p in ranked:
        bits = _anticommuting(p, stabilizers)
        table.setdefault(sum(b << j for j, b in enumerate(bits)), p.codes())
    return np.array([table[s] for s in range(1 << len(stabilizers))], dtype=np.uint8)


def syndrome_of(code, error: PauliString) -> tuple[int, ...]:
    """The code syndrome of `error`, one bit per generator."""
    return _anticommuting(error, code.stabilizers)


def logical_flips(code, error: PauliString) -> tuple[int, int]:
    """Whether `error` flips the logical (X, Z) measurement outcomes."""
    return _anticommuting(error, (code.logical_x, code.logical_z))


def correction_for(code, syndrome: tuple[int, ...]) -> PauliString:
    """The lookup table's lowest-weight error with this syndrome."""
    return PauliString.from_codes(code.decode(syndrome)[0])


def all_single_qubit_errors(n: int) -> list[PauliString]:
    return [PauliString.single(n, q, c) for q in range(n) for c in "XYZ"]


def single_and_double_errors(n: int) -> list[PauliString]:
    """Every Pauli error of weight one or two on n qubits, unsigned."""
    singles = [PauliString.single(n, q, c).unsigned() for q in range(n) for c in "XYZ"]
    doubles = [(a * b).unsigned() for a, b in combinations(singles, 2)
               if not (a.x | a.z) & (b.x | b.z)]
    return singles + doubles


@dataclass(frozen=True)
class ForcedTeleport:
    """One in-coupling branch: outcome codes, their reading (None for an
    impossible branch), the Born probability of a forced branch (0 when
    it is impossible; 1 when the outcomes were drawn) and the state left
    (None for an impossible branch)."""

    codes: tuple[int, ...]
    reading: ConjugationReading | None
    branch_probability: float
    state: StabilizerState | None


def forced_teleport(spec: ResourceSpec, state: StabilizerState, hosts, forced=None,
                    rng=None, apply_frame: bool = True,
                    resource: StabilizerState | None = None) -> ForcedTeleport:
    """Noiseless `teleport_in` of the qubits at positions `hosts`, one per
    input, pair by pair, with the Bell outcomes forced to the letter codes
    `forced` (drawn with `rng` where it is None), read by conjugation. The
    resource qubits are `resource` when given (such as `spec.state` with
    errors on it), else `spec.state`. The state left has the layout of
    `teleport_in`'s; the frame is applied to the outputs when
    `apply_frame` is set."""
    n_host = state.n
    state = state.tensor(spec.state if resource is None else resource)
    left = list(range(state.n))  # the original index of each qubit still in `state`
    codes, prob = [], 1.0
    for k, host in enumerate(hosts):
        a, b = left.index(host), left.index(n_host + k)
        if forced is None:
            codes.append(bell_measure_and_drop(state, a, b, rng))
        else:
            try:
                prob *= forced_bell_measure(state, a, b, forced[k])
            except InconsistentProjection:
                return ForcedTeleport(tuple(forced), None, 0.0, None)
            codes.append(forced[k])
        left.remove(host)
        left.remove(n_host + k)
    reading = conjugation_reading(spec, codes)
    if apply_frame and not reading.frame.is_identity:
        outputs = range(state.n - len(spec.outputs), state.n)
        state.apply_pauli(reading.frame.embed(state.n, outputs))
    return ForcedTeleport(tuple(codes), reading, prob, state)


# -- corrections applied at each station --------------------------------------


def at_station_shot(code, noise, rng, q_channel) -> tuple[bool, list]:
    """`netsim.encoded_shot` with each correction applied where it is
    found: every correction station applies its frame to its output block
    (qubits 1..n) at once and passes on no frame, and the decode station's
    frame is applied to qubit 1 before the reference pair (0, 1) is
    Bell-measured. A Pauli changes no outcome's randomness, so this takes
    the draws of the deferred shot."""
    enc, corr, dec = code_encode(code), code_correct(code), code_decode_syndrome(code)
    state, frame = qec_encode(StabilizerState.bell_pair(), 1, noise, rng, enc)
    block = list(range(1, code.n + 1))
    stations = []
    for q in q_channel:
        apply_sampled_noise(state, block, q, rng)
        state, codes = teleport_in(corr, state, block, noise, rng)
        syndrome, correctable, correction = station_reading(code, corr, codes ^ frame)
        state.apply_pauli(PauliString.from_codes([0, *correction]))
        frame = np.zeros(code.n, dtype=np.uint8)
        stations.append((tuple(syndrome.tolist()), bool(correctable)))
    state, codes = teleport_in(dec, state, block, noise, rng)
    correction = station_reading(code, dec, codes ^ frame)[2]
    state.apply_pauli(PauliString.from_codes([0, *correction]))
    return bell_measure_and_drop(state, 0, 1, rng) == 0, stations


# -- dense operators and density matrices -------------------------------------


def embed_unitary(n: int, u: np.ndarray, targets: list[int]) -> np.ndarray:
    """Expand a unitary on `targets` to the full 2^n-dim space."""
    _check_limit(n)
    dim = 1 << n
    cols = []
    for c in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[c] = 1.0
        cols.append(apply_unitary_vec(v, u, targets))
    return np.column_stack(cols)


def density(mat: np.ndarray) -> DensityMatrix:
    """A DensityMatrix of `mat`, which must have unit trace and be
    Hermitian and positive semidefinite (raises ValueError otherwise)."""
    rho = DensityMatrix(mat)
    if abs(np.trace(rho.mat).real - 1.0) > 1e-9 or abs(np.trace(rho.mat).imag) > 1e-9:
        raise ValueError("density matrix trace is not 1")
    if np.max(np.abs(rho.mat - rho.mat.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    eig = np.linalg.eigvalsh(rho.mat)
    if eig.min() < -1e-8:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def depolarize(rho: DensityMatrix, qubit: int, p: float) -> DensityMatrix:
    """White-noise channel: keep with probability p, else randomize."""
    r = (1 - p) / 4
    return rho.apply_pauli_channel((p + r, r, r, r), qubit)


def partial_trace(rho: DensityMatrix, keep: list[int]) -> DensityMatrix:
    n = rho.n
    drop = [q for q in range(n) if q not in keep]
    t = rho.mat.reshape((2,) * (2 * n))
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    k = len(keep)
    # axes are now (kept ket..., kept bra...) in original order
    return DensityMatrix(t.reshape(1 << k, 1 << k))


def fidelity_with_vec(rho: DensityMatrix, v: np.ndarray) -> float:
    return float(np.real(v.conj() @ rho.mat @ v))


# -- sampled noise, one draw per qubit ------------------------------------------


def depolarize_sample(n: int, qubit: int, p: float, rng) -> PauliString:
    """One Pauli insertion of E(p) on `qubit`: one `draw_indices` draw
    from the weights of `PauliChannel.depolarizing(p)`, its index read in
    the I, X, Y, Z order of `noise.apply_sampled_noise`."""
    letter = "IXYZ"[draw_indices(rng, PauliChannel.depolarizing(p).weights, 1)[0]]
    return PauliString.single(n, qubit, letter)


def apply_sampled_noise_per_qubit(state: StabilizerState, qubits: list[int], p: float, rng):
    """`noise.apply_sampled_noise` one qubit at a time: one draw and one
    insertion per listed qubit."""
    if p == 1.0:
        return
    for q in qubits:
        ins = depolarize_sample(state.n, q, p, rng)
        if not ins.is_identity:
            state.apply_pauli(ins)


# -- noise moving across a Bell measurement ------------------------------------


@dataclass
class MoveNoiseReport:
    """Result of checking P_ab E_a(ch) rho = P_ab E_b(ch) rho exactly."""

    holds: bool
    max_deviation: float
    counterexample: dict = field(default_factory=dict)


def move_noise_across_bell(channel: PauliChannel, rho: DensityMatrix,
                           a: int, b: int) -> MoveNoiseReport:
    """Verify the noise-moving identity on a concrete state.

    Compares the outcome-labeled ensembles (probability and conditional
    state for each of the four Bell outcomes) of noising qubit a versus
    qubit b before the Bell measurement on (a, b).
    """
    max_dev = 0.0
    side_a = rho.apply_pauli_channel(channel.weights, a).bell_measure(a, b)
    side_b = rho.apply_pauli_channel(channel.weights, b).bell_measure(a, b)
    for (pa, ia, da), (pb, ib, db) in zip(side_a, side_b):
        assert ia == ib
        max_dev = max(max_dev, abs(pa - pb))
        if da is not None and db is not None:
            max_dev = max(max_dev, float(np.max(np.abs(pa * da.mat - pb * db.mat))))
        elif (da is None) != (db is None):
            max_dev = max(max_dev, max(pa, pb))
        if max_dev > 1e-12:  # exact up to rounding: the identity is algebraic
            return MoveNoiseReport(False, max_dev, {"outcome": ia})
    return MoveNoiseReport(True, max_dev)


# -- Bell-diagonal coefficient maps from 4-qubit state vectors -----------------

BD_SIGMA_ORDER = (0, 3, 1, 2)  # sigma index (I,X,Y,Z numbering) per bd index


def _bell_pair_vec(bd_index: int) -> np.ndarray:
    return bell_vector(BD_SIGMA_ORDER[bd_index])


def _dejmps_rotations(v: np.ndarray) -> np.ndarray:
    minus = (I2 - 1j * X) / np.sqrt(2)
    plus = (I2 + 1j * X) / np.sqrt(2)
    for q, u in ((0, minus), (1, plus), (2, minus), (3, plus)):
        v = apply_unitary_vec(v, u, [q])
    return v


def _recurrence_branches(i: int, j: int, rotate: bool) -> np.ndarray:
    """Unnormalized output bd coefficients of one 2->1 step on basis inputs.

    Qubits are (A1, B1, A2, B2); pair 2 is the measured target. Kept
    branches are the two with equal Z outcomes at A2 and B2.
    """
    v = np.kron(_bell_pair_vec(i), _bell_pair_vec(j))
    if rotate:
        v = _dejmps_rotations(v)
    v = apply_unitary_vec(v, CNOT, [0, 2])
    v = apply_unitary_vec(v, CNOT, [1, 3])
    out = np.zeros(4)
    za = PauliString.single(4, 2, "Z")
    zb = PauliString.single(4, 3, "Z")
    for pa, oa, va in measure_pauli_vec(v, za):
        for pb, ob, vb in measure_pauli_vec(va, zb):
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
        prob, reduced = project_bell_vec(v, 1, 2, m)
        if prob < 1e-14:
            continue
        sigma = PAULI_MATS["IXYZ"[m]]
        corrected = apply_unitary_vec(reduced, sigma, [1])
        for k in range(4):
            amp = np.vdot(_bell_pair_vec(k), corrected)
            out[k] += prob * float(np.abs(amp) ** 2)
    return out


def _werner_twirl_matrix() -> np.ndarray:
    t = np.full((4, 4), 0.0)
    t[0, 0] = 1.0
    t[1:, 1:] = 1.0 / 3.0
    return t


def dense_coefficient_maps() -> dict[str, np.ndarray]:
    """The swap and recurrence coefficient tensors [out, i, j], simulated
    on 4-qubit state vectors."""
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
