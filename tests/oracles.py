"""Reference implementations that several test files compare the package
against: graph states and their local-Clifford tools, tableau and
density-matrix invariant checks, and dense operators on chosen qubits.
None of this runs under the CLI.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from mbqcomm import gf2
from mbqcomm.dense import DensityMatrix, _check_limit, apply_unitary_vec
from mbqcomm.pauli import PauliString, gate_map
from mbqcomm.tableau import StabilizerState, TableauError, _eliminate

# Controlled-phase gate diag(1,1,1,-1): the graph-state edge unitary.
U_PG = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


# -- stabilizer states ---------------------------------------------------


def plus_state(n: int) -> StabilizerState:
    """|+>^n as a tableau."""
    stabs = [PauliString.single(n, k, "X") for k in range(n)]
    destabs = [PauliString.single(n, k, "Z") for k in range(n)]
    return StabilizerState(stabs, destabs)


def validate_tableau(state: StabilizerState):
    """Raise TableauError unless the tableau holds n Hermitian, commuting
    stabilizers and n destabilizers, each paired with its stabilizer alone."""
    n = state.n
    if len(state.stabs) != n or len(state.destabs) != n:
        raise TableauError("tableau must hold n stabilizers and n destabilizers")
    for i, g in enumerate(state.stabs):
        if not g.is_hermitian:
            raise TableauError(f"generator {i} is not Hermitian")
        for j in range(i + 1, n):
            if not g.commutes(state.stabs[j]):
                raise TableauError(f"generators {i},{j} do not commute")
    for k, d in enumerate(state.destabs):
        for j, g in enumerate(state.stabs):
            want = (j == k)
            if d.commutes(g) == want:
                raise TableauError(f"destabilizer {k} pairing broken at {j}")
        for j in range(k + 1, n):
            if not d.commutes(state.destabs[j]):
                raise TableauError(f"destabilizers {k},{j} do not commute")


def apply_gate(state: StabilizerState, name: str, *qubits: int):
    """Apply a named gate of `pauli.gate_map` to the tableau in place."""
    state.apply_clifford(gate_map(state.n, name.upper(), *qubits))


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
    work = state.copy()
    n = work.n
    ops: list[tuple[str, int]] = []

    def xmat():
        return np.array(
            [[g.x_bit(q) for q in range(n)] for g in work.stabs], dtype=np.uint8
        )

    r = gf2.rank(xmat())
    while r < n:
        improved = False
        for q in range(n):
            trial = work.copy()
            apply_gate(trial, "H", q)
            m = np.array(
                [[g.x_bit(c) for c in range(n)] for g in trial.stabs], dtype=np.uint8
            )
            if gf2.rank(m) > r:
                apply_gate(work, "H", q)
                ops.append(("H", q))
                r = gf2.rank(xmat())
                improved = True
                break
        if not improved:
            raise TableauError("cannot complete X-block rank (not a stabilizer state?)")

    # row-reduce so the X block becomes the identity, destabilizers in step
    pivots = _eliminate(work.stabs, work.destabs, [(True, 1 << q) for q in range(n)],
                        range(n))
    work.stabs = [work.stabs[i] for i in pivots]
    work.destabs = [work.destabs[i] for i in pivots]

    for q in range(n):
        if work.stabs[q].z_bit(q):
            apply_gate(work, "SDG", q)
            ops.append(("SDG", q))
    for q in range(n):
        if work.stabs[q].sign == -1:
            work.apply_pauli(PauliString.single(n, q, "Z"))
            ops.append(("Z", q))

    edges = set()
    for a in range(n):
        g = work.stabs[a]
        for b in range(n):
            if b != a and g.z_bit(b):
                edges.add((min(a, b), max(a, b)))
    spec = GraphSpec(n, frozenset(edges))
    if not graph_state(spec).same_state(work):
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


def site_sizes(spec) -> dict[str, int]:
    """Qubits per site of a resource."""
    return {site: len(labels) for site, labels in spec.sites}


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
    w = {"I": p + (1 - p) / 4, "X": (1 - p) / 4, "Y": (1 - p) / 4, "Z": (1 - p) / 4}
    return rho.apply_pauli_channel(w, qubit)


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
