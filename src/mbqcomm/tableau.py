"""Stabilizer-state engine with destabilizer bookkeeping.

The tableau stores n stabilizer generators plus n destabilizers (used to
resolve deterministic measurement outcomes), all as phased PauliStrings.
Measurements of arbitrary Pauli operators, Bell measurements with qubit
removal, graph-state construction and a dense-vector bridge live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gf2
from .dense import apply_pauli_vec, basis_state
from .pauli import CliffordMap, PauliString, gate_map

_BELL_INDEX = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}
_BELL_LETTER = {0: "I", 1: "X", 2: "Y", 3: "Z"}


class TableauError(ValueError):
    """Raised on invalid tableaus or impossible projections."""


class InconsistentProjection(TableauError):
    """Forcing a measurement outcome that has probability zero."""


@dataclass(frozen=True)
class BellOutcome:
    """Outcome of a Bell measurement.

    b_x is the sign bit of the X(x)X measurement, b_z of Z(x)Z; the index
    i labels the observed Bell state (I (x) sigma_i^*)|phi+> and sigma_i
    is the teleportation byproduct.
    """

    b_x: int
    b_z: int

    @property
    def index(self) -> int:
        return _BELL_INDEX[(self.b_x, self.b_z)]

    @property
    def letter(self) -> str:
        return _BELL_LETTER[self.index]

    def byproduct(self) -> PauliString:
        """Single-qubit byproduct operator sigma_i."""
        return PauliString.single(1, 0, self.letter)

    @classmethod
    def from_index(cls, i: int) -> "BellOutcome":
        for bits, idx in _BELL_INDEX.items():
            if idx == i:
                return cls(*bits)
        raise ValueError(f"invalid Bell index {i}")


@lru_cache(maxsize=4096)
def _cached_gate(n: int, name: str, qubits: tuple[int, ...]) -> CliffordMap:
    return gate_map(n, name, *qubits)


class StabilizerState:
    """n-qubit pure stabilizer state as a destabilizer tableau."""

    def __init__(self, stabs: list[PauliString], destabs: list[PauliString],
                 validate: bool = False):
        self.stabs = list(stabs)
        self.destabs = list(destabs)
        if validate:
            self.validate()

    # -- constructors --------------------------------------------------

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerState":
        stabs = [PauliString.single(n, k, "Z") for k in range(n)]
        destabs = [PauliString.single(n, k, "X") for k in range(n)]
        return cls(stabs, destabs)

    @classmethod
    def plus_state(cls, n: int) -> "StabilizerState":
        stabs = [PauliString.single(n, k, "X") for k in range(n)]
        destabs = [PauliString.single(n, k, "Z") for k in range(n)]
        return cls(stabs, destabs)

    @classmethod
    def bell_pair(cls, index: int = 0) -> "StabilizerState":
        """sigma|phi+> on qubits (0, 1), sigma = I, Z, X, Y for index 0..3.

        The Bell-diagonal index order of `belldiag`; a Z on qubit 1 flips
        the sign of XX, an X that of ZZ.
        """
        xx = PauliString.from_string("XX")
        zz = PauliString.from_string("ZZ")
        stabs = [xx.negate() if index & 1 else xx, zz.negate() if index & 2 else zz]
        return cls(stabs, [PauliString.from_string("ZI"), PauliString.from_string("IX")])

    @classmethod
    def from_generators(cls, gens: list[PauliString]) -> "StabilizerState":
        """Build a state from commuting independent generators.

        Destabilizers are completed by solving the symplectic pairing
        conditions over GF(2).
        """
        n = len(gens)
        if n == 0:
            return cls([], [])
        if any(g.n != n for g in gens):
            raise TableauError("need exactly n generators on n qubits")
        if any(not g.is_hermitian for g in gens):
            raise TableauError("generators must be Hermitian")
        for i in range(n):
            for j in range(i + 1, n):
                if not gens[i].commutes(gens[j]):
                    raise TableauError("generators must commute")
        vecs = np.array([_symp_vec(g) for g in gens], dtype=np.uint8)
        if gf2.rank(vecs) != n:
            raise TableauError("generators are not independent")
        # row j of A gives the functional v -> <g_j, v> (symplectic product)
        a = np.hstack([vecs[:, n:], vecs[:, :n]])
        destabs: list[PauliString] = []
        for k in range(n):
            rhs = np.zeros(n, dtype=np.uint8)
            rhs[k] = 1
            sol = gf2.solve(a, rhs)
            if sol is None:
                raise TableauError("destabilizer completion failed")
            d = _from_symp_vec(n, sol)
            for j in range(k):
                if not d.commutes(destabs[j]):
                    d = d * gens[j]
            destabs.append(d.unsigned())
        return cls(list(gens), destabs)

    def copy(self) -> "StabilizerState":
        return StabilizerState(list(self.stabs), list(self.destabs))

    @property
    def n(self) -> int:
        return self.stabs[0].n if self.stabs else 0

    # -- invariants ----------------------------------------------------

    def validate(self):
        n = self.n
        if len(self.stabs) != n or len(self.destabs) != n:
            raise TableauError("tableau must hold n stabilizers and n destabilizers")
        for i, g in enumerate(self.stabs):
            if not g.is_hermitian:
                raise TableauError(f"generator {i} is not Hermitian")
            for j in range(i + 1, n):
                if not g.commutes(self.stabs[j]):
                    raise TableauError(f"generators {i},{j} do not commute")
        vecs = np.array([_symp_vec(g) for g in self.stabs], dtype=np.uint8)
        if n and gf2.rank(vecs) != n:
            raise TableauError("generators are not independent")
        for k, d in enumerate(self.destabs):
            for j, g in enumerate(self.stabs):
                want = (j == k)
                if d.commutes(g) == want:
                    raise TableauError(f"destabilizer {k} pairing broken at {j}")
            for j in range(k + 1, n):
                if not d.commutes(self.destabs[j]):
                    raise TableauError(f"destabilizers {k},{j} do not commute")

    # -- unitaries and Paulis -------------------------------------------

    def apply_pauli(self, p: PauliString):
        """Apply a Pauli operator (flips generator signs only)."""
        self.stabs = [g if g.commutes(p) else g.negate() for g in self.stabs]

    def apply_gate(self, name: str, *qubits: int):
        c = _cached_gate(self.n, name.upper(), tuple(qubits))
        self.apply_clifford(c)

    def apply_clifford(self, c: CliffordMap):
        self.stabs = [c.conjugate(g) for g in self.stabs]
        self.destabs = [c.conjugate(d) for d in self.destabs]

    # -- measurement -----------------------------------------------------

    def outcome_is_random(self, p: PauliString) -> bool:
        return any(not g.commutes(p) for g in self.stabs)

    def measure(self, p: PauliString, rng=None, force: int | None = None,
                prob_sink: list | None = None) -> int:
        """Measure a Hermitian Pauli; returns the +-1 outcome and updates.

        `force` pins the outcome: allowed freely in the random case, and
        raises InconsistentProjection if a deterministic outcome differs.
        `prob_sink` collects the Born probability of the taken branch
        (0.5 for random outcomes, 1.0 for deterministic ones).
        """
        if p.is_identity:
            raise TableauError("cannot measure the identity")
        if not p.is_hermitian:
            raise TableauError("measured operator must be Hermitian")
        n = self.n
        anti_stabs = [k for k, g in enumerate(self.stabs) if not g.commutes(p)]
        if prob_sink is not None:
            prob_sink.append(0.5 if anti_stabs else 1.0)
        if anti_stabs:
            piv = anti_stabs[0]
            pivot_row = self.stabs[piv]
            for k in anti_stabs[1:]:
                self.stabs[k] = self.stabs[k] * pivot_row
            for k in range(n):
                if not self.destabs[k].commutes(p):
                    self.destabs[k] = self.destabs[k] * pivot_row
            if force is not None:
                outcome = 1 if force >= 0 else -1
            else:
                if rng is None:
                    raise TableauError("random outcome requires an rng")
                outcome = 1 if int(rng.integers(0, 2)) == 0 else -1
            self.destabs[piv] = pivot_row
            self.stabs[piv] = p if outcome == 1 else p.negate()
            return outcome
        # deterministic: reconstruct +-P as a product of generators
        acc = PauliString.identity(n)
        for k in range(n):
            if not self.destabs[k].commutes(p):
                acc = acc * self.stabs[k]
        if acc.x != p.x or acc.z != p.z:
            raise TableauError("deterministic reconstruction failed")
        outcome = 1 if acc.phase == p.phase else -1
        if force is not None and outcome != (1 if force >= 0 else -1):
            raise InconsistentProjection("projection has probability zero")
        return outcome

    def bell_measure(self, a: int, b: int, rng=None,
                     force: BellOutcome | None = None,
                     remove: bool = True,
                     prob_sink: list | None = None) -> tuple[BellOutcome, list[int]]:
        """Bell measurement on qubits (a, b).

        Measures X_a X_b then Z_a Z_b, removes both qubits, and returns
        the outcome plus the old indices of the surviving qubits (the new
        index of old qubit q is the position of q in that list).
        """
        if a == b:
            raise TableauError("Bell measurement needs two distinct qubits")
        n = self.n
        xx = PauliString.single(n, a, "X") * PauliString.single(n, b, "X")
        zz = PauliString.single(n, a, "Z") * PauliString.single(n, b, "Z")
        fx = None if force is None else (1 - 2 * force.b_x)
        fz = None if force is None else (1 - 2 * force.b_z)
        sx = self.measure(xx, rng, force=fx, prob_sink=prob_sink)
        sz = self.measure(zz, rng, force=fz, prob_sink=prob_sink)
        outcome = BellOutcome(b_x=(1 - sx) // 2, b_z=(1 - sz) // 2)
        keep = [q for q in range(n) if q not in (a, b)]
        if remove:
            self.remove_qubits([a, b])
        return outcome, keep

    # -- qubit removal ---------------------------------------------------

    def remove_qubits(self, qubits: list[int]):
        """Drop qubits that are in a product state with the rest."""
        n = self.n
        drop = sorted(set(qubits))
        keep = [q for q in range(n) if q not in drop]
        # find generator products with no support on the dropped qubits
        cols = []
        for g in self.stabs:
            cols.append([g.x_bit(q) for q in drop] + [g.z_bit(q) for q in drop])
        m = np.array(cols, dtype=np.uint8)
        basis = gf2.nullspace(m.T)
        if len(basis) != len(keep):
            raise TableauError("removed qubits are still entangled with the rest")
        # restrict() drops the phase, so carry the sign over explicitly
        new_gens = []
        for combo in basis:
            acc = PauliString.identity(n)
            for k in np.flatnonzero(combo):
                acc = acc * self.stabs[int(k)]
            for q in drop:
                if acc.x_bit(q) or acc.z_bit(q):
                    raise TableauError("nullspace combination touches dropped qubit")
            r = acc.restrict(keep)
            sign_phase = (acc.phase - acc.y_count) % 4
            new_gens.append(r.with_phase((r.y_count + sign_phase) % 4))
        reduced = StabilizerState.from_generators(new_gens)
        self.stabs = reduced.stabs
        self.destabs = reduced.destabs

    def tensor(self, other: "StabilizerState") -> "StabilizerState":
        n1, n2 = self.n, other.n
        n = n1 + n2
        left = list(range(n1))
        right = list(range(n1, n))
        stabs = [g.embed(n, left) for g in self.stabs]
        stabs += [g.embed(n, right) for g in other.stabs]
        destabs = [d.embed(n, left) for d in self.destabs]
        destabs += [d.embed(n, right) for d in other.destabs]
        return StabilizerState(stabs, destabs)

    # -- comparisons and export -------------------------------------------

    def canonical_generators(self) -> tuple[PauliString, ...]:
        """Unique generator set via sign-tracked RREF (state equality key)."""
        n = self.n
        rows = list(self.stabs)
        pivots_done = 0
        for col in [("x", q) for q in range(n)] + [("z", q) for q in range(n)]:
            kind, q = col
            bit = (lambda g: g.x_bit(q)) if kind == "x" else (lambda g: g.z_bit(q))
            pivot = next((i for i in range(pivots_done, len(rows)) if bit(rows[i])), None)
            if pivot is None:
                continue
            rows[pivots_done], rows[pivot] = rows[pivot], rows[pivots_done]
            for i in range(len(rows)):
                if i != pivots_done and bit(rows[i]):
                    rows[i] = rows[i] * rows[pivots_done]
            pivots_done += 1
        return tuple(rows)

    def same_state(self, other: "StabilizerState") -> bool:
        if self.n != other.n:
            return False
        return self.canonical_generators() == other.canonical_generators()

    def to_dense(self) -> np.ndarray:
        """Dense state vector (the joint +1 eigenvector of all generators)."""
        n = self.n
        v = _project_all(self.stabs, basis_state(n, 0))
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            probe_rng = np.random.default_rng(0xC0FFEE)
            probe = probe_rng.normal(size=1 << n) + 1j * probe_rng.normal(size=1 << n)
            v = _project_all(self.stabs, probe)
            norm = np.linalg.norm(v)
        v = v / norm
        lead = np.flatnonzero(np.abs(v) > 1e-9)[0]
        return v * (abs(v[lead]) / v[lead])


def _project_all(gens: list[PauliString], v: np.ndarray) -> np.ndarray:
    for g in gens:
        v = (v + apply_pauli_vec(g, v)) / 2
    return v


def _symp_vec(p: PauliString) -> np.ndarray:
    n = p.n
    out = np.zeros(2 * n, dtype=np.uint8)
    for j in range(n):
        out[j] = p.x_bit(j)
        out[n + j] = p.z_bit(j)
    return out


def _from_symp_vec(n: int, vec: np.ndarray) -> PauliString:
    x = z = 0
    for j in range(n):
        if vec[j]:
            x |= 1 << j
        if vec[n + j]:
            z |= 1 << j
    return PauliString(n, x, z, 0).unsigned()


# -- graph states -------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Graph with optional per-vertex local-Clifford tags.

    Tags are strings of single-qubit gate names (e.g. "H", "HS") applied
    left to right to that vertex of the plain graph state.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    lc_tags: tuple = ()

    def __post_init__(self):
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("edge endpoint out of range")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "lc_tags", tuple(sorted(self.lc_tags)))

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def to_text(self) -> str:
        edge_part = ", ".join(f"{a}-{b}" for a, b in sorted(self.edges))
        text = f"{self.n}; {edge_part}"
        if self.lc_tags:
            tag_part = ",".join(f"{v}={t}" for v, t in self.lc_tags)
            text += f"; lc: {tag_part}"
        return text

    @classmethod
    def from_text(cls, text: str) -> "GraphSpec":
        parts = [p.strip() for p in text.strip().split(";")]
        if len(parts) < 2:
            raise ValueError(f"malformed graph spec {text!r}")
        n = int(parts[0])
        edges = set()
        if parts[1]:
            for item in parts[1].split(","):
                item = item.strip()
                if not item:
                    continue
                a, b = item.split("-")
                edges.add((int(a), int(b)))
        tags = []
        if len(parts) > 2 and parts[2]:
            body = parts[2]
            if not body.startswith("lc:"):
                raise ValueError("third section must start with 'lc:'")
            for item in body[3:].split(","):
                item = item.strip()
                if not item:
                    continue
                v, t = item.split("=")
                tags.append((int(v), t.strip()))
        return cls(n, frozenset(edges), tuple(tags))


def ring_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((k, (k + 1) % n) for k in range(n)))


def path_graph(n: int) -> GraphSpec:
    return GraphSpec(n, frozenset((k, k + 1) for k in range(n - 1)))


def graph_state(g: GraphSpec) -> StabilizerState:
    """State stabilized by K_a = X_a prod_{b in N(a)} Z_b, then LC tags."""
    n = g.n
    stabs = []
    for a in range(n):
        row = PauliString.single(n, a, "X")
        for b in g.neighbors(a):
            row = row * PauliString.single(n, b, "Z")
        stabs.append(row)
    destabs = [PauliString.single(n, a, "Z") for a in range(n)]
    state = StabilizerState(stabs, destabs)
    for v, tag in g.lc_tags:
        for name in _split_tag(tag):
            state.apply_gate(name, v)
    return state


def _split_tag(tag: str) -> list[str]:
    names = []
    i = 0
    tag = tag.upper()
    while i < len(tag):
        if tag[i:i + 3] == "SDG":
            names.append("SDG")
            i += 3
        else:
            names.append(tag[i])
            i += 1
    return names


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
            trial.apply_gate("H", q)
            m = np.array(
                [[g.x_bit(c) for c in range(n)] for g in trial.stabs], dtype=np.uint8
            )
            if gf2.rank(m) > r:
                work.apply_gate("H", q)
                ops.append(("H", q))
                r = gf2.rank(xmat())
                improved = True
                break
        if not improved:
            raise TableauError("cannot complete X-block rank (not a stabilizer state?)")

    # row-reduce the generators so the X block becomes the identity
    rows = list(work.stabs)
    for q in range(n):
        pivot = next(i for i in range(q, n) if rows[i].x_bit(q))
        rows[q], rows[pivot] = rows[pivot], rows[q]
        for i in range(n):
            if i != q and rows[i].x_bit(q):
                rows[i] = rows[i] * rows[q]
    work.stabs = rows
    work.destabs = StabilizerState.from_generators(rows).destabs

    for q in range(n):
        if work.stabs[q].z_bit(q):
            work.apply_gate("SDG", q)
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
    from itertools import permutations

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


# -- module-level functional forms ---------------------------------------


def measure_pauli(state: StabilizerState, p: PauliString, rng=None,
                  force: int | None = None) -> tuple[int, StabilizerState]:
    """Functional Pauli measurement: returns (outcome, new state)."""
    out = state.copy()
    o = out.measure(p, rng, force)
    return o, out


def bell_measure(state: StabilizerState, a: int, b: int, rng=None,
                 force: BellOutcome | None = None) -> tuple[BellOutcome, StabilizerState]:
    """Functional Bell measurement; (a, b) are removed from the result."""
    out = state.copy()
    outcome, _ = out.bell_measure(a, b, rng, force)
    return outcome, out
