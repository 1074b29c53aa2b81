"""Stabilizer-state engine with destabilizer bookkeeping.

The tableau stores n stabilizer generators plus n destabilizers (used to
resolve deterministic measurement outcomes), all as phased PauliStrings
(Aaronson and Gottesman, PRA 70, 052328, 2004). Measurements of
arbitrary Pauli operators and Bell measurements with qubit removal
live here.

Qubits leave a tableau in two ways. A Bell measurement pins its two
measured operators as stabilizer rows and drops the pair in one pass
over the rows (`StabilizerState.bell_measure`). `remove_qubits` drops
any product-state qubits by two Gauss-Jordan eliminations; resource
builds use it, and the rows it leaves are pinned by the catalog digests
in the tests. Both cut the dropped bits out with `PauliString.without`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .pauli import CliffordMap, PauliError, PauliString

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


class StabilizerState:
    """n-qubit pure stabilizer state as a destabilizer tableau."""

    def __init__(self, stabs: list[PauliString], destabs: list[PauliString]):
        self.stabs = list(stabs)
        self.destabs = list(destabs)

    # -- constructors --------------------------------------------------

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
        """Build a state from n commuting independent generators on n qubits.

        The generators are the Z images of a Clifford completed by
        `complete_clifford`; its X images are the destabilizers.
        """
        c = complete_clifford({}, dict(enumerate(gens)), len(gens))
        return cls(list(c.image_z), list(c.image_x))

    def copy(self) -> "StabilizerState":
        return StabilizerState(list(self.stabs), list(self.destabs))

    @property
    def n(self) -> int:
        return self.stabs[0].n if self.stabs else 0

    # -- unitaries and Paulis -------------------------------------------

    def apply_pauli(self, p: PauliString):
        """Apply a Pauli operator (flips generator signs only)."""
        self.stabs = [g if g.commutes(p) else g.negate() for g in self.stabs]

    def apply_clifford(self, c: CliffordMap):
        self.stabs = [c.conjugate(g) for g in self.stabs]
        self.destabs = [c.conjugate(d) for d in self.destabs]

    # -- measurement -----------------------------------------------------

    def measure(self, p: PauliString, rng=None, force: int | None = None,
                prob_sink: list | None = None) -> int:
        """Measure a Hermitian Pauli; returns the +-1 outcome and updates.

        `force` pins the outcome: allowed freely in the random case, and
        raises InconsistentProjection if a deterministic outcome differs.
        `prob_sink` collects the Born probability of the taken branch
        (0.5 for random outcomes, 1.0 for deterministic ones).
        """
        return self._measure(p, rng, force, prob_sink)[0]

    def _measure(self, p: PauliString, rng, force: int | None, prob_sink: list | None,
                 pin: bool = False, avoid: int = -1) -> tuple[int, int]:
        """`measure`, returning (outcome, row). After a random outcome the
        signed p is stabilizer row `row`. After a deterministic one, with
        `pin`, it replaces row `row` (never `avoid`), one whose
        destabilizer anticommutes with p, and the other such destabilizers
        are multiplied by that row's, so every pairing holds; without
        `pin` the tableau is untouched and `row` is -1."""
        if p.is_identity:
            raise TableauError("cannot measure the identity")
        if not p.is_hermitian:
            raise TableauError("measured operator must be Hermitian")
        n = self.n
        if p.n != n:
            raise PauliError("length mismatch in measurement")
        px, pz = p.x, p.z
        # rows that anticommute with p: odd symplectic product with (px, pz)
        anti_stabs = [k for k, g in enumerate(self.stabs)
                      if (g.x & pz ^ g.z & px).bit_count() & 1]
        if prob_sink is not None:
            prob_sink.append(0.5 if anti_stabs else 1.0)
        anti_destabs = [k for k, d in enumerate(self.destabs)
                        if (d.x & pz ^ d.z & px).bit_count() & 1]
        if anti_stabs:
            piv = anti_stabs[0]
            pivot_row = self.stabs[piv]
            for k in anti_stabs[1:]:
                self.stabs[k] = self.stabs[k] * pivot_row
            for k in anti_destabs:
                self.destabs[k] = self.destabs[k] * pivot_row
            if force is not None:
                outcome = 1 if force >= 0 else -1
            else:
                if rng is None:
                    raise TableauError("random outcome requires an rng")
                outcome = 1 if int(rng.integers(0, 2)) == 0 else -1
            self.destabs[piv] = pivot_row
            self.stabs[piv] = p if outcome == 1 else p.negate()
            return outcome, piv
        # deterministic: reconstruct +-P as a product of generators
        acc = PauliString.identity(n)
        for k in anti_destabs:
            acc = acc * self.stabs[k]
        if acc.x != p.x or acc.z != p.z:
            raise TableauError("deterministic reconstruction failed")
        outcome = 1 if acc.phase == p.phase else -1
        if force is not None and outcome != (1 if force >= 0 else -1):
            raise InconsistentProjection("projection has probability zero")
        if not pin:
            return outcome, -1
        # +-p is the product of the rows in anti_destabs, so it can stand
        # in for any one of them
        row = next(k for k in anti_destabs if k != avoid)
        partner = self.destabs[row]
        for k in anti_destabs:
            if k != row:
                self.destabs[k] = self.destabs[k] * partner
        self.stabs[row] = p if outcome == 1 else p.negate()
        return outcome, row

    def bell_measure(self, a: int, b: int, rng=None,
                     force: BellOutcome | None = None,
                     prob_sink: list | None = None) -> tuple[BellOutcome, list[int]]:
        """Bell measurement on qubits (a, b).

        Measures X_a X_b then Z_a Z_b, removes both qubits, and returns
        the outcome plus the old indices of the surviving qubits (the new
        index of old qubit q is the position of q in that list).

        The removal is one pass over the rows. Each measured operator,
        signed by its outcome, is pinned as a stabilizer row (`_measure`
        with `pin`; ZZ never replaces the XX row). Every other row commutes
        with both, so its part on (a, b) is II, XX, YY or ZZ: it is
        multiplied by the XX row if it has x_a and by the ZZ row if it has
        z_a, which leaves II there, and bits a and b are cut out. The two
        pinned rows and their destabilizers are deleted. Stabilizers keep
        their phase; destabilizers come out unsigned. What is random or
        deterministic, and a deterministic value, depend on the state
        alone, so this takes the same rng draws as measuring and then
        calling `remove_qubits`.
        """
        n = self.n
        _check_qubits((a, b), n)
        if a == b:
            raise TableauError("Bell measurement needs two distinct qubits")
        pair = 1 << a | 1 << b
        xx, zz = PauliString(n, pair, 0), PauliString(n, 0, pair)
        fx = None if force is None else (1 - 2 * force.b_x)
        fz = None if force is None else (1 - 2 * force.b_z)
        sx, kx = self._measure(xx, rng, fx, prob_sink, pin=True)
        sz, kz = self._measure(zz, rng, fz, prob_sink, pin=True, avoid=kx)
        row_x, row_z = self.stabs[kx], self.stabs[kz]
        bit = 1 << a
        drop = sorted((a, b))

        def cleared(row: PauliString) -> PauliString:
            if row.x & bit:
                row = row * row_x
            if row.z & bit:
                row = row * row_z
            return row

        rest = [k for k in range(n) if k != kx and k != kz]
        stabs = [cleared(self.stabs[k]) for k in rest]
        self.stabs = [g.without(drop).with_phase(g.phase) for g in stabs]
        self.destabs = [cleared(self.destabs[k]).without(drop) for k in rest]
        outcome = BellOutcome(b_x=(1 - sx) // 2, b_z=(1 - sz) // 2)
        return outcome, [q for q in range(n) if q != a and q != b]

    # -- qubit removal ---------------------------------------------------

    def remove_qubits(self, qubits: list[int]):
        """Drop qubits that are in a product state with the rest.

        Reduces the tableau in place with `_eliminate`. A product state
        leaves exactly one pivot row per dropped qubit after elimination on
        the dropped columns; elimination on the kept columns clears the
        kept qubits from those rows, which are then deleted. Bell
        measurements drop their pair in one pass instead (`bell_measure`);
        resource builds keep this elimination because the rows it leaves
        are pinned by the catalog digests in the tests.
        """
        n = self.n
        drop = sorted(set(qubits))
        _check_qubits(drop, n)
        keep = [q for q in range(n) if q not in drop]
        stabs, destabs = list(self.stabs), list(self.destabs)
        dropped = _eliminate(stabs, destabs, _columns(drop), range(n))
        if len(dropped) != len(drop):
            raise TableauError("removed qubits are still entangled with the rest")
        rest = [i for i in range(n) if i not in dropped]
        _eliminate(stabs, destabs, _columns(keep), rest)
        # the surviving stabilizers do not touch the dropped qubits, so each
        # keeps its phase; the dropped rows now act there alone and a
        # surviving destabilizer commutes with them, so its part there lies
        # in their group and cutting it off keeps every pairing
        self.stabs = [stabs[k].without(drop).with_phase(stabs[k].phase) for k in rest]
        self.destabs = [destabs[k].without(drop) for k in rest]

    def tensor(self, other: "StabilizerState") -> "StabilizerState":
        n1 = self.n
        n = n1 + other.n
        stabs = [g.shifted(n, 0) for g in self.stabs]
        stabs += [g.shifted(n, n1) for g in other.stabs]
        destabs = [d.shifted(n, 0) for d in self.destabs]
        destabs += [d.shifted(n, n1) for d in other.destabs]
        return StabilizerState(stabs, destabs)


def _check_qubits(qubits, n: int):
    """Reject a qubit index outside 0..n-1 (bits are cut out by shifts,
    which would silently shift the wrong ones)."""
    for q in qubits:
        if not 0 <= q < n:
            raise TableauError(f"qubit {q} out of range for n={n}")


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


def complete_clifford(image_x: dict[int, PauliString],
                      image_z: dict[int, PauliString], n: int) -> CliffordMap:
    """Clifford on n qubits with the given images of some X_k and Z_k.

    The missing images are filled in, X_0..X_{n-1} then Z_0..Z_{n-1}, by
    solving their symplectic pairing with every image known so far over
    GF(2). Raises TableauError when no Clifford has the given images.
    """
    known: dict[tuple[str, int], PauliString] = {}
    known.update((("x", k), p) for k, p in image_x.items())
    known.update((("z", k), p) for k, p in image_z.items())
    if any(p.n != n for p in known.values()):
        raise TableauError(f"images must act on exactly {n} qubits")
    for key in [("x", k) for k in range(n)] + [("z", k) for k in range(n)]:
        if key in known:
            continue
        kind, k = key
        partner = ("z" if kind == "x" else "x", k)
        # row of image p: the functional v -> <p, v> (symplectic product)
        rows = np.array([[p.z_bit(j) for j in range(n)] + [p.x_bit(j) for j in range(n)]
                         for p in known.values()], dtype=np.uint8)
        rhs = np.array([other == partner for other in known], dtype=np.uint8)
        sol = gf2.solve(rows, rhs)
        if sol is None:
            raise TableauError("symplectic completion failed (images dependent?)")
        x = sum(int(b) << j for j, b in enumerate(sol[:n]))
        z = sum(int(b) << j for j, b in enumerate(sol[n:]))
        known[key] = PauliString(n, x, z, 0).unsigned()
    try:
        return CliffordMap.from_images([known["x", k] for k in range(n)],
                                       [known["z", k] for k in range(n)])
    except PauliError as exc:
        raise TableauError(str(exc)) from exc

