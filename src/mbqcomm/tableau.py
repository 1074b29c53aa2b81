"""Stabilizer-state engine with destabilizer bookkeeping.

The tableau stores n stabilizer generators plus n destabilizers (used to
resolve deterministic measurement outcomes), all as phased PauliStrings
(Aaronson and Gottesman, PRA 70, 052328, 2004). Measurements of
arbitrary Pauli operators and Bell measurements with qubit removal
live here.

A qubit leaves a tableau in one way (`StabilizerState.drop_measured`).
The operators that measure it out are pinned as stabilizer rows by
`measure`, and every other row is cleared of the dropped qubits in one
pass, by the pinned rows that its part there is made of; the bits are
then cut out with `PauliString.without`. Bell measurements pin X_a X_b
and Z_a Z_b, resource builds their pre-measured operators.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .pauli import CliffordMap, PauliError, PauliString


class TableauError(ValueError):
    """Raised on invalid tableaus or impossible projections."""


class InconsistentProjection(TableauError):
    """Forcing a measurement outcome that has probability zero."""


class StabilizerState:
    """n-qubit pure stabilizer state as a destabilizer tableau."""

    def __init__(self, stabs: list[PauliString], destabs: list[PauliString]):
        self.stabs = list(stabs)
        self.destabs = list(destabs)

    # -- constructors --------------------------------------------------

    @classmethod
    def bell_pair(cls) -> "StabilizerState":
        """|phi+> on qubits (0, 1)."""
        return cls([PauliString.from_string("XX"), PauliString.from_string("ZZ")],
                   [PauliString.from_string("ZI"), PauliString.from_string("IX")])

    def copy(self) -> "StabilizerState":
        return StabilizerState(list(self.stabs), list(self.destabs))

    @property
    def n(self) -> int:
        return self.stabs[0].n if self.stabs else 0

    # -- Paulis ----------------------------------------------------------

    def apply_pauli(self, p: PauliString):
        """Apply a Pauli operator (flips generator signs only)."""
        self.stabs = [g if g.commutes(p) else g.negate() for g in self.stabs]

    # -- measurement -----------------------------------------------------

    def measure(self, p: PauliString, rng=None, force: int | None = None,
                pinned: list[int] | None = None) -> int:
        """Measure a Hermitian Pauli; returns the +-1 outcome and updates.

        `force` pins the outcome: allowed freely in the random case, and
        raises InconsistentProjection if a deterministic outcome differs.

        `pinned` lists the rows that hold measured operators, for
        `drop_measured`. With it the signed p stays a stabilizer row and
        its row joins the list. A random outcome then pivots on a pinned
        row that anticommutes with p if there is one, so pinned rows are
        only ever multiplied by pinned rows. A deterministic p replaces an
        unpinned row among those whose product it is, and the other such
        destabilizers are multiplied by that row's, so every pairing
        holds; if all of those rows are pinned, p already lies in their
        group and no row joins.
        """
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
        anti_destabs = [k for k, d in enumerate(self.destabs)
                        if (d.x & pz ^ d.z & px).bit_count() & 1]
        if anti_stabs:
            piv = anti_stabs[0]
            if pinned:
                piv = next((k for k in anti_stabs if k in pinned), piv)
            pivot_row = self.stabs[piv]
            for k in anti_stabs:
                if k != piv:
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
            if pinned is not None and piv not in pinned:
                pinned.append(piv)
            return outcome
        # deterministic: reconstruct +-P as a product of generators
        acc = PauliString.identity(n)
        for k in anti_destabs:
            acc = acc * self.stabs[k]
        if acc.x != p.x or acc.z != p.z:
            raise TableauError("deterministic reconstruction failed")
        outcome = 1 if acc.phase == p.phase else -1
        if force is not None and outcome != (1 if force >= 0 else -1):
            raise InconsistentProjection("projection has probability zero")
        if pinned is None:
            return outcome
        # +-p is the product of the rows in anti_destabs, so it can stand
        # in for any one of them
        row = next((k for k in anti_destabs if k not in pinned), -1)
        if row < 0:
            return outcome
        partner = self.destabs[row]
        for k in anti_destabs:
            if k != row:
                self.destabs[k] = self.destabs[k] * partner
        self.stabs[row] = p if outcome == 1 else p.negate()
        pinned.append(row)
        return outcome

    def bell_measure(self, a: int, b: int, rng=None) -> int:
        """Bell measurement on qubits (a, b): measures X_a X_b then Z_a Z_b,
        pins both as stabilizer rows and drops the pair with
        `drop_measured`; the other qubits keep their order.

        Returns the teleportation byproduct as a letter code 2x + z (I, Z,
        X, Y = 0, 1, 2, 3): an X on one half flips ZZ, a Z flips XX. It is
        also the Bell-diagonal index of the measured pair.

        Each row other than the two pinned ones commutes with both, so its
        part on (a, b) is II, XX, YY or ZZ, and the one-pass rule
        multiplies it by the XX row if it has x_a and by the ZZ row if it
        has z_a. What is random or deterministic, and a deterministic
        value, depend on the state alone, so this takes the same rng draws
        as measuring and then eliminating the pair by Gauss-Jordan.
        """
        n = self.n
        _check_qubits((a, b), n)
        if a == b:
            raise TableauError("Bell measurement needs two distinct qubits")
        pair = 1 << a | 1 << b
        pinned: list[int] = []
        sx = self.measure(PauliString(n, pair, 0), rng, pinned=pinned)
        sz = self.measure(PauliString(n, 0, pair), rng, pinned=pinned)
        self.drop_measured(pinned, (a, b))
        return (1 - sz) + (1 - sx) // 2

    # -- qubit removal ---------------------------------------------------

    def drop_measured(self, pinned: list[int], qubits):
        """Remove `qubits`, which the `pinned` stabilizer rows measure out.

        `pinned` are the rows that `measure(..., pinned=...)` left, one
        per dropped qubit, each acting on `qubits` alone. Pinned row j is
        paired with destabilizer j (<s_i, d_j> = delta_ij), so the part
        of any other row on `qubits` is the product of the pinned rows j
        whose destabilizer meets it oddly there. One pass multiplies those
        in, which clears `qubits`, and their bits are cut out with
        `PauliString.without`. The pinned rows and their destabilizers are
        deleted. Stabilizers keep their phase; destabilizers come out
        unsigned. Raises TableauError, leaving the state as it was, when
        the pinned rows do not measure `qubits` out.
        """
        n = self.n
        drop = sorted(set(qubits))
        _check_qubits(drop, n)
        if len(pinned) != len(drop):
            raise TableauError("removed qubits are still entangled with the rest")
        mask = sum(1 << q for q in drop)
        pins = [(self.stabs[j], self.destabs[j].x & mask, self.destabs[j].z & mask)
                for j in pinned]
        if any((g.x | g.z) & ~mask for g, _, _ in pins):
            raise TableauError("a pinned row reaches a kept qubit")

        def cleared(row: PauliString) -> PauliString:
            # a pinned row meets no other pin's destabilizer, so every
            # coefficient can be read off the row as it came
            x, z = row.x, row.z
            if (x | z) & mask:
                for g, dx, dz in pins:
                    if (x & dz ^ z & dx).bit_count() & 1:
                        row = row * g
                if (row.x | row.z) & mask:
                    raise TableauError("removed qubits are still entangled with the rest")
            return row

        rest = [k for k in range(n) if k not in pinned]
        stabs = [cleared(self.stabs[k]) for k in rest]
        destabs = [cleared(self.destabs[k]) for k in rest]
        self.stabs = [g.without(drop).with_phase(g.phase) for g in stabs]
        self.destabs = [d.without(drop) for d in destabs]

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

