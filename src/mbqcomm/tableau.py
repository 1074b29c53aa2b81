"""Stabilizer-state engine with destabilizer bookkeeping.

The tableau stores n stabilizer generators plus n destabilizers (used to
resolve deterministic measurement outcomes; Aaronson and Gottesman,
PRA 70, 052328, 2004) as plain ints, bit j = qubit j: stabilizer k is
i^sp[k] X^sx[k] Z^sz[k] (the phase convention of `PauliString`) and
destabilizer k is X^dx[k] Z^dz[k], unsigned, since no result reads a
destabilizer's sign. Row products follow `PauliString.multiply`: the
phase of g h is p_g + p_h + 2 |z_g & x_h| (mod 4). Measurements of
arbitrary Pauli operators and Bell measurements with qubit removal live
here, and no row operation builds a PauliString.

A qubit leaves a tableau in one way (`StabilizerState.drop_measured`).
The operators that measure it out are pinned as stabilizer rows by
`measure`, and every other row is cleared of the dropped qubits in one
pass, by the pinned rows that its part there is made of; the bits are
then cut out by shifts. A Bell measurement pins X_a X_b and Z_a Z_b; a
resource's tableau pins its pre-measured letters. Several measurements
can share one pinned list while qubit indices stay fixed, so one pass
removes them all: a QEC station's Bell measurements, or a resource's
pre-measured outputs (Aaronson and Gottesman's pinned-row elimination,
applied to many qubits at once).
"""

from __future__ import annotations

from .pauli import PauliError, PauliString


class TableauError(ValueError):
    """Raised on invalid tableaus or impossible projections."""


class InconsistentProjection(TableauError):
    """Forcing a measurement outcome that has probability zero."""


class StabilizerState:
    """n-qubit pure stabilizer state as a destabilizer tableau.

    Row k is held in five parallel lists of ints (see the module
    docstring): `sx`, `sz` and the phase `sp` of the stabilizer, `dx`
    and `dz` of the unsigned destabilizer. `stabs` and `destabs` are
    read-only tuples of PauliStrings built on each read; assigning a
    whole list of PauliStrings to either replaces its rows (destabilizer
    signs are dropped).
    """

    __slots__ = ("n", "sx", "sz", "sp", "dx", "dz")

    def __init__(self, stabs: list[PauliString], destabs: list[PauliString]):
        self.stabs = stabs
        self.destabs = destabs

    # -- constructors --------------------------------------------------

    @classmethod
    def _from_rows(cls, n: int, sx: list[int], sz: list[int], sp: list[int],
                   dx: list[int], dz: list[int]) -> "StabilizerState":
        """The state with these row lists, taken as they are."""
        state = object.__new__(cls)
        state.n, state.sx, state.sz, state.sp, state.dx, state.dz = n, sx, sz, sp, dx, dz
        return state

    @classmethod
    def bell_pair(cls) -> "StabilizerState":
        """|phi+> on qubits (0, 1): stabilizers XX, ZZ with destabilizers
        ZI, IX."""
        return cls._from_rows(2, [0b11, 0], [0, 0b11], [0, 0], [0, 0b10], [0b01, 0])

    # -- rows as PauliStrings ------------------------------------------

    @property
    def stabs(self) -> tuple[PauliString, ...]:
        n = self.n
        return tuple(PauliString(n, x, z, p) for x, z, p in zip(self.sx, self.sz, self.sp))

    @stabs.setter
    def stabs(self, rows: list[PauliString]):
        rows = list(rows)
        self.n = rows[0].n if rows else 0
        self.sx = [g.x for g in rows]
        self.sz = [g.z for g in rows]
        self.sp = [g.phase for g in rows]

    @property
    def destabs(self) -> tuple[PauliString, ...]:
        n = self.n
        return tuple(PauliString(n, x, z, (x & z).bit_count()) for x, z in zip(self.dx, self.dz))

    @destabs.setter
    def destabs(self, rows: list[PauliString]):
        rows = list(rows)
        self.dx = [d.x for d in rows]
        self.dz = [d.z for d in rows]

    # -- Paulis ----------------------------------------------------------

    def apply_pauli(self, p: PauliString):
        """Apply a Pauli operator (flips generator signs only)."""
        if p.n != self.n:
            raise PauliError("length mismatch in Pauli application")
        px, pz = p.x, p.z
        self.sp = [ph ^ 2 if (x & pz ^ z & px).bit_count() & 1 else ph
                   for x, z, ph in zip(self.sx, self.sz, self.sp)]

    # -- measurement -----------------------------------------------------

    def measure(self, p: PauliString, rng=None, force: int | None = None,
                pinned: list[int] | None = None) -> int:
        """Measure a Hermitian Pauli; returns the +-1 outcome and updates.

        `force` pins the outcome: allowed freely in the random case, and
        raises InconsistentProjection if a deterministic outcome differs.

        The signed p always stays a stabilizer row. `pinned` lists the
        rows that hold measured operators, for `drop_measured`, and p's
        row joins it (a fresh list when none is given). A random outcome
        pivots on a pinned row that anticommutes with p if there is one,
        so pinned rows are only ever multiplied by pinned rows. A
        deterministic p replaces an unpinned row among those whose product
        it is, and the other such destabilizers are multiplied by that
        row's, so every pairing holds; if all of those rows are pinned, p
        already lies in their group and no row joins.
        """
        if p.is_identity:
            raise TableauError("cannot measure the identity")
        if not p.is_hermitian:
            raise TableauError("measured operator must be Hermitian")
        if p.n != self.n:
            raise PauliError("length mismatch in measurement")
        return self._measure(p.x, p.z, p.phase, rng, force, [] if pinned is None else pinned)

    def _measure(self, px: int, pz: int, phase: int, rng, force, pinned: list[int]) -> int:
        """`measure` of i^phase X^px Z^pz, which it has checked, pinned
        in `pinned`."""
        sx, sz, sp, dx, dz = self.sx, self.sz, self.sp, self.dx, self.dz
        # rows that anticommute with p: odd symplectic product with (px, pz)
        rows = range(self.n)
        anti_stabs = [k for k in rows if (sx[k] & pz ^ sz[k] & px).bit_count() & 1]
        anti_destabs = [k for k in rows if (dx[k] & pz ^ dz[k] & px).bit_count() & 1]
        if anti_stabs:
            piv = anti_stabs[0]
            if pinned:
                piv = next((k for k in anti_stabs if k in pinned), piv)
            gx, gz, gp = sx[piv], sz[piv], sp[piv]
            for k in anti_stabs:
                if k != piv:
                    sp[k] = sp[k] + gp + ((sz[k] & gx).bit_count() & 1) * 2 & 3
                    sx[k] ^= gx
                    sz[k] ^= gz
            for k in anti_destabs:
                dx[k] ^= gx
                dz[k] ^= gz
            if force is not None:
                outcome = 1 if force >= 0 else -1
            else:
                if rng is None:
                    raise TableauError("random outcome requires an rng")
                outcome = 1 if int(rng.integers(0, 2)) == 0 else -1
            dx[piv], dz[piv] = gx, gz
            sx[piv], sz[piv], sp[piv] = px, pz, phase if outcome == 1 else phase ^ 2
            if piv not in pinned:
                pinned.append(piv)
            return outcome
        # deterministic: reconstruct +-P as a product of generators
        ax = az = ap = 0
        for k in anti_destabs:
            x = sx[k]
            ap += sp[k] + ((az & x).bit_count() & 1) * 2
            ax ^= x
            az ^= sz[k]
        if ax != px or az != pz:
            raise TableauError("deterministic reconstruction failed")
        outcome = 1 if ap & 3 == phase else -1
        if force is not None and outcome != (1 if force >= 0 else -1):
            raise InconsistentProjection("projection has probability zero")
        # +-p is the product of the rows in anti_destabs, so it can stand
        # in for any one of them
        row = next((k for k in anti_destabs if k not in pinned), -1)
        if row < 0:
            return outcome
        rx, rz = dx[row], dz[row]
        for k in anti_destabs:
            if k != row:
                dx[k] ^= rx
                dz[k] ^= rz
        sx[row], sz[row], sp[row] = px, pz, phase if outcome == 1 else phase ^ 2
        pinned.append(row)
        return outcome

    def bell_measure(self, a: int, b: int, rng, pinned: list[int]) -> int:
        """Bell measurement on qubits (a, b): measures X_a X_b then Z_a Z_b,
        pins both as stabilizer rows and adds them to `pinned`. The pair
        stays in place, so that one `drop_measured` of every measured
        qubit removes several pairs in one pass; pairs that share a list
        must be disjoint, as no pinned row may act on a later pair.

        Returns the teleportation byproduct as a letter code 2x + z (I, Z,
        X, Y = 0, 1, 2, 3): an X on one half flips ZZ, a Z flips XX. It is
        also the Bell-diagonal index of the measured pair.

        Each row other than the pinned ones commutes with both, so its
        part on (a, b) is II, XX, YY or ZZ, and the one-pass rule
        multiplies it by the XX row if it has x_a and by the ZZ row if it
        has z_a. What is random or deterministic, and a deterministic
        value, depend on the state alone, so this takes the same rng draws
        as measuring and then eliminating the pair by Gauss-Jordan, with
        or without other pairs on the list.
        """
        _check_qubits((a, b), self.n)
        if a == b:
            raise TableauError("Bell measurement needs two distinct qubits")
        pair = 1 << a | 1 << b
        xx = self._measure(pair, 0, 0, rng, None, pinned)
        zz = self._measure(0, pair, 0, rng, None, pinned)
        return (1 - zz) + (1 - xx) // 2

    # -- qubit removal ---------------------------------------------------

    def drop_measured(self, pinned: list[int], qubits):
        """Remove `qubits`, which the `pinned` stabilizer rows measure out.

        `pinned` are the rows that `measure(..., pinned=...)` left, one
        per dropped qubit, each acting on `qubits` alone. Pinned row j is
        paired with destabilizer j (<s_i, d_j> = delta_ij), so the part
        of any other row on `qubits` is the product of the pinned rows j
        whose destabilizer meets it oddly there. One pass multiplies those
        in, which clears `qubits`, and their bits are cut out by shifts.
        The pinned rows and their destabilizers are deleted. Stabilizers
        keep their phase. Raises TableauError, leaving the state as it
        was, when the pinned rows do not measure `qubits` out.
        """
        n = self.n
        drop = sorted(set(qubits))
        _check_qubits(drop, n)
        if len(pinned) != len(drop):
            raise TableauError("removed qubits are still entangled with the rest")
        mask = sum(1 << q for q in drop)
        # work on copies, so that a raise leaves the state as it was
        sx, sz, sp, dx, dz = self.sx[:], self.sz[:], self.sp[:], self.dx[:], self.dz[:]
        pins = [(sx[j], sz[j], sp[j], dx[j] & mask, dz[j] & mask) for j in pinned]
        if any((gx | gz) & ~mask for gx, gz, _, _, _ in pins):
            raise TableauError("a pinned row reaches a kept qubit")
        for j in sorted(pinned, reverse=True):
            del sx[j], sz[j], sp[j], dx[j], dz[j]
        # a pinned row meets no other pin's destabilizer, so every
        # coefficient can be read off the row as it came
        rows = range(n - len(drop))
        for k in [k for k in rows if (sx[k] | sz[k]) & mask]:
            x, z, p = sx[k], sz[k], sp[k]
            for gx, gz, gp, mx, mz in pins:
                if (sx[k] & mz ^ sz[k] & mx).bit_count() & 1:
                    p += gp + ((z & gx).bit_count() & 1) * 2
                    x ^= gx
                    z ^= gz
            if (x | z) & mask:
                raise TableauError("removed qubits are still entangled with the rest")
            sx[k], sz[k], sp[k] = x, z, p & 3
        for k in [k for k in rows if (dx[k] | dz[k]) & mask]:
            x, z = dx[k], dz[k]
            for gx, gz, _, mx, mz in pins:
                if (dx[k] & mz ^ dz[k] & mx).bit_count() & 1:
                    x ^= gx
                    z ^= gz
            if (x | z) & mask:
                raise TableauError("removed qubits are still entangled with the rest")
            dx[k], dz[k] = x, z
        # every row is clear of the dropped qubits: cut each one out by
        # moving the bits above it down by one, on all four columns at once
        parts = sx + sz + dx + dz
        for q in reversed(drop):
            low = (1 << q) - 1
            high = ~low
            parts = [v & low | v >> 1 & high for v in parts]
        m = len(sp)
        self.n = m
        self.sx, self.sz, self.sp = parts[:m], parts[m:2 * m], sp
        self.dx, self.dz = parts[2 * m:3 * m], parts[3 * m:]

    def tensor(self, other: "StabilizerState") -> "StabilizerState":
        n1 = self.n
        return StabilizerState._from_rows(
            n1 + other.n,
            self.sx + [x << n1 for x in other.sx], self.sz + [z << n1 for z in other.sz],
            self.sp + other.sp,
            self.dx + [x << n1 for x in other.dx], self.dz + [z << n1 for z in other.dz])


def _check_qubits(qubits, n: int):
    """Reject a qubit index outside 0..n-1 (bits are cut out by shifts,
    which would silently shift the wrong ones)."""
    for q in qubits:
        if not 0 <= q < n:
            raise TableauError(f"qubit {q} out of range for n={n}")
