"""Phased Pauli operators and Clifford maps in the binary symplectic picture.

A Pauli operator on n qubits is stored as two bit vectors (packed into
Python integers, bit j = qubit j) plus a global phase tracked as a power
of i modulo 4:

    P = i^phase * prod_j X_j^{x_j} * prod_j Z_j^{z_j}

With this convention Y = i*X*Z, so the canonical "+Y" has phase 1.
Clifford maps are stored by the images of the generators X_k, Z_k.

Validation happens once, where a PauliString is built from outside
input: the public constructor, `single`, `from_string`, `embed` (which
places a Pauli on any listed qubits) and `shifted` reject a negative
qubit count, x/z bits outside the register and unknown letters, and
reduce the phase modulo 4. Every operand of the
algebra therefore satisfies the invariant: x and z lie inside n bits
and 0 <= phase < 4. Products, phase changes, placements and Clifford
images of such operands satisfy it too, so they are built by
`_unchecked`, which skips the checks; the result is equal to, and
hashes like, the same operator built through the public constructor.

A gate is appended to a Clifford map (`CliffordMap.then_gate`,
`circuit_map`) where it acts, as in Aaronson and Gottesman's tableau
update (PRA 70, 052328, 2004). X^x Z^z factorises over qubits with no
sign, so each image's letters on the gate's one or two qubits map alone
to i^d X^x' Z^z' through a small table, and its other letters and its
phase carry over unchanged. The table holds the 4 or 16 local letter
pairs and is built once per gate from `gate_map` on the gate's own
qubits, so `_SINGLE_GATE_IMAGES` and `gate_map` stay the only
definitions of the gates. `gate_map`, `then_gate` and `circuit_map`
reject a gate with a wrong qubit count, a qubit outside the register or
a qubit given twice, in one line, before they apply it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import gf2

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_PHASE_STR = {0: "+", 1: "i", 2: "-", 3: "-i"}


class PauliError(ValueError):
    """Raised for malformed Pauli strings or mismatched qubit counts."""


def _check_register(n: int, x: int, z: int):
    """Reject a negative qubit count and x/z bits outside n qubits."""
    if n < 0:
        raise PauliError("qubit count must be nonnegative")
    if (x | z) >> n:
        raise PauliError("x/z bits outside qubit range")


@dataclass(frozen=True)
class PauliString:
    """Phased n-qubit Pauli operator.

    Attributes
    ----------
    n : int
        Number of qubits.
    x, z : int
        Bit-packed X/Z components; bit j refers to qubit j.
    phase : int
        Global phase as a power of i, modulo 4.
    """

    n: int
    x: int = 0
    z: int = 0
    phase: int = 0

    def __post_init__(self):
        _check_register(self.n, self.x, self.z)
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """Single-qubit Pauli `letter` on `qubit`, identity elsewhere."""
        if not 0 <= qubit < n:
            raise PauliError(f"qubit {qubit} out of range for n={n}")
        if letter not in _LETTER_TO_BITS:
            raise PauliError(f"unknown Pauli letter {letter!r}")
        xb, zb = _LETTER_TO_BITS[letter]
        phase = 1 if letter == "Y" else 0
        return cls(n, xb << qubit, zb << qubit, phase)

    @classmethod
    def from_string(cls, text: str) -> "PauliString":
        """Parse text like "XIZ", "-YY" or "i XZ" (qubit 0 leftmost)."""
        s = text.strip().replace(" ", "")
        phase = 0
        for prefix, ph in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if s.startswith(prefix):
                phase = ph
                s = s[len(prefix):]
                break
        if not s or any(c not in _LETTER_TO_BITS for c in s):
            raise PauliError(f"invalid Pauli string {text!r}")
        n = len(s)
        x = z = 0
        for j, c in enumerate(s):
            xb, zb = _LETTER_TO_BITS[c]
            x |= xb << j
            z |= zb << j
            if c == "Y":
                phase += 1
        return cls(n, x, z, phase % 4)

    @classmethod
    def from_codes(cls, codes: Iterable[int]) -> "PauliString":
        """The unsigned Pauli with one letter code per qubit (see `codes`)."""
        x = z = 0
        codes = [int(c) for c in codes]
        for j, code in enumerate(codes):
            x |= (code >> 1 & 1) << j
            z |= (code & 1) << j
        return cls(len(codes), x, z, (x & z).bit_count())

    # -- basic queries -------------------------------------------------

    def x_bit(self, qubit: int) -> int:
        return (self.x >> qubit) & 1

    def z_bit(self, qubit: int) -> int:
        return (self.z >> qubit) & 1

    def letter(self, qubit: int) -> str:
        return _BITS_TO_LETTER[(self.x_bit(qubit), self.z_bit(qubit))]

    def codes(self) -> list[int]:
        """One letter code 2x + z per qubit (I, Z, X, Y = 0, 1, 2, 3), the
        coding of `ResourceSpec.frame_map`: codes multiply by XOR."""
        return [2 * (self.x >> j & 1) + (self.z >> j & 1) for j in range(self.n)]

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return (self.phase - self.y_count) % 2 == 0

    # -- algebra -------------------------------------------------------

    def multiply(self, other: "PauliString") -> "PauliString":
        """Phased product self * other."""
        if self.n != other.n:
            raise PauliError("length mismatch in Pauli product")
        # commuting Z^z1 past X^x2 contributes (-1)^{|z1 & x2|}
        extra = 2 * ((self.z & other.x).bit_count() & 1)
        return _unchecked(self.n, self.x ^ other.x, self.z ^ other.z,
                          (self.phase + other.phase + extra) % 4)

    __mul__ = multiply

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise PauliError("length mismatch in commutator check")
        t = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return t % 2 == 0

    def with_phase(self, phase: int) -> "PauliString":
        return _unchecked(self.n, self.x, self.z, phase % 4)

    def unsigned(self) -> "PauliString":
        """Same letters with canonical (+) sign."""
        return _unchecked(self.n, self.x, self.z, self.y_count % 4)

    def embed(self, n: int, positions: Sequence[int]) -> "PauliString":
        """Place this Pauli on `positions` of an n-qubit register."""
        if len(positions) != self.n:
            raise PauliError("positions length mismatch")
        sx, sz = self.x, self.z
        x = z = 0
        for i, q in enumerate(positions):
            x |= (sx >> i & 1) << q
            z |= (sz >> i & 1) << q
        _check_register(n, x, z)
        return _unchecked(n, x, z, self.phase)

    def shifted(self, n: int, start: int) -> "PauliString":
        """Place this Pauli on qubits start, start + 1, ... of an n-qubit
        register: `embed` on a contiguous block, by one shift."""
        if start < 0 or start + self.n > n:
            raise PauliError(f"block of {self.n} qubits at {start} outside n={n}")
        return _unchecked(n, self.x << start, self.z << start, self.phase)

    def __str__(self) -> str:
        letters = "".join(self.letter(j) for j in range(self.n))
        return _PHASE_STR[(self.phase - self.y_count) % 4] + letters

    __repr__ = __str__


def _unchecked(n: int, x: int, z: int, phase: int) -> PauliString:
    """PauliString from operands that already satisfy the invariant
    (x, z inside n bits, 0 <= phase < 4); nothing is checked."""
    p = object.__new__(PauliString)
    d = p.__dict__
    d["n"] = n
    d["x"] = x
    d["z"] = z
    d["phase"] = phase
    return p


_SINGLE_GATE_IMAGES = {
    # gate: (image of X, image of Z) as strings on one qubit
    "I": ("+X", "+Z"),
    "H": ("+Z", "+X"),
    "S": ("+Y", "+Z"),
    "SDG": ("-Y", "+Z"),
    "X": ("+X", "-Z"),
    "Y": ("-X", "-Z"),
    "Z": ("-X", "+Z"),
    # sqrt(X) up to phase: used for DEJMPS-style rotations
    "SQX": ("+X", "-Y"),
    "SQXDG": ("+X", "+Y"),
}
_TWO_QUBIT_GATES = ("CNOT", "CZ", "SWAP")


@dataclass(frozen=True)
class CliffordMap:
    """Clifford unitary stored by the images of the Pauli generators.

    image_x[k] = C X_k C^dagger and image_z[k] = C Z_k C^dagger, with
    phases tracked so conjugation is exact including signs.
    """

    n: int
    image_x: tuple[PauliString, ...]
    image_z: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.image_x) != self.n or len(self.image_z) != self.n:
            raise PauliError("image table size mismatch")
        if any(p.n != self.n for p in self.image_x + self.image_z):
            raise PauliError("images must act on the map's qubits")

    @classmethod
    def identity(cls, n: int) -> "CliffordMap":
        return cls(
            n,
            tuple(PauliString.single(n, k, "X") for k in range(n)),
            tuple(PauliString.single(n, k, "Z") for k in range(n)),
        )

    @classmethod
    def from_images(cls, image_x: Iterable[PauliString],
                    image_z: Iterable[PauliString]) -> "CliffordMap":
        ix, iz = tuple(image_x), tuple(image_z)
        c = cls(len(ix), ix, iz)
        if not c.is_valid():
            raise PauliError("images do not define a Clifford (symplectic check failed)")
        return c

    def is_valid(self) -> bool:
        imgs = self.image_x + self.image_z
        if any(not p.is_hermitian for p in imgs):
            return False
        for k in range(self.n):
            if self.image_x[k].commutes(self.image_z[k]):
                return False
            for j in range(k + 1, self.n):
                if not self.image_x[k].commutes(self.image_x[j]):
                    return False
                if not self.image_z[k].commutes(self.image_z[j]):
                    return False
            for j in range(self.n):
                if j != k and not self.image_x[k].commutes(self.image_z[j]):
                    return False
        return True

    def conjugate(self, p: PauliString) -> PauliString:
        """Return C p C^dagger."""
        if p.n != self.n:
            raise PauliError("length mismatch in conjugation")
        # the product of the images of p's X bits, then of its Z bits, in
        # qubit order, accumulated as in `PauliString.multiply`
        x = z = 0
        phase = p.phase
        for images, bits in ((self.image_x, p.x), (self.image_z, p.z)):
            while bits:
                low = bits & -bits
                img = images[low.bit_length() - 1]
                phase += img.phase + 2 * ((z & img.x).bit_count() & 1)
                x ^= img.x
                z ^= img.z
                bits ^= low
        return _unchecked(self.n, x, z, phase % 4)

    def compose(self, first: "CliffordMap") -> "CliffordMap":
        """Map equal to applying `first`, then self (self o first)."""
        if first.n != self.n:
            raise PauliError("length mismatch in composition")
        return CliffordMap(
            self.n,
            tuple(self.conjugate(p) for p in first.image_x),
            tuple(self.conjugate(p) for p in first.image_z),
        )

    def __matmul__(self, first: "CliffordMap") -> "CliffordMap":
        return self.compose(first)

    def shifted(self, n: int, start: int) -> "CliffordMap":
        """This map on wires start, start + 1, ... of an n-wire register,
        identity elsewhere."""
        ident = CliffordMap.identity(n)
        ix, iz = list(ident.image_x), list(ident.image_z)
        ix[start:start + self.n] = [p.shifted(n, start) for p in self.image_x]
        iz[start:start + self.n] = [p.shifted(n, start) for p in self.image_z]
        return CliffordMap(n, tuple(ix), tuple(iz))

    # -- circuit-style construction -----------------------------------

    def then_gate(self, gate: str, *qubits: int) -> "CliffordMap":
        """Return the map with `gate` appended after the current circuit.
        Only the letters each image has on the gate's qubits are rewritten
        (see the module docstring)."""
        name = _gate_name(self.n, gate, qubits)
        images = list(self.image_x + self.image_z)
        on = {q: {k for k, p in enumerate(images) if (p.x | p.z) >> q & 1} for q in qubits}
        _append_gate(images, on, self.n, name, qubits)
        return _unchecked_map(self.n, images)

    def inverse(self) -> "CliffordMap":
        """Inverse Clifford, computed by inverting the image table."""
        # Solve for preimages: express X_k, Z_k in terms of the images.
        n = self.n
        ix, iz = [], []
        for k in range(n):
            ix.append(self._preimage(PauliString.single(n, k, "X")))
            iz.append(self._preimage(PauliString.single(n, k, "Z")))
        return CliffordMap(n, tuple(ix), tuple(iz))

    def _preimage(self, target: PauliString) -> PauliString:
        # The generator combination is fixed by commutation with the images:
        # the coefficient of X_k (resp. Z_k) in the preimage is the
        # anticommutation bit of `target` with image_z[k] (resp. image_x[k]).
        n = self.n
        x = z = 0
        for k in range(n):
            if not target.commutes(self.image_z[k]):
                x |= 1 << k
            if not target.commutes(self.image_x[k]):
                z |= 1 << k
        candidate = PauliString(n, x, z, 0).unsigned()
        image = self.conjugate(candidate)
        if image.x != target.x or image.z != target.z:
            raise PauliError("inverse lookup failed (map not symplectic)")
        diff = (target.phase - target.y_count - (image.phase - image.y_count)) % 4
        return candidate.with_phase((candidate.phase + diff) % 4)


def complete_clifford(image_x: dict[int, PauliString],
                      image_z: dict[int, PauliString], n: int) -> CliffordMap:
    """Clifford on n qubits with the given images of some X_k and Z_k.

    The missing images are filled in, X_0..X_{n-1} then Z_0..Z_{n-1}, by
    solving their symplectic pairing with every image known so far over
    GF(2). Raises PauliError when no Clifford has the given images.
    """
    known: dict[tuple[str, int], PauliString] = {}
    known.update((("x", k), p) for k, p in image_x.items())
    known.update((("z", k), p) for k, p in image_z.items())
    if any(p.n != n for p in known.values()):
        raise PauliError(f"images must act on exactly {n} qubits")
    for key in [("x", k) for k in range(n)] + [("z", k) for k in range(n)]:
        if key in known:
            continue
        kind, k = key
        partner = ("z" if kind == "x" else "x", k)
        # row of image p: the functional v -> <p, v> (symplectic product)
        # on v's x bits, then its z bits
        rows = [p.z | p.x << n for p in known.values()]
        rhs = [other == partner for other in known]
        sol = gf2.solve(rows, rhs, 2 * n)
        if sol is None:
            raise PauliError("symplectic completion failed (images dependent?)")
        known[key] = PauliString(n, sol & (1 << n) - 1, sol >> n, 0).unsigned()
    return CliffordMap.from_images([known["x", k] for k in range(n)],
                                   [known["z", k] for k in range(n)])


def _unchecked_map(n: int, images: list[PauliString]) -> CliffordMap:
    """CliffordMap of n X images, then n Z images, that already act on n
    qubits; nothing is checked."""
    c = object.__new__(CliffordMap)
    d = c.__dict__
    d["n"] = n
    d["image_x"] = tuple(images[:n])
    d["image_z"] = tuple(images[n:])
    return c


def _gate_name(n: int, gate: str, qubits: Sequence[int]) -> str:
    """The upper-case name of `gate`, once its qubit list is checked: as
    many qubits as the gate acts on, each in range(n) and none twice."""
    name = gate.upper()
    if name in _SINGLE_GATE_IMAGES:
        arity = 1
    elif name in _TWO_QUBIT_GATES:
        arity = 2
    else:
        raise PauliError(f"unknown gate {name!r}")
    if len(qubits) != arity:
        raise PauliError(f"{name} acts on {arity} qubit{'s' * (arity > 1)}, "
                         f"got {len(qubits)}: {list(qubits)}")
    for q in qubits:
        if not 0 <= q < n:
            raise PauliError(f"{name}: qubit {q} out of range for n={n}")
    if arity == 2 and qubits[0] == qubits[1]:
        raise PauliError(f"{name}: qubit {qubits[0]} given twice")
    return name


@lru_cache(maxsize=None)
def _local_table(name: str) -> tuple[tuple[int, int, int], ...]:
    """Entry x | z << k of a k-qubit gate G is (x', z', d) with
    G X^x Z^z G^dagger = i^d X^x' Z^z' on the gate's own qubits, local
    bit i meaning the gate's i-th qubit. Built once per gate from
    `gate_map` on k wires."""
    k = 1 if name in _SINGLE_GATE_IMAGES else 2
    g = gate_map(k, name, *range(k))
    images = (g.conjugate(_unchecked(k, code & (1 << k) - 1, code >> k, 0))
              for code in range(1 << 2 * k))
    return tuple((p.x, p.z, p.phase) for p in images)


def _append_gate(images: list[PauliString], on, n: int, name: str, qubits: Sequence[int]):
    """Conjugate each n-qubit Pauli in `images` through the gate `name`
    (as `_gate_name` returns it, qubits checked), in place.

    `on[q]` is the set of indices of the images with a letter on qubit q,
    for each of the gate's qubits; only those images are read, and the
    sets are kept up to date. X^x Z^z factorises over qubits with no
    sign, so an image's letters on the gate's qubits map alone, through
    `_local_table`; its other letters are kept, and its phase gains the
    table's power of i.
    """
    table = _local_table(name)
    if len(qubits) == 1:
        # a one-qubit Clifford keeps a letter a letter: `on` stays as it is
        (a,) = qubits
        keep = ~(1 << a)
        for k in on[a]:
            p = images[k]
            x, z = p.x, p.z
            nx, nz, d = table[(x >> a & 1) | (z >> a & 1) << 1]
            images[k] = _unchecked(n, x & keep | nx << a, z & keep | nz << a,
                                   (p.phase + d) & 3)
        return
    a, b = qubits
    keep = ~(1 << a | 1 << b)
    on_a, on_b = set(), set()
    for k in on[a] | on[b]:
        p = images[k]
        x, z = p.x, p.z
        nx, nz, d = table[(x >> a & 1) | (x >> b & 1) << 1
                          | (z >> a & 1) << 2 | (z >> b & 1) << 3]
        images[k] = _unchecked(n, x & keep | (nx & 1) << a | (nx >> 1) << b,
                               z & keep | (nz & 1) << a | (nz >> 1) << b, (p.phase + d) & 3)
        if (nx | nz) & 1:
            on_a.add(k)
        if (nx | nz) & 2:
            on_b.add(k)
    on[a], on[b] = on_a, on_b


def gate_map(n: int, gate: str, *qubits: int) -> CliffordMap:
    """CliffordMap of a named gate acting on the given qubits of n wires.

    Single-qubit gates: I, H, S, SDG, X, Y, Z, SQX, SQXDG.
    Two-qubit gates: CNOT(control, target), CZ(a, b), SWAP(a, b).
    A wrong qubit count, a qubit outside range(n) or a qubit given twice
    raises PauliError before any work.
    """
    gate = _gate_name(n, gate, qubits)
    ident = CliffordMap.identity(n)
    ix, iz = list(ident.image_x), list(ident.image_z)
    if gate in _SINGLE_GATE_IMAGES:
        (q,) = qubits
        sx, sz = _SINGLE_GATE_IMAGES[gate]
        ix[q] = _expand_single(n, q, sx)
        iz[q] = _expand_single(n, q, sz)
    elif gate == "CNOT":
        c, t = qubits
        ix[c] = PauliString.single(n, c, "X") * PauliString.single(n, t, "X")
        iz[t] = PauliString.single(n, c, "Z") * PauliString.single(n, t, "Z")
    elif gate == "CZ":
        a, b = qubits
        ix[a] = PauliString.single(n, a, "X") * PauliString.single(n, b, "Z")
        ix[b] = PauliString.single(n, b, "X") * PauliString.single(n, a, "Z")
    else:
        a, b = qubits
        ix[a], ix[b] = ix[b], ix[a]
        iz[a], iz[b] = iz[b], iz[a]
    return CliffordMap(n, tuple(ix), tuple(iz))


def _expand_single(n: int, qubit: int, text: str) -> PauliString:
    p1 = PauliString.from_string(text)
    return p1.embed(n, [qubit])


def circuit_map(n: int, gates: Iterable[tuple]) -> CliffordMap:
    """Compose a gate list [(name, qubits...), ...] applied left to right,
    each gate appended in place to one list of images."""
    ident = CliffordMap.identity(n)
    images = list(ident.image_x + ident.image_z)
    on = [{q, n + q} for q in range(n)]  # the images of X_q and Z_q
    for name, *qs in gates:
        _append_gate(images, on, n, _gate_name(n, name, qs), qs)
    return _unchecked_map(n, images)

