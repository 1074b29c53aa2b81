"""Tests for the phased Pauli / Clifford algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcomm.belldiag import epp_site_circuit
from mbqcomm.pauli import CliffordMap, PauliError, PauliString, circuit_map, gate_map
from mbqcomm.tableau import StabilizerState
import oracles
from oracles import U_PG, embed_unitary, random_clifford, random_pauli, to_dense


def embed_map(c: CliffordMap, n: int, wires) -> CliffordMap:
    """`c` on `wires` of an n-wire register, identity elsewhere: the
    oracle of `CliffordMap.shifted`, which places a map on a contiguous
    block by shifts."""
    ident = CliffordMap.identity(n)
    ix, iz = list(ident.image_x), list(ident.image_z)
    for k, w in enumerate(wires):
        ix[w] = c.image_x[k].embed(n, wires)
        iz[w] = c.image_z[k].embed(n, wires)
    return CliffordMap(n, tuple(ix), tuple(iz))


def test_single_qubit_products():
    X = PauliString.from_string("X")
    Z = PauliString.from_string("Z")
    assert str(X * X) == "+I"
    assert str(X * Z) == "-iY"
    assert str(Z * X) == "iY"


def test_tensor_factorization():
    # (X (x) Z) * (Z (x) Z) = (XZ) (x) (ZZ) = (-iY) (x) I
    p = PauliString.from_string("XZ") * PauliString.from_string("ZZ")
    assert str(p) == "-iYI"


def test_square_is_sign_only():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_pauli(5, rng)
        sq = p * p
        assert sq.x == 0 and sq.z == 0
        assert sq.phase in (0, 2)


def test_commutes_basics():
    X = PauliString.from_string("X")
    Z = PauliString.from_string("Z")
    assert X.commutes(X)
    assert not X.commutes(Z)
    # two anticommuting factors make the whole strings commute
    assert PauliString.from_string("XZ").commutes(PauliString.from_string("ZX"))


def test_length_mismatch_raises():
    with pytest.raises(PauliError):
        PauliString.from_string("X").multiply(PauliString.from_string("XX"))
    with pytest.raises(PauliError):
        PauliString.from_string("X").commutes(PauliString.from_string("XX"))


def test_multiplication_matches_dense_matrices():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = random_pauli(3, rng)
        q = random_pauli(3, rng)
        lhs = oracles.pauli_matrix(p * q)
        rhs = oracles.pauli_matrix(p) @ oracles.pauli_matrix(q)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_associativity_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        p, q, r = (random_pauli(n, rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_parse_and_format_roundtrip():
    for text in ["+XIZ", "-YY", "iXZ", "-iZZZ", "+I"]:
        p = PauliString.from_string(text)
        assert PauliString.from_string(str(p)) == p
    assert str(PauliString.from_string("Y")) == "+Y"
    with pytest.raises(PauliError):
        PauliString.from_string("XQ")


def test_conjugate_standard_gates():
    h = gate_map(1, "H", 0)
    assert str(h.conjugate(PauliString.from_string("X"))) == "+Z"
    cnot = gate_map(2, "CNOT", 0, 1)
    assert str(cnot.conjugate(PauliString.from_string("XI"))) == "+XX"
    cz = gate_map(2, "CZ", 0, 1)
    assert str(cz.conjugate(PauliString.from_string("XI"))) == "+XZ"


def test_conjugate_matches_dense_oracle():
    # oracle: conjugate via explicit 2-qubit matrices
    rng = np.random.default_rng(5)
    gates = [("H", 0), ("S", 1), ("CNOT", 0, 1), ("CZ", 1, 0), ("SQX", 0)]
    mats = {
        "H": oracles.H,
        "S": oracles.S,
        "SQX": (oracles.I2 - 1j * oracles.X) / np.sqrt(2),
    }
    for name, *qs in gates:
        c = gate_map(2, name, *qs)
        if name == "CNOT":
            u = embed_unitary(2, oracles.CNOT, qs)
        elif name == "CZ":
            u = embed_unitary(2, U_PG, qs)
        else:
            u = embed_unitary(2, mats[name], qs)
        for _ in range(40):
            p = random_pauli(2, rng)
            lhs = oracles.pauli_matrix(c.conjugate(p))
            rhs = u @ oracles.pauli_matrix(p) @ u.conj().T
            assert np.allclose(lhs, rhs, atol=1e-12), name


def test_conjugate_preserves_commutation():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        c = random_clifford(n, rng)
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        assert p.commutes(q) == c.conjugate(p).commutes(c.conjugate(q))


def test_composition_matches_sequential_conjugation():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c1 = random_clifford(n, rng)
        c2 = random_clifford(n, rng)
        p = random_pauli(n, rng)
        assert (c2 @ c1).conjugate(p) == c2.conjugate(c1.conjugate(p))


def test_embed_acts_on_its_wires_only():
    rng = np.random.default_rng(23)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = k + int(rng.integers(0, 3))
        wires = [int(w) for w in rng.permutation(n)[:k]]
        rest = [w for w in range(n) if w not in wires]
        c = random_clifford(k, rng)
        on, off = random_pauli(k, rng), random_pauli(n - k, rng)
        big = embed_map(c, n, wires)
        assert big.is_valid()
        p = on.embed(n, wires) * off.embed(n, rest)
        assert big.conjugate(p) == c.conjugate(on).embed(n, wires) * off.embed(n, rest)


def test_inverse():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        c = random_clifford(n, rng)
        inv = c.inverse()
        p = random_pauli(n, rng)
        assert inv.conjugate(c.conjugate(p)) == p
        assert c.conjugate(inv.conjugate(p)) == p


def test_invalid_clifford_rejected():
    n = 1
    with pytest.raises(PauliError):
        CliffordMap.from_images(
            [PauliString.from_string("X")], [PauliString.from_string("X")]
        )


def test_circuit_map_order():
    # H then S on one qubit: X -> Z -> Z, Z -> X -> Y
    c = circuit_map(1, [("H", 0), ("S", 0)])
    assert str(c.conjugate(PauliString.from_string("X"))) == "+Z"
    assert str(c.conjugate(PauliString.from_string("Z"))) == "+Y"


def test_single_rejects_an_unknown_letter_by_name():
    for letter in ("Q", "x", ""):
        with pytest.raises(PauliError, match=f"^unknown Pauli letter {letter!r}$"):
            PauliString.single(1, 0, letter)


def test_public_construction_rejects_invalid_operands():
    with pytest.raises(PauliError):
        PauliString(-1)
    for x, z in ((0b100, 0), (0, 0b1000), (-1, 0), (0, -2)):
        with pytest.raises(PauliError):
            PauliString(2, x, z)
    for qubit in (-1, 3):
        with pytest.raises(PauliError):
            PauliString.single(3, qubit, "X")
    p = PauliString.from_string("XZ")
    for positions in ([0], [0, 1, 2]):
        with pytest.raises(PauliError):
            p.embed(3, positions)
    with pytest.raises(PauliError):
        p.embed(2, [0, 2])
    with pytest.raises(PauliError):
        CliffordMap(1, (PauliString.from_string("XX"),), (PauliString.from_string("Z"),))


# -- the unchecked algebra against dense matrices ----------------------


def _pauli(data, n: int, label: str) -> PauliString:
    """Any phased Pauli on n qubits, Hermitian or not."""
    bits = st.integers(0, (1 << n) - 1)
    return PauliString(n, data.draw(bits, label=f"{label}.x"),
                       data.draw(bits, label=f"{label}.z"),
                       data.draw(st.integers(0, 3), label=f"{label}.phase"))


def _clifford(data, n: int, label: str) -> CliffordMap:
    seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label}.seed")
    return random_clifford(n, np.random.default_rng(seed))


def _unitary(c: CliffordMap) -> np.ndarray:
    """A dense unitary U with U P U^dagger = c(P), read off the images alone.

    U|0...0> is the joint +1 eigenvector of the Z images, and U|b> is the
    product of the X images of the set bits of b applied to it.
    """
    n = c.n
    v0 = to_dense(StabilizerState(list(c.image_z), list(c.image_x)))
    cols = []
    for b in range(1 << n):
        v = v0
        for k in range(n):
            if (b >> (n - 1 - k)) & 1:  # qubit 0 is the leading tensor factor
                v = oracles.pauli_matrix(c.image_x[k]) @ v
        cols.append(v)
    u = np.column_stack(cols)
    assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-12)
    return u


def _assert_public(p: PauliString):
    """p is equal to, and hashes like, the public construction of its fields."""
    assert 0 <= p.phase < 4 and not (p.x | p.z) >> p.n
    q = PauliString(p.n, p.x, p.z, p.phase)
    assert p == q and hash(p) == hash(q)


def _assert_public_map(c: CliffordMap):
    for p in c.image_x + c.image_z:
        _assert_public(p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_unchecked_algebra_matches_dense_matrices(data):
    n = data.draw(st.integers(1, 6), label="n")
    p, q = _pauli(data, n, "p"), _pauli(data, n, "q")
    mp = oracles.pauli_matrix(p)

    pq = p.multiply(q)
    _assert_public(pq)
    assert np.allclose(oracles.pauli_matrix(pq), mp @ oracles.pauli_matrix(q), atol=1e-12)
    for r in (p.unsigned(), p.with_phase(p.phase + 5)):
        _assert_public(r)
    assert np.allclose(oracles.pauli_matrix(oracles.negate(p)), -mp, atol=1e-12)

    c1, c2 = _clifford(data, n, "c1"), _clifford(data, n, "c2")
    u1, u2 = _unitary(c1), _unitary(c2)
    image = c1.conjugate(p)
    _assert_public(image)
    assert np.allclose(oracles.pauli_matrix(image), u1 @ mp @ u1.conj().T, atol=1e-12)
    both = c2.compose(c1)
    _assert_public_map(both)
    u21 = u2 @ u1
    assert np.allclose(oracles.pauli_matrix(both.conjugate(p)), u21 @ mp @ u21.conj().T,
                       atol=1e-12)
    inv = c1.inverse()
    _assert_public_map(inv)
    assert np.allclose(oracles.pauli_matrix(inv.conjugate(p)), u1.conj().T @ mp @ u1,
                       atol=1e-12)

    qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                unique=True), label="qubits")
    sub = oracles.restrict(p, qubits)
    letters = oracles.kron_all(*(oracles.PAULI_MATS[p.letter(j)] for j in qubits))
    assert np.allclose(oracles.pauli_matrix(sub), letters, atol=1e-12)

    big = data.draw(st.integers(n, 6), label="register")
    positions = data.draw(st.permutations(range(big)), label="positions")[:n]
    placed = p.embed(big, positions)
    _assert_public(placed)
    assert np.allclose(oracles.pauli_matrix(placed),
                       embed_unitary(big, mp, positions), atol=1e-12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_shifted_and_without_equal_embed_and_restrict(data):
    n = data.draw(st.integers(0, 8), label="n")
    p = _pauli(data, n, "p")
    big = data.draw(st.integers(n, 10), label="register")
    start = data.draw(st.integers(0, big - n), label="start")
    placed = p.shifted(big, start)
    _assert_public(placed)
    assert placed == p.embed(big, range(start, start + n))
    if n:
        c = _clifford(data, n, "c")
        assert c.shifted(big, start) == embed_map(c, big, range(start, start + n))


def test_shifted_rejects_a_block_outside_the_register():
    p = PauliString.from_string("XZ")
    c = random_clifford(2, np.random.default_rng(4))
    for n, start in ((3, 2), (3, -1), (1, 0)):
        with pytest.raises(PauliError):
            p.shifted(n, start)
        with pytest.raises(PauliError):
            c.shifted(n, start)
    assert c.shifted(5, 2) == embed_map(c, 5, [2, 3])



ONE_QUBIT_GATES = ("I", "H", "S", "SDG", "X", "Y", "Z", "SQX", "SQXDG")
TWO_QUBIT_GATES = ("CNOT", "CZ", "SWAP")


def arity(name: str) -> int:
    return 2 if name in TWO_QUBIT_GATES else 1


@st.composite
def gates_on(draw, n: int):
    """One (name, qubits...) gate on n wires, over every gate name that fits."""
    names = ONE_QUBIT_GATES + (TWO_QUBIT_GATES if n >= 2 else ())
    name = draw(st.sampled_from(names))
    return (name, *draw(st.permutations(range(n)))[:arity(name)])


@pytest.mark.parametrize("name", ONE_QUBIT_GATES + TWO_QUBIT_GATES)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_then_gate_equals_composition_with_the_full_gate_map(name, data):
    # `circuit_map` appends a last gate `name` where it acts; the oracle
    # conjugates every image through the gate's full n-wire map
    n = data.draw(st.integers(arity(name), 8))
    gates = data.draw(st.lists(gates_on(n), max_size=12))
    qubits = data.draw(st.permutations(range(n)))[:arity(name)]
    assert circuit_map(n, [*gates, (name, *qubits)]) == oracles.then_gate_composed(
        oracles.circuit_composed(n, gates), name, *qubits)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_circuit_map_equals_composition_gate_by_gate(data):
    n = data.draw(st.integers(1, 8))
    gates = data.draw(st.lists(gates_on(n), max_size=40))
    c = circuit_map(n, gates)
    assert c == oracles.circuit_composed(n, gates)
    assert c.is_valid()


@pytest.mark.parametrize("rounds", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("role", ["A", "B"])
@pytest.mark.parametrize("variant", ["DEJMPS", "BBPSSW"])
def test_site_circuit_map_equals_composition(rounds, role, variant):
    gates, _ = epp_site_circuit(rounds, role, variant)
    assert circuit_map(1 << rounds, gates) == oracles.circuit_composed(1 << rounds, gates)


def appenders(n: int):
    """Every way to append a gate to an n-wire map: alone, as a circuit's
    first gate, and after another gate."""
    return (lambda name, *qs: gate_map(n, name, *qs),
            lambda name, *qs: circuit_map(n, [(name, *qs)]),
            lambda name, *qs: circuit_map(n, [("H", 0), (name, *qs)]))


def rejected(append, name, qubits) -> str:
    """The one-line message that rejects appending `name` on `qubits`."""
    with pytest.raises(PauliError) as exc:
        append(name, *qubits)
    assert "\n" not in str(exc.value)
    return str(exc.value)


@pytest.mark.parametrize("name, qubits", [("CNOT", (1, 1)), ("CZ", (2, 2)), ("SWAP", (0, 0))])
def test_a_repeated_qubit_is_rejected(name, qubits):
    # before, CNOT(1, 1) and CZ(2, 2) gave maps that are not symplectic
    for append in appenders(3):
        assert rejected(append, name, qubits) == f"{name}: qubit {qubits[0]} given twice"


@pytest.mark.parametrize("name, qubits, expected", [
    ("H", (0, 1), "H acts on 1 qubit, got 2: [0, 1]"),
    ("s", (), "S acts on 1 qubit, got 0: []"),
    ("CNOT", (0,), "CNOT acts on 2 qubits, got 1: [0]"),
    ("SWAP", (0, 1, 2), "SWAP acts on 2 qubits, got 3: [0, 1, 2]"),
])
def test_a_wrong_qubit_count_is_rejected(name, qubits, expected):
    for append in appenders(3):
        assert rejected(append, name, qubits) == expected


@pytest.mark.parametrize("name, qubits, bad", [
    ("H", (-1,), -1), ("X", (3,), 3), ("CNOT", (0, 3), 3), ("CZ", (-2, 1), -2),
])
def test_an_out_of_range_qubit_is_rejected(name, qubits, bad):
    for append in appenders(3):
        assert rejected(append, name, qubits) == f"{name}: qubit {bad} out of range for n=3"


def test_an_unknown_gate_is_rejected():
    for append in appenders(2):
        assert rejected(append, "cx", (0, 1)) == "unknown gate 'CX'"
