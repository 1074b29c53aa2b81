"""Tests for the stabilizer tableau engine against the dense oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcomm.catalog import code_by_name, code_decode_syndrome, code_encode
from mbqcomm.pauli import PauliError, PauliString
from mbqcomm.tableau import InconsistentProjection, StabilizerState, TableauError
import oracles
from oracles import (
    BD_SIGMA_ORDER,
    U_PG,
    GraphSpec,
    apply_gate,
    bell_measure_and_drop,
    copy_state,
    density,
    epp_recurrence,
    fidelity_with_vec,
    graph_state,
    is_connected,
    lc_equivalent,
    local_complement,
    partial_trace,
    path_graph,
    pauli_sign,
    plus_state,
    random_clifford,
    random_pauli,
    repeater_station,
    ring_graph,
    same_state,
    to_dense,
    to_graph,
    validate_tableau,
    zero_state,
)


def random_stabilizer_state(n, rng, depth=None):
    s = zero_state(n)
    oracles.apply_clifford(s, random_clifford(n, rng, depth))
    return s


def dense_checked_states(count, max_n, rng):
    """`count` random states on 1..max_n qubits, then catalog resource
    states of at most 6 qubits, which the commands build and measure."""
    for _ in range(count):
        yield random_stabilizer_state(int(rng.integers(1, max_n + 1)), rng)
    for spec in (epp_recurrence(1), code_encode(code_by_name("repetition3")),
                 code_encode(code_by_name("ring5")),
                 code_decode_syndrome(code_by_name("repetition3")), repeater_station(1)):
        yield copy_state(spec.state)


def measure_pauli(state, p, rng=None, force=None):
    """Functional Pauli measurement: returns (outcome, new state)."""
    out = copy_state(state)
    return out.measure(p, rng, force), out


def eliminating_bell_measure(state, a, b, rng=None, force=None):
    """Oracle of `StabilizerState.bell_measure`: measure X_a X_b and Z_a Z_b
    (forced onto the outcome of letter code `force` unless it is None),
    then drop the pair by the two Gauss-Jordan passes of `remove_qubits`."""
    n = state.n
    xx = PauliString.single(n, a, "X") * PauliString.single(n, b, "X")
    zz = PauliString.single(n, a, "Z") * PauliString.single(n, b, "Z")
    sx = state.measure(xx, rng, None if force is None else 1 - 2 * (force & 1))
    sz = state.measure(zz, rng, None if force is None else 1 - 2 * (force >> 1))
    oracles.remove_qubits(state, [a, b])
    return (1 - sz) + (1 - sx) // 2


def pinning_bell_measure(state, a, b, rng, force):
    """`bell_measure` and the pair's removal, or its forced twin
    `oracles.forced_bell_measure` (the same pins and one-pass removal)
    when `force` is a letter code."""
    if force is None:
        return bell_measure_and_drop(state, a, b, rng)
    oracles.forced_bell_measure(state, a, b, force)
    return force


def assert_bell_measure_matches_oracle(s, a, b, force, seed):
    """Same outcome (or the same refusal), the same state left, a valid
    tableau, and the same rng draws as the elimination oracle."""
    got, want = copy_state(s), copy_state(s)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = eliminating_bell_measure(want, a, b, rng_want, force)
    except InconsistentProjection:
        with pytest.raises(InconsistentProjection):
            pinning_bell_measure(got, a, b, rng_got, force)
        return
    assert pinning_bell_measure(got, a, b, rng_got, force) == expected
    validate_tableau(got)
    assert same_state(got, want)
    assert rng_got.random() == rng_want.random()


def test_zero_state_measure_z_deterministic():
    s = zero_state(1)
    assert s.measure(PauliString.from_string("Z")) == 1


def test_plus_state_measure_z_random():
    rng = np.random.default_rng(0)
    outcomes = []
    for _ in range(200):
        s = plus_state(1)
        outcomes.append(s.measure(PauliString.from_string("Z"), rng))
    frac = outcomes.count(1) / len(outcomes)
    assert 0.35 < frac < 0.65


def test_xx_then_zz_on_00_builds_bell_state():
    # oracle: measuring XX on |00> is uniformly random; ZZ afterwards is +1
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(50):
        s = zero_state(2)
        o1 = s.measure(PauliString.from_string("XX"), rng)
        o2 = s.measure(PauliString.from_string("ZZ"), rng)
        assert o2 == 1
        seen.add(o1)
        v = to_dense(s)
        expect = np.array([1, 0, 0, o1], dtype=complex) / np.sqrt(2)
        assert oracles.states_equal_up_to_phase(v, expect, 1e-12)
    assert seen == {1, -1}


def test_single_vertex_graph_is_plus():
    s = graph_state(GraphSpec(1))
    assert str(s.stabs[0]) == "+X"


def test_two_vertex_graph_equals_h_on_bell():
    # derived oracle: (H (x) I)|phi+>
    v = to_dense(graph_state(GraphSpec(2, frozenset({(0, 1)}))))
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    expect = oracles.apply_unitary_vec(phi, oracles.H, [0])
    assert oracles.states_equal_up_to_phase(v, expect, 1e-12)


def test_ring5_stabilizers():
    s = graph_state(ring_graph(5))
    expected = {"+XZIIZ", "+ZXZII", "+IZXZI", "+IIZXZ", "+ZIIZX"}
    assert {str(g) for g in s.stabs} == expected


def test_ring5_dense_matches_upg_product():
    # Eq-style product construction: U_PG on every ring edge of |+>^5
    v = np.full(32, 1 / np.sqrt(32), dtype=complex)
    for a in range(5):
        v = oracles.apply_unitary_vec(v, U_PG, [a, (a + 1) % 5])
    w = to_dense(graph_state(ring_graph(5)))
    assert oracles.states_equal_up_to_phase(v, w, 1e-12)
    mags = np.abs(w[np.abs(w) > 1e-12])
    assert np.allclose(mags, mags[0], atol=1e-12)


def test_graph_state_invariant_under_edge_permutation():
    rng = np.random.default_rng(4)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    base = graph_state(GraphSpec(4, frozenset(edges)))
    for _ in range(5):
        rng.shuffle(edges)
        other = graph_state(GraphSpec(4, frozenset(edges)))
        assert same_state(base, other)


def test_graph_spec_rejects_self_loop():
    with pytest.raises(ValueError):
        GraphSpec(2, frozenset({(1, 1)}))


def _dense_measure_reference(v, p):
    return {o: (pr, st) for pr, o, st in oracles.measure_pauli_vec(v, p)}


def test_measure_pauli_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for s in dense_checked_states(60, 6, rng):
        v = to_dense(s)
        p = random_pauli(s.n, rng, allow_identity=False)
        if pauli_sign(p) == -1:
            p = oracles.negate(p)
        ref = _dense_measure_reference(v, p)
        if any(not g.commutes(p) for g in s.stabs):
            assert set(ref) == {1, -1}
            for o in (1, -1):
                assert abs(ref[o][0] - 0.5) < 1e-12
                branch = copy_state(s)
                got = branch.measure(p, force=o)
                assert got == o
                assert oracles.states_equal_up_to_phase(to_dense(branch), ref[o][1], 1e-12)
                validate_tableau(branch)
        else:
            assert len(ref) == 1
            o = next(iter(ref))
            branch = copy_state(s)
            assert branch.measure(p) == o
            assert same_state(branch, s)


def test_forced_impossible_projection_raises():
    s = zero_state(1)
    with pytest.raises(InconsistentProjection):
        s.measure(PauliString.from_string("Z"), force=-1)


def test_measuring_a_pauli_of_another_length_raises():
    s = zero_state(2)
    for text in ("Z", "XXX"):
        with pytest.raises(PauliError):
            s.measure(PauliString.from_string(text))


def test_tableau_invariants_after_random_measurements():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        s = random_stabilizer_state(n, rng)
        for _ in range(4):
            p = random_pauli(n, rng, allow_identity=False)
            if not p.is_hermitian:
                continue
            s.measure(p if pauli_sign(p) == 1 else oracles.negate(p), rng)
            validate_tableau(s)


def test_bell_measure_on_phi_plus_is_outcome_zero():
    s = oracles.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )
    rng = np.random.default_rng(0)
    assert bell_measure_and_drop(s, 0, 1, rng) == 0
    assert s.n == 0


def test_bell_measure_swapping_matches_dense_oracle():
    # two |phi+> pairs (0,1) and (2,3); measure (1,2): each outcome 1/4
    # and the surviving pair is (I (x) sigma_i)|phi+> up to phase
    phi = PauliString.from_string
    gens = [phi("XXII"), phi("ZZII"), phi("IIXX"), phi("IIZZ")]
    base = oracles.from_generators(gens)
    v = to_dense(base)
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(80):
        s = copy_state(base)
        outcome = bell_measure_and_drop(s, 1, 2, rng)
        seen.add(outcome)
        prob, reduced = oracles.project_bell_vec(v, 1, 2, BD_SIGMA_ORDER[outcome])
        assert abs(prob - 0.25) < 1e-12
        assert oracles.states_equal_up_to_phase(to_dense(s), reduced, 1e-12)
        sigma = oracles.pauli_matrix(PauliString.from_codes([outcome]))
        expect = oracles.apply_unitary_vec(
            np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), sigma, [1]
        )
        assert oracles.states_equal_up_to_phase(to_dense(s), expect, 1e-12)
    assert seen == {0, 1, 2, 3}


def test_bell_measure_pair_with_fresh_zero_uniform():
    # derived by dense oracle: all four outcomes equiprobable
    phi = PauliString.from_string
    base = oracles.from_generators([phi("XXI"), phi("ZZI"), phi("IIZ")])
    v = to_dense(base)
    for i in range(4):
        prob, _ = oracles.project_bell_vec(v, 1, 2, i)
        assert abs(prob - 0.25) < 1e-12
    rng = np.random.default_rng(9)
    counts = {i: 0 for i in range(4)}
    for _ in range(400):
        outcome = copy_state(base).bell_measure(1, 2, rng, [])
        counts[outcome] += 1
    assert all(c > 0 for c in counts.values())


def test_bell_outcome_distribution_matches_dense_generic():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        s = random_stabilizer_state(n, rng)
        v = to_dense(s)
        a, b = rng.choice(n, size=2, replace=False)
        a, b = int(a), int(b)
        for code in range(4):
            prob, reduced = oracles.project_bell_vec(v, a, b, BD_SIGMA_ORDER[code])
            branch = copy_state(s)
            if prob < 1e-14:
                with pytest.raises(InconsistentProjection):
                    oracles.forced_bell_measure(branch, a, b, code)
                continue
            assert abs(oracles.forced_bell_measure(branch, a, b, code) - prob) < 1e-12
            if branch.n:
                assert oracles.states_equal_up_to_phase(to_dense(branch), reduced, 1e-12)
            validate_tableau(branch)


def row_operation(s, i, j):
    """s_i <- s_i s_j with d_j <- d_j d_i: the same state, pairing kept.
    The rows are read-only views, so whole lists are written back."""
    stabs, destabs = list(s.stabs), list(s.destabs)
    stabs[i] = stabs[i] * stabs[j]
    destabs[j] = destabs[j] * destabs[i]
    s.stabs, s.destabs = stabs, destabs


def scrambled(s, rng, steps=12):
    """The same state under other generators, by random row operations."""
    s = copy_state(s)
    for _ in range(steps):
        row_operation(s, *rng.choice(s.n, size=2, replace=False))
    validate_tableau(s)
    return s


def test_scrambled_changes_the_generators_not_the_state():
    rng = np.random.default_rng(12)
    for n in range(2, 8):
        s = random_stabilizer_state(n, rng)
        t = scrambled(s, rng)
        assert t.stabs != s.stabs and t.destabs != s.destabs
        assert same_state(t, s)
        # the rows are read-only views: writing one in place raises
        with pytest.raises(TypeError):
            t.stabs[0] = t.stabs[1]


@pytest.mark.parametrize("n", range(3, 9))
def test_bell_measure_equals_the_elimination_oracle(n):
    # shallow circuits and Bell pairs leave deterministic XX or ZZ
    # outcomes; scrambled generators vary which rows hold them
    rng = np.random.default_rng(70 + n)
    forces = [None, 0, 1, 2, 3]
    states = [random_stabilizer_state(n, rng, depth) for depth in (2, n, None)]
    pairs = oracles.bell_pair(int(rng.integers(4))).tensor(
        random_stabilizer_state(n - 2, rng))
    oracles.apply_clifford(pairs, random_clifford(n, rng, 2))
    for s in states + [pairs]:
        s = scrambled(s, rng)
        for a in range(n):
            for b in range(n):
                if a != b:
                    for force in forces:
                        assert_bell_measure_matches_oracle(s, a, b, force,
                                                           int(rng.integers(1 << 32)))


def assert_one_pass_matches_pair_by_pair(s, pairs, seed):
    """`bell_measure` of disjoint pairs against one shared pinned list and
    then one `drop_measured`, against measuring and dropping pair by pair:
    the same outcomes, the same state left, a valid tableau and the same
    rng draws. Returns the outcomes."""
    got, want = copy_state(s), copy_state(s)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    pinned = []
    outcomes = [got.bell_measure(a, b, rng_got, pinned) for a, b in pairs]
    assert len(pinned) == 2 * len(pairs)
    got.drop_measured(pinned, [q for pair in pairs for q in pair])
    left = list(range(s.n))  # the original index of each qubit still in `want`
    expected = []
    for a, b in pairs:
        expected.append(bell_measure_and_drop(want, left.index(a), left.index(b), rng_want))
        left.remove(a)
        left.remove(b)
    assert outcomes == expected
    validate_tableau(got)
    assert same_state(got, want)
    assert rng_got.random() == rng_want.random()
    return outcomes


@pytest.mark.parametrize("n", range(4, 11))
def test_one_pass_station_equals_pair_by_pair_removal(n):
    # a QEC station measures its pairs against one pinned list and removes
    # them all at once; k = 1..5 pairs of random, scrambled and Bell-pair
    # states, the last with deterministic outcomes
    rng = np.random.default_rng(110 + n)
    for k in range(1, min(5, n // 2) + 1):
        letters = [int(i) for i in rng.integers(4, size=k)]
        bells = oracles.bell_pair(letters[0])
        for letter in letters[1:]:
            bells = bells.tensor(oracles.bell_pair(letter))
        if n > 2 * k:
            bells = bells.tensor(random_stabilizer_state(n - 2 * k, rng))
        states = [random_stabilizer_state(n, rng, depth) for depth in (2, n, None)]
        for s in states + [bells]:
            s = scrambled(s, rng)
            for _ in range(4):
                order = [int(q) for q in rng.permutation(n)]
                pairs = [(order[2 * j], order[2 * j + 1]) for j in range(k)]
                assert_one_pass_matches_pair_by_pair(s, pairs, int(rng.integers(1 << 32)))
        order = [int(j) for j in rng.permutation(k)]
        pairs = [(2 * j, 2 * j + 1) for j in order]
        outcomes = assert_one_pass_matches_pair_by_pair(scrambled(bells, rng), pairs,
                                                        int(rng.integers(1 << 32)))
        assert outcomes == [letters[j] for j in order]


def assert_measure_out_matches_oracle(s, ops, qubits, force, seed):
    """`measure` with `pinned` and then `drop_measured`, against measuring
    and then the Gauss-Jordan `remove_qubits`: the same outcomes (or the
    same refusal), the same state left, a valid tableau and the same rng
    draws."""
    got, want = copy_state(s), copy_state(s)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    pinned = []
    try:
        expected = [want.measure(p, rng_want, force) for p in ops]
    except InconsistentProjection:
        with pytest.raises(InconsistentProjection):
            for p in ops:
                got.measure(p, rng_got, force, pinned=pinned)
        return
    assert [got.measure(p, rng_got, force, pinned=pinned) for p in ops] == expected
    oracles.remove_qubits(want, qubits)
    got.drop_measured(pinned, qubits)
    validate_tableau(got)
    assert same_state(got, want)
    assert rng_got.random() == rng_want.random()


def measured_out(n, rng):
    """Operators that measure some qubits of n out, shuffled, and those
    qubits: one or two single-qubit Paulis per qubit (a repeated letter is
    deterministic, another one displaces the first), and XX with ZZ on
    pairs."""
    order = [int(q) for q in rng.permutation(n)]
    k = int(rng.integers(1, n + 1))
    singles = int(rng.integers(0, k + 1))
    pairs = [order[j:j + 2] for j in range(singles, k - 1, 2)]
    qubits = order[:singles] + [q for pair in pairs for q in pair]
    ops = [PauliString.single(n, q, letter) for q in order[:singles]
           for letter in rng.choice(list("XYZ"), size=int(rng.integers(1, 3)))]
    for a, b in pairs:
        ops += [PauliString.single(n, a, letter) * PauliString.single(n, b, letter)
                for letter in "XZ"]
    return [ops[i] for i in rng.permutation(len(ops))], qubits


@pytest.mark.parametrize("n", range(3, 9))
def test_drop_measured_equals_the_elimination_oracle(n):
    rng = np.random.default_rng(90 + n)
    states = [random_stabilizer_state(n, rng, depth) for depth in (2, n, None)]
    pairs = oracles.bell_pair(int(rng.integers(4))).tensor(
        random_stabilizer_state(n - 2, rng))
    oracles.apply_clifford(pairs, random_clifford(n, rng, 2))
    for s in states + [pairs]:
        s = scrambled(s, rng)
        for _ in range(8):
            ops, qubits = measured_out(n, rng)
            for force in (None, +1):
                assert_measure_out_matches_oracle(s, ops, qubits, force,
                                                  int(rng.integers(1 << 32)))


def test_bell_measure_pins_zz_beside_an_anticommuting_xx_row():
    # |phi+> on (0, 1) held as XX, -YY with destabilizers XZ, XI: XX is
    # deterministic and pinned on row 0, whose destabilizer anticommutes
    # with ZZ = XX (-YY), so ZZ must replace row 1, not the XX row
    phi = PauliString.from_string
    pair = StabilizerState([phi("XX"), phi("-YY")], [phi("XZ"), phi("XI")])
    validate_tableau(pair)
    rng = np.random.default_rng(9)
    s = pair.tensor(random_stabilizer_state(3, rng))
    zz = PauliString.single(5, 0, "Z") * PauliString.single(5, 1, "Z")
    assert not s.destabs[0].commutes(zz) and not s.destabs[1].commutes(zz)
    # spread XX and YY parts over the other rows
    for i, j in ((2, 0), (3, 1), (4, 0), (4, 1)):
        row_operation(s, i, j)
    validate_tableau(s)
    for force in [None, 0, 1, 2, 3]:
        for a, b in ((0, 1), (1, 0)):
            assert_bell_measure_matches_oracle(s, a, b, force, 11)
    assert s.bell_measure(0, 1, None, []) == 0


def test_to_dense_trivial_cases():
    assert np.allclose(to_dense(zero_state(1)), [1, 0])
    bell = oracles.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )
    assert np.allclose(to_dense(bell), np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_to_dense_random_states_are_stabilized():
    rng = np.random.default_rng(41)
    for s in dense_checked_states(20, 5, rng):
        v = to_dense(s)
        for g in s.stabs:
            assert np.allclose(oracles.apply_pauli_vec(g, v), v, atol=1e-10)


def test_tensor_and_remove_qubits():
    a = zero_state(1)
    b = plus_state(1)
    ab = a.tensor(b)
    assert ab.n == 2
    pinned = []
    assert ab.measure(PauliString.from_string("ZI"), pinned=pinned) == 1
    ab.drop_measured(pinned, [0])
    assert str(ab.stabs[0]) == "+X"
    c = oracles.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )
    with pytest.raises(TableauError, match="still entangled"):
        copy_state(c).drop_measured([], [0])
    with pytest.raises(TableauError, match="still entangled"):
        oracles.remove_qubits(copy_state(c), [0])
    # XX pinned on the pair does not measure qubit 0 out on its own
    pinned = []
    c.measure(PauliString.from_string("XX"), np.random.default_rng(0), pinned=pinned)
    before = copy_state(c)
    with pytest.raises(TableauError, match="reaches a kept qubit"):
        c.drop_measured(pinned, [0])
    assert c.stabs == before.stabs and c.destabs == before.destabs


@pytest.mark.parametrize("q", [5, -1, 3])
def test_removals_reject_out_of_range_indices(q):
    s = zero_state(3)
    with pytest.raises(TableauError, match=f"qubit {q} out of range"):
        s.drop_measured([0, 1], [0, q])
    with pytest.raises(TableauError, match=f"qubit {q} out of range"):
        oracles.remove_qubits(s, [0, q])
    with pytest.raises(TableauError, match=f"qubit {q} out of range"):
        s.bell_measure(0, q, None, [])
    assert same_state(s, zero_state(3))


def test_to_graph_on_known_states():
    # GHZ_3 reduces to a connected 3-vertex graph
    ghz = oracles.from_generators(
        [PauliString.from_string(t) for t in ("XXX", "ZZI", "IZZ")]
    )
    spec, ops = to_graph(ghz)
    assert is_connected(spec)
    check = copy_state(ghz)
    for name, q in ops:
        if name == "Z":
            check.apply_pauli(PauliString.single(3, q, "Z"))
        else:
            apply_gate(check, name, q)
    assert same_state(check, graph_state(spec))


def test_to_graph_random_roundtrip():
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        s = random_stabilizer_state(n, rng)
        spec, ops = to_graph(s)
        check = copy_state(s)
        for name, q in ops:
            if name == "Z":
                check.apply_pauli(PauliString.single(n, q, "Z"))
            else:
                apply_gate(check, name, q)
        assert same_state(check, graph_state(spec))


def test_local_complementation_preserves_state_class():
    g = path_graph(4)
    g2 = local_complement(g, 1)
    assert g2.edges != g.edges
    assert lc_equivalent(g, g2, allow_relabel=False)


def test_lc_equivalence_path_vs_star():
    # star and path on 4 vertices are LC-inequivalent only for n >= ...;
    # for n=4 the star (GHZ class) and path (cluster class) differ
    star = GraphSpec(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    path = path_graph(4)
    assert not lc_equivalent(star, path)
    triangle = GraphSpec(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    star3 = GraphSpec(3, frozenset({(0, 1), (0, 2)}))
    assert lc_equivalent(triangle, star3)


def test_measure_pauli_functional_form_leaves_input_untouched():
    s = plus_state(1)
    before = str(s.stabs[0])
    rng = np.random.default_rng(2)
    _o, after = measure_pauli(s, PauliString.from_string("Z"), rng)
    assert str(s.stabs[0]) == before
    assert str(after.stabs[0]) in ("+Z", "-Z")


def _draw_state(data):
    """Random stabilizer state on 2..6 qubits."""
    n = data.draw(st.integers(2, 6), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return random_stabilizer_state(n, np.random.default_rng(seed))


def _reduced(v, keep):
    """Density matrix of pure state v on the qubits `keep`."""
    return partial_trace(density(np.outer(v, v.conj())), keep)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_measurements_and_removal_match_dense_oracle(data):
    s = _draw_state(data)
    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        n = s.n
        if n == 0:
            break
        v = to_dense(s)
        kinds = ["pauli", "single", "remove"] + (["bell"] if n >= 2 else [])
        kind = data.draw(st.sampled_from(kinds), label="kind")
        if kind == "pauli":
            letters = data.draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)
                                .filter(lambda ls: set(ls) != {"I"}), label="pauli")
            p = PauliString.from_string("".join(letters))
            ref = {o: post for _pr, o, post in oracles.measure_pauli_vec(v, p)}
            o = data.draw(st.sampled_from(sorted(ref)), label="outcome")
            assert s.measure(p, force=o) == o
            validate_tableau(s)
            assert oracles.states_equal_up_to_phase(to_dense(s), ref[o], 1e-10)
            continue
        if kind == "single":
            q = data.draw(st.integers(0, n - 1), label="qubit")
            p = PauliString.single(n, q, data.draw(st.sampled_from("XYZ"), label="letter"))
            ref = {o: post for _pr, o, post in oracles.measure_pauli_vec(v, p)}
            o = data.draw(st.sampled_from(sorted(ref)), label="outcome")
            pinned = []
            s.measure(p, force=o, pinned=pinned)
            s.drop_measured(pinned, [q])
            expect = _reduced(ref[o], [k for k in range(n) if k != q])
        elif kind == "bell":
            a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True), label="pair")
            code = data.draw(st.integers(0, 3), label="bell index")
            prob, post = oracles.project_bell_vec(v, a, b, BD_SIGMA_ORDER[code])
            if prob < 1e-12:
                with pytest.raises(InconsistentProjection):
                    oracles.forced_bell_measure(copy_state(s), a, b, code)
                continue
            assert abs(oracles.forced_bell_measure(s, a, b, code) - prob) < 1e-10
            validate_tableau(s)
            if s.n:
                assert oracles.states_equal_up_to_phase(to_dense(s), post, 1e-10)
            continue
        else:
            drop = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1),
                                    label="drop"))
            expect = _reduced(v, [k for k in range(n) if k not in drop])
            # unmeasured qubits leave by the Gauss-Jordan oracle alone
            if abs(np.trace(expect.mat @ expect.mat).real - 1) > 1e-9:
                before = copy_state(s)
                with pytest.raises(TableauError, match="still entangled"):
                    oracles.remove_qubits(s, drop)
                assert same_state(s, before)
                continue
            oracles.remove_qubits(s, drop)
        validate_tableau(s)
        if s.n:
            assert abs(fidelity_with_vec(expect, to_dense(s)) - 1) < 1e-10


@pytest.mark.parametrize("gens", [
    ["XI", "ZI"],          # anticommuting
    ["ZI", "ZI"],          # dependent
    ["ZZ", "IZ", "ZI"],    # dependent, and three generators on two qubits
    ["ZI", "XX"],          # anticommuting on one qubit
    ["iZI", "IZ"],         # not Hermitian
    ["ZZI", "IZZ"],        # two generators on three qubits
])
def test_from_generators_rejects_bad_lists(gens):
    with pytest.raises(TableauError):
        oracles.from_generators([PauliString.from_string(g) for g in gens])


def test_from_generators_destabilizers_pair_with_the_generators():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        s = random_stabilizer_state(n, rng)
        built = oracles.from_generators(s.stabs)
        assert built.stabs == s.stabs
        validate_tableau(built)


def test_validate_rejects_dependent_stabilizers():
    phi = PauliString.from_string
    s = StabilizerState([phi("ZI"), phi("ZI")], [phi("XI"), phi("IX")])
    with pytest.raises(TableauError):
        validate_tableau(s)
