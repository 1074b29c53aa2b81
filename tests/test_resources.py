"""Tests for resource construction, merging and teleportation."""

from itertools import product

import numpy as np
import pytest

from mbqcomm.catalog import code_by_name, code_decode_syndrome, code_encode
from mbqcomm.codes import repetition_code
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import CliffordMap, PauliString, circuit_map
from mbqcomm.pauli import PauliError
from mbqcomm.resources import (
    ResourceError,
    VirtualMeasurement,
    _build_resource,
    cj_state,
    merge,
    premeasure_outputs,
    teleport_in,
)
from mbqcomm.tableau import InconsistentProjection, StabilizerState
import oracles
from oracles import (
    conjugation_reading,
    copy_state,
    epp_recurrence,
    forced_teleport,
    is_connected,
    plus_state,
    random_clifford,
    same_state,
    to_dense,
    to_graph,
    validate_tableau,
    zero_state,
)

RNG = np.random.default_rng


def all_outcomes(k):
    """Every tuple of k Bell outcomes, as letter codes."""
    return product(range(4), repeat=k)


def random_host_state(n, rng):
    s = zero_state(n)
    oracles.apply_clifford(s, random_clifford(n, rng))
    return s


def test_cj_identity_is_bell_pair():
    spec = cj_state(CliffordMap.identity(1), "id")
    assert same_state(spec.state, 
        oracles.from_generators(
            [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
        )
    )
    for code in range(4):
        out, syndrome = spec.byproduct([code])
        assert list(out) == [code] and len(syndrome) == 0
        info = conjugation_reading(spec, [code])
        assert str(info.frame) == "+" + "IZXY"[code]


def test_resource_invariant_inputs_plus_outputs():
    spec = cj_state(CliffordMap.identity(2), "id2")
    assert len(spec.inputs) + len(spec.outputs) == spec.n
    assert set(spec.inputs).isdisjoint(spec.outputs)


def test_teleport_identity_trivial():
    spec = cj_state(CliffordMap.identity(1), "id")
    res = forced_teleport(spec, plus_state(1), [0], forced=[0])
    assert str(res.reading.frame) == "+I"
    assert str(res.state.stabs[0]) == "+X"


def test_teleport_in_returns_the_outcome_codes():
    # the frame of the returned codes, applied, teleports the state through H
    spec = cj_state(circuit_map(1, [("H", 0)]), "h")
    rng = RNG(7)
    seen = set()
    for _ in range(40):
        base = random_host_state(1, rng)
        state, codes = teleport_in(spec, base, [0], rng=rng)
        seen.add(int(codes[0]))
        assert state.n == 1
        state.apply_pauli(PauliString.from_codes(spec.byproduct(codes)[0]))
        want = oracles.apply_unitary_vec(to_dense(base), oracles.H, [0])
        assert oracles.states_equal_up_to_phase(to_dense(state), want, 1e-12)
    assert seen == {0, 1, 2, 3}


def test_teleport_through_hadamard_every_outcome():
    spec = cj_state(circuit_map(1, [("H", 0)]), "h")
    rng = RNG(0)
    for _ in range(5):
        base = random_host_state(1, rng)
        want = oracles.apply_unitary_vec(to_dense(base), oracles.H, [0])
        for forced in all_outcomes(1):
            r = forced_teleport(spec, base, [0], forced)
            assert r.branch_probability == 0.25
            assert oracles.states_equal_up_to_phase(to_dense(r.state), want, 1e-12)


def test_teleport_through_cnot_reproduces_cnot():
    spec = cj_state(circuit_map(2, [("CNOT", 0, 1)]), "cnot")
    rng = RNG(1)
    for _ in range(5):
        base = random_host_state(2, rng)
        want = oracles.apply_unitary_vec(to_dense(base), oracles.CNOT, [0, 1])
        for forced in all_outcomes(2):
            r = forced_teleport(spec, base, [0, 1], forced)
            assert abs(r.branch_probability - 1 / 16) < 1e-15
            assert oracles.states_equal_up_to_phase(to_dense(r.state), want, 1e-12)


def test_channel_identity_random_cliffords():
    # teleport_in through cj(C) with frame corrections equals channel C
    rng = RNG(2)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        c = random_clifford(n, rng)
        spec = cj_state(c, "rc")
        base = random_host_state(n, rng)
        for forced in all_outcomes(n):
            state = forced_teleport(spec, base, range(n), forced).state
            # resulting state must be stabilized by C g C^dagger
            for g in base.stabs:
                img = c.conjugate(g)
                v = to_dense(state)
                assert np.allclose(oracles.apply_pauli_vec(img, v), v, atol=1e-10)


def test_teleport_cnot_on_bell_plus_zero_is_ghz_class():
    # host = |phi+> (x) |0>, teleport through cj(CNOT) wired to (pair half, fresh)
    spec = cj_state(circuit_map(2, [("CNOT", 0, 1)]), "cnot")
    gens = [PauliString.from_string(t) for t in ("XXI", "ZZI", "IIZ")]
    base = oracles.from_generators(gens)
    want = to_dense(base)
    want = oracles.apply_unitary_vec(want, oracles.CNOT, [1, 2])
    for forced in all_outcomes(2):
        state = forced_teleport(spec, base, [1, 2], forced).state
        got = to_dense(state)  # order: the unmeasured host qubit, out0, out1
        assert oracles.states_equal_up_to_phase(got, want, 1e-12)
        spec_g, _ = to_graph(state)
        assert is_connected(spec_g)


def test_premeasure_nothing_is_identity():
    spec = cj_state(circuit_map(2, [("CZ", 0, 1)]), "cz")
    same = premeasure_outputs(spec, [])
    assert same_state(same.state, spec.state)
    assert same.outputs == spec.outputs


def test_premeasure_equals_postselected_measurement():
    # pre-measured branch i == post-path branch (i, outcome +1), scaled by 2
    rng = RNG(3)
    for _ in range(6):
        c = random_clifford(2, rng)
        spec = cj_state(c, "rc")
        pre = premeasure_outputs(spec, [("out1", "Z")])
        base = random_host_state(2, rng)
        out1 = spec.outputs.index("out1")  # its position once both hosts are measured
        m_wire = spec.output_wires[out1]
        m_op = PauliString.single(spec.n_wires, m_wire, "Z")
        for forced in all_outcomes(2):
            r_pre = forced_teleport(pre, base, [0, 1], forced, apply_frame=False)
            r_post = forced_teleport(spec, base, [0, 1], forced, apply_frame=False)
            post = r_post.state
            z_out1 = PauliString.single(post.n, out1, "Z")
            random = not all(g.commutes(z_out1) for g in post.stabs)
            try:
                post.measure(z_out1, force=+1)
                post_prob = r_post.branch_probability * (0.5 if random else 1.0)
            except InconsistentProjection:
                post_prob = 0.0
            assert abs(r_pre.branch_probability - 2 * post_prob) < 1e-12
            if post_prob > 0:
                oracles.remove_qubits(post, [out1])
                assert oracles.states_equal_up_to_phase(
                    to_dense(r_pre.state), to_dense(post), 1e-12
                )
                # the virtual bit equals the frame commutation flag
                pushed = spec.circuit.conjugate(
                    PauliString.from_codes(forced).embed(spec.n_wires, list(spec.input_wires))
                )
                want_bit = 0 if pushed.commutes(m_op) else 1
                assert r_pre.reading.bits["meas[out1]"] == want_bit


def test_premeasure_impossible_projection_raises():
    # an ancilla |0> flipped to |1> cannot be projected onto Z=+1
    flip = cj_state(circuit_map(1, [("X", 0)]), "flip", ancilla_init=[(0, "Z")])
    assert flip.inputs == ()
    with pytest.raises(ResourceError, match=r"^pre-measurement meas\[out0\] has projection "
                                            r"probability zero$"):
        premeasure_outputs(flip, [("out0", "Z")])
    # one wire is pre-measured once: Z and then X on it is refused
    spec = cj_state(CliffordMap.identity(1), "id")
    with pytest.raises(ResourceError,
                       match=r"^pre-measurement meas\[out0\] measures wire 0 twice$"):
        premeasure_outputs(spec, [("out0", "Z"), ("out0", "X")])
    with pytest.raises(ResourceError, match=r"'out0' is not an output of id\+premeasured"):
        premeasure_outputs(premeasure_outputs(spec, [("out0", "Z")]), [("out0", "X")])


def test_premeasure_refuses_a_joint_operator_and_a_repeated_wire():
    # a pre-measurement is one X, Y or Z letter on a wire of its own
    def build(*ops):
        vms = [VirtualMeasurement(f"m{j}", PauliString.from_string(op)) for j, op in enumerate(ops)]
        return _build_resource("id3", CliffordMap.identity(3), range(3), (), vms)

    with pytest.raises(ResourceError, match=r"^pre-measurement m0 is \+XXI, not one X, Y or Z "
                                            r"letter on the 3 wires$"):
        build("XXI")
    with pytest.raises(ResourceError, match=r"^pre-measurement m1 measures wire 2 twice$"):
        build("IIZ", "IIX")
    with pytest.raises(ResourceError, match=r"^pre-measurement m0 is \+Z, not one"):
        build("Z")
    assert build("XII", "IIY").outputs == ("out0",)


def test_premeasure_refuses_an_identity_letter_and_an_unknown_one():
    spec = cj_state(CliffordMap.identity(2), "id2")
    with pytest.raises(ResourceError, match=r"^pre-measurement meas\[out0\] is \+II, not one "):
        premeasure_outputs(spec, [("out0", "I")])
    with pytest.raises(PauliError, match=r"^unknown Pauli letter 'Q'$"):
        premeasure_outputs(spec, [("out0", "Q")])


def test_a_resource_without_ancilla_feeds_builds_no_tableau(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("built a tableau")

    rng = RNG(8)
    monkeypatch.setattr(StabilizerState, "__init__", forbidden)
    monkeypatch.setattr(StabilizerState, "_from_rows", forbidden)
    a, b = cj_state(random_clifford(3, rng), "a"), cj_state(random_clifford(2, rng), "b")
    pre = premeasure_outputs(a, [("out2", "Y"), ("out0", "X")])
    product_ = merge(pre, b, ())
    assert product_.n == 3 + 1 + 2 + 2 and len(product_.virtual_meas) == 2
    # three outputs, then the two pre-measurements, which the syndrome
    # reads in measurement order
    assert product_.frame_map.shape == (5, 4, 3 + 2)
    assert product_.syndrome == ("a+premeasured/meas[out2]", "a+premeasured/meas[out0]")
    # a connection feeds a |0> ancilla and pre-measures its link wire: the
    # one build that reads the tableau, to refuse an impossible projection
    with pytest.raises(AssertionError, match="built a tableau"):
        merge(pre, b, [("out1", "in0")])


def _dense_projection_norm(n_in, w, gates, anc, vms) -> float:
    """Norm of the resource's dense vector projected onto +1 of each
    pre-measurement: each input k a Bell pair with its wire, each ancilla
    |0> or |+>, the gates on the wires."""
    n = n_in + w
    v = oracles.basis_state(n)
    inputs = [wire for wire in range(w) if wire not in anc]
    for k, wire in enumerate(inputs):
        v = oracles.apply_unitary_vec(v, oracles.H, [k])
        v = oracles.apply_unitary_vec(v, oracles.CNOT, [k, n_in + wire])
    for wire, letter in anc.items():
        if letter == "X":
            v = oracles.apply_unitary_vec(v, oracles.H, [n_in + wire])
    for name, *qs in gates:
        v = oracles.apply_unitary_vec(v, DENSE_GATES[name], [n_in + q for q in qs])
    for vm in vms:
        v = (v + oracles.apply_pauli_vec(vm.operator.shifted(n, n_in), v)) / 2
    return float(np.linalg.norm(v))


DENSE_GATES = {"H": oracles.H, "S": oracles.S, "X": oracles.X, "Y": oracles.Y, "Z": oracles.Z,
               "CNOT": oracles.CNOT, "CZ": oracles.U_PG}


def test_build_refuses_exactly_the_projections_of_norm_zero():
    # random circuits of up to 4 wires, random ancilla feeds and one-letter
    # pre-measurements: the build refuses iff the dense projection vanishes,
    # and an accepted build's tableau always builds
    rng = RNG(9)
    refused = accepted = 0
    for _ in range(400):
        w = int(rng.integers(1, 5))
        gates = []
        for name in rng.choice(list(DENSE_GATES), size=int(rng.integers(0, 7))):
            arity = 2 if name in ("CNOT", "CZ") else 1
            if arity <= w:
                gates.append((str(name), *(int(q) for q in rng.permutation(w)[:arity])))
        anc = {int(q): str(rng.choice(["Z", "X"])) for q in range(w) if rng.random() < 0.5}
        vms = [VirtualMeasurement(f"m{q}", PauliString.single(w, int(q), str(letter)))
               for q, letter in zip(rng.permutation(w)[:int(rng.integers(0, w + 1))],
                                    rng.choice(list("XYZ"), size=w))]
        input_wires = [q for q in range(w) if q not in anc]
        norm = _dense_projection_norm(len(input_wires), w, gates, anc, vms)
        try:
            spec = _build_resource("r", circuit_map(w, gates), input_wires, anc.items(), vms)
        except ResourceError as exc:
            assert "has projection probability zero" in str(exc)
            assert norm < 1e-9
            refused += 1
            continue
        assert norm > 0.1
        assert spec.state.n == spec.n
        accepted += 1
    assert refused > 10 and accepted > 200


def test_merge_identity_resources():
    ida = cj_state(CliffordMap.identity(1), "ida")
    idb = cj_state(CliffordMap.identity(1), "idb")
    merged = merge(ida, idb, [("out0", "in0")])
    assert merged.n == 2
    assert len(merged.inputs) == 1 and len(merged.outputs) == 1
    base = oracles.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )
    assert same_state(merged.state, base)
    for code in range(4):
        assert list(merged.byproduct([code])[0]) == [code]
        assert str(conjugation_reading(merged, [code]).frame) == "+" + "IZXY"[code]


def test_merge_matches_sequential_teleport():
    rng = RNG(4)
    for _ in range(5):
        c1 = random_clifford(2, rng)
        c2 = random_clifford(2, rng)
        r1 = cj_state(c1, "r1")
        r2 = cj_state(c2, "r2")
        merged = merge(r1, r2, [("out0", "in0"), ("out1", "in1")])
        assert merged.n == 4
        base = random_host_state(2, rng)
        want = copy_state(base)
        oracles.apply_clifford(want, c2 @ c1)
        for forced in all_outcomes(2):
            state = forced_teleport(merged, base, [0, 1], forced).state
            assert oracles.states_equal_up_to_phase(to_dense(state), to_dense(want), 1e-12)


def test_merge_associativity_as_channels():
    rng = RNG(5)
    c1, c2, c3 = (random_clifford(1, rng) for _ in range(3))
    a = cj_state(c1, "a")
    b = cj_state(c2, "b")
    c = cj_state(c3, "c")
    left = merge(merge(a, b, [("out0", "in0")]), c, [("b/out0", "in0")])
    right = merge(a, merge(b, c, [("out0", "in0")]), [("out0", "b/in0")])
    assert same_state(left.state, right.state)
    for code in range(4):
        assert list(left.byproduct([code])[0]) == list(right.byproduct([code])[0])


def test_merge_without_connections_is_the_product():
    rng = RNG(6)
    c1, c2 = random_clifford(2, rng), random_clifford(1, rng)
    product_ = merge(cj_state(c1, "r1"), cj_state(c2, "r2"), ())
    assert product_.inputs == ("r1/in0", "r1/in1", "r2/in0")
    assert product_.outputs == ("r1/out0", "r1/out1", "r2/out0")
    base = random_host_state(3, rng)
    want = copy_state(base)
    oracles.apply_clifford(want, c2.shifted(3, 2) @ c1.shifted(3, 0))
    for forced in all_outcomes(3):
        state = forced_teleport(product_, base, [0, 1, 2], forced).state
        assert oracles.states_equal_up_to_phase(to_dense(state), to_dense(want), 1e-12)


def test_merge_rejects_bad_connections():
    ida = cj_state(CliffordMap.identity(1), "ida")
    idb = cj_state(CliffordMap.identity(1), "idb")
    with pytest.raises(ResourceError):
        merge(ida, idb, [("nope", "in0")])
    with pytest.raises(ResourceError):
        merge(ida, idb, [("out0", "nope")])


@pytest.mark.parametrize("hosts, noise, message", [
    ([0], NoiseModel(), "takes 2 host qubits, got 1"),
    ([0, 0], NoiseModel(), "wired to two resource inputs"),
    ([0, 2], NoiseModel(), r"host qubits \[0, 2\] are not all in a register of 2"),
    ([0, 1], NoiseModel(p_resource=0.9), "requires an rng"),
    ([0, 1], NoiseModel(q_meas=0.9), "requires an rng"),
], ids=["host-count", "repeated-host", "missing-host", "p-resource-without-rng",
        "q-meas-without-rng"])
def test_teleport_in_refuses_before_touching_the_register(hosts, noise, message):
    spec = cj_state(CliffordMap.identity(2), "id2")
    base = random_host_state(2, RNG(5))
    before = copy_state(base)
    with pytest.raises(ResourceError, match=message):
        teleport_in(spec, base, hosts, noise)
    assert (base.stabs, base.destabs) == (before.stabs, before.destabs)


@pytest.mark.parametrize("n_host", [2, 3, 4])
def test_teleport_in_puts_the_outputs_after_the_unmeasured_hosts(n_host):
    # random host states into catalog resources: the state left equals
    # the pair-by-pair oracle's, whose outputs follow the hosts it leaves,
    # and the two take the same draws
    rng = RNG(40 + n_host)
    specs = [code_encode(repetition_code(3)), code_encode(code_by_name("ring5")),
             epp_recurrence(1), code_decode_syndrome(repetition_code(3))]
    for spec in specs:
        for _ in range(4):
            n_in = len(spec.inputs)
            base = random_host_state(max(n_host, n_in), rng)
            hosts = [int(q) for q in rng.permutation(base.n)[:n_in]]
            seed = int(rng.integers(1 << 32))
            rng_got, rng_want = RNG(seed), RNG(seed)
            state, codes = teleport_in(spec, base, hosts, rng=rng_got)
            want = forced_teleport(spec, base, hosts, rng=rng_want, apply_frame=False)
            assert tuple(codes.tolist()) == want.codes
            assert state.n == base.n - n_in + len(spec.outputs)
            validate_tableau(state)
            assert same_state(state, want.state)
            assert rng_got.random() == rng_want.random()
