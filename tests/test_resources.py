"""Tests for resource construction, merging and teleportation."""

from itertools import product

import numpy as np
import pytest

from mbqcomm.catalog import code_encode, epp_recurrence
from mbqcomm.codes import repetition_code
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import CliffordMap, PauliString, circuit_map
from mbqcomm.resources import (
    LabeledRegister,
    ResourceError,
    cj_state,
    merge,
    premeasure_joint,
    premeasure_outputs,
    teleport_in,
)
from mbqcomm.tableau import InconsistentProjection
import oracles
from oracles import (
    apply_register_pauli,
    conjugation_reading,
    forced_teleport,
    is_connected,
    plus_state,
    random_clifford,
    register_pauli,
    same_state,
    site_sizes,
    to_dense,
    to_graph,
    zero_state,
)

RNG = np.random.default_rng


def all_outcomes(k):
    """Every tuple of k Bell outcomes, as letter codes."""
    return product(range(4), repeat=k)


def remove_labels(reg, labels):
    """Drop product-state qubits of a register by label."""
    oracles.remove_qubits(reg.state, [reg.index(l) for l in labels])
    reg.labels = [l for l in reg.labels if l not in set(labels)]


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
        assert info.keep


def test_resource_invariant_inputs_plus_outputs():
    spec = cj_state(CliffordMap.identity(2), "id2")
    assert len(spec.inputs) + len(spec.outputs) == spec.n
    assert set(spec.inputs).isdisjoint(spec.outputs)


def test_teleport_identity_trivial():
    spec = cj_state(CliffordMap.identity(1), "id")
    host = LabeledRegister.from_state(plus_state(1), ["psi"])
    res = forced_teleport(spec, host, {"in0": "psi"}, forced=[0])
    assert str(res.reading.frame) == "+I"
    assert str(host.state.stabs[0]) == "+X"


def test_teleport_in_returns_the_outcome_codes():
    # the frame of the returned codes, applied, teleports the state through H
    spec = cj_state(circuit_map(1, [("H", 0)]), "h")
    rng = RNG(7)
    seen = set()
    for _ in range(40):
        base = random_host_state(1, rng)
        host = LabeledRegister.from_state(base.copy(), ["psi"])
        codes = teleport_in(spec, host, {"in0": "psi"}, rng=rng, out_labels=["o"])
        seen.add(int(codes[0]))
        assert host.labels == ["o"]
        apply_register_pauli(host, PauliString.from_codes(spec.byproduct(codes)[0]), ["o"])
        want = oracles.apply_unitary_vec(to_dense(base), oracles.H, [0])
        assert oracles.states_equal_up_to_phase(to_dense(host.state), want, 1e-12)
    assert seen == {0, 1, 2, 3}


def test_teleport_through_hadamard_every_outcome():
    spec = cj_state(circuit_map(1, [("H", 0)]), "h")
    rng = RNG(0)
    for _ in range(5):
        base = random_host_state(1, rng)
        want = oracles.apply_unitary_vec(to_dense(base), oracles.H, [0])
        for forced in all_outcomes(1):
            host = LabeledRegister.from_state(base.copy(), ["psi"])
            r = forced_teleport(spec, host, {"in0": "psi"}, forced)
            assert r.branch_probability == 0.25
            assert oracles.states_equal_up_to_phase(to_dense(host.state), want, 1e-12)


def test_teleport_through_cnot_reproduces_cnot():
    spec = cj_state(circuit_map(2, [("CNOT", 0, 1)]), "cnot")
    rng = RNG(1)
    for _ in range(5):
        base = random_host_state(2, rng)
        want = oracles.apply_unitary_vec(to_dense(base), oracles.CNOT, [0, 1])
        for forced in all_outcomes(2):
            host = LabeledRegister.from_state(base.copy(), ["a", "b"])
            r = forced_teleport(spec, host, {"in0": "a", "in1": "b"}, forced)
            assert abs(r.branch_probability - 1 / 16) < 1e-15
            assert oracles.states_equal_up_to_phase(to_dense(host.state), want, 1e-12)


def test_channel_identity_random_cliffords():
    # teleport_in through cj(C) with frame corrections equals channel C
    rng = RNG(2)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        c = random_clifford(n, rng)
        spec = cj_state(c, "rc")
        base = random_host_state(n, rng)
        for forced in all_outcomes(n):
            host = LabeledRegister.from_state(
                base.copy(), [f"q{k}" for k in range(n)]
            )
            forced_teleport(spec, host, {f"in{k}": f"q{k}" for k in range(n)}, forced)
            # resulting state must be stabilized by C g C^dagger
            for g in base.stabs:
                img = c.conjugate(g)
                v = to_dense(host.state)
                assert np.allclose(oracles.apply_pauli_vec(img, v), v, atol=1e-10)


def test_teleport_cnot_on_bell_plus_zero_is_ghz_class():
    # host = |phi+> (x) |0>, teleport through cj(CNOT) wired to (pair half, fresh)
    spec = cj_state(circuit_map(2, [("CNOT", 0, 1)]), "cnot")
    gens = [PauliString.from_string(t) for t in ("XXI", "ZZI", "IIZ")]
    base = oracles.from_generators(gens)
    want = to_dense(base)
    want = oracles.apply_unitary_vec(want, oracles.CNOT, [1, 2])
    for forced in all_outcomes(2):
        host = LabeledRegister.from_state(base.copy(), ["keep", "a", "b"])
        forced_teleport(spec, host, {"in0": "a", "in1": "b"}, forced,
                        out_labels=["o0", "o1"])
        got = to_dense(host.state)  # order: keep, o0, o1
        assert oracles.states_equal_up_to_phase(got, want, 1e-12)
        spec_g, _ = to_graph(host.state)
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
        wiring = {"in0": "a", "in1": "b"}
        m_wire = spec.output_wires[spec.outputs.index("out1")]
        m_op = PauliString.single(spec.n_wires, m_wire, "Z")
        for forced in all_outcomes(2):
            host_pre = LabeledRegister.from_state(base.copy(), ["a", "b"])
            r_pre = forced_teleport(pre, host_pre, wiring, forced, apply_frame=False)
            host_post = LabeledRegister.from_state(base.copy(), ["a", "b"])
            r_post = forced_teleport(spec, host_post, wiring, forced, apply_frame=False)
            z_out1 = register_pauli(host_post, PauliString.single(1, 0, "Z"), ["out1"])
            random = not all(g.commutes(z_out1) for g in host_post.state.stabs)
            try:
                host_post.state.measure(z_out1, force=+1)
                post_prob = r_post.branch_probability * (0.5 if random else 1.0)
            except InconsistentProjection:
                post_prob = 0.0
            assert abs(r_pre.branch_probability - 2 * post_prob) < 1e-12
            if post_prob > 0:
                remove_labels(host_post, ["out1"])
                assert oracles.states_equal_up_to_phase(
                    to_dense(host_pre.state), to_dense(host_post.state), 1e-12
                )
                # the virtual bit equals the frame commutation flag
                pushed = spec.circuit.conjugate(
                    PauliString.from_codes(forced).embed(spec.n_wires, list(spec.input_wires))
                )
                want_bit = 0 if pushed.commutes(m_op) else 1
                assert r_pre.reading.bits["meas[out1]"] == want_bit


def test_premeasure_impossible_projection_raises():
    # measuring X after Z on the same wire is random, hence allowed
    spec = cj_state(CliffordMap.identity(1), "id")
    twice = premeasure_outputs(spec, [("out0", "Z"), ("out0", "X")])
    assert twice.n == 1
    # an ancilla |0> flipped to |1> cannot be projected onto Z=+1
    flip = cj_state(circuit_map(1, [("X", 0)]), "flip", ancilla_init=[(0, "Z")])
    assert flip.inputs == ()
    with pytest.raises(ResourceError):
        premeasure_outputs(flip, [("out0", "Z")])


def test_premeasure_that_leaves_qubits_entangled_raises():
    # XX alone on two outputs of the identity leaves them a Bell pair
    # with the inputs
    id2 = cj_state(CliffordMap.identity(2), "id2")
    with pytest.raises(ResourceError, match=r"qubits of pre-measurement xx stay entangled"):
        premeasure_joint(id2, [({"out0": "X", "out1": "X"}, "xx")])
    both = premeasure_joint(id2, [({"out0": "X", "out1": "X"}, "xx"),
                                  ({"out0": "Z", "out1": "Z"}, "zz")])
    assert both.outputs == ()
    # Z on out1 after XX undoes XX: the pre-measurements linked by shared
    # wires are named, the others not
    id3 = cj_state(CliffordMap.identity(3), "id3")
    with pytest.raises(ResourceError, match=r"pre-measurement xx, z1 stay"):
        premeasure_joint(id3, [({"out0": "X", "out1": "X"}, "xx"), ({"out2": "Z"}, "z2"),
                               ({"out1": "Z"}, "z1")])


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
        want = base.copy()
        oracles.apply_clifford(want, c2 @ c1)
        for forced in all_outcomes(2):
            host = LabeledRegister.from_state(base.copy(), ["a", "b"])
            forced_teleport(merged, host, {"r1/in0": "a", "r1/in1": "b"}, forced)
            assert oracles.states_equal_up_to_phase(
                to_dense(host.state), to_dense(want), 1e-12
            )


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
    want = base.copy()
    oracles.apply_clifford(want, c2.shifted(3, 2) @ c1.shifted(3, 0))
    for forced in all_outcomes(3):
        host = LabeledRegister.from_state(base.copy(), ["a", "b", "c"])
        forced_teleport(product_, host, {"r1/in0": "a", "r1/in1": "b", "r2/in0": "c"},
                        forced)
        assert oracles.states_equal_up_to_phase(to_dense(host.state), to_dense(want), 1e-12)


def test_merge_carries_sites_without_the_connected_labels():
    epp = epp_recurrence(1)
    enc = code_encode(repetition_code(3))
    joined = merge(epp, enc, [("L/out0", "in")])
    assert site_sizes(joined) == {"epp_recurrence1/A": 2, "epp_recurrence1/B": 3}
    labels = set(joined.inputs + joined.outputs)
    assert all(set(site) <= labels for _name, site in joined.sites)
    side_by_side = merge(epp, enc, ())
    assert site_sizes(side_by_side) == {"epp_recurrence1/A": 3, "epp_recurrence1/B": 3}


def test_merge_rejects_bad_connections():
    ida = cj_state(CliffordMap.identity(1), "ida")
    idb = cj_state(CliffordMap.identity(1), "idb")
    with pytest.raises(ResourceError):
        merge(ida, idb, [("nope", "in0")])
    with pytest.raises(ResourceError):
        merge(ida, idb, [("out0", "nope")])


def test_teleport_requires_full_wiring():
    spec = cj_state(CliffordMap.identity(2), "id2")
    host = LabeledRegister.from_state(zero_state(2), ["a", "b"])
    with pytest.raises(ResourceError):
        teleport_in(spec, host, {"in0": "a"})


@pytest.mark.parametrize("wiring, noise, message", [
    ({"in0": "a", "in1": "a"}, NoiseModel(), "wired to two resource inputs"),
    ({"in0": "a", "in1": "z"}, NoiseModel(), "no qubit labeled 'z'"),
    ({"in0": "a", "in1": "b"}, NoiseModel(p_resource=0.9), "requires an rng"),
    ({"in0": "a", "in1": "b"}, NoiseModel(q_meas=0.9), "requires an rng"),
], ids=["repeated-host", "missing-host", "p-resource-without-rng", "q-meas-without-rng"])
def test_teleport_in_refuses_before_touching_the_register(wiring, noise, message):
    spec = cj_state(CliffordMap.identity(2), "id2")
    base = random_host_state(2, RNG(5))
    host = LabeledRegister.from_state(base, ["a", "b"])
    with pytest.raises(ResourceError, match=message):
        teleport_in(spec, host, wiring, noise)
    assert host.labels == ["a", "b"]
    assert (host.state.stabs, host.state.destabs) == (base.stabs, base.destabs)


def test_labeled_register_bookkeeping():
    reg = LabeledRegister.from_state(zero_state(3), ["a", "b", "c"])
    assert reg.index("b") == 1
    remove_labels(reg, ["a"])
    assert reg.labels == ["b", "c"]
    assert reg.n == 2
    with pytest.raises(ResourceError):
        reg.index("a")
    with pytest.raises(ResourceError):
        reg.add(zero_state(1), ["c"])
