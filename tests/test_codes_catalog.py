"""Tests for code specs and the named resource catalog."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from mbqcomm import dense, gf2
from mbqcomm.catalog import (
    CatalogError,
    code_by_name,
    code_correct,
    code_decode_syndrome,
    code_encode,
    code_encode_decode_combined,
    epp_recurrence,
    epp_site_circuit,
    epp_site_resource,
    repeater_station,
)
from mbqcomm.codes import CodeError, all_single_qubit_errors, repetition_code, ring5_code
from mbqcomm.noise import PauliChannel
from mbqcomm.pauli import PauliString
from mbqcomm.resources import LabeledRegister, ResourceError, teleport_in
from mbqcomm.tableau import (
    BellOutcome,
    StabilizerState,
    graph_state,
    is_connected,
    lc_equivalent,
    path_graph,
    ring_graph,
    to_graph,
)


def test_repetition_code_structure():
    code = repetition_code(3)
    assert [str(g) for g in code.stabilizers] == ["+ZZI", "+IZZ"]
    assert str(code.logical_x) == "+XXX"
    assert str(code.logical_z) == "+ZII"
    assert code.correctable_weight == 1
    code5 = repetition_code(5)
    assert code5.correctable_weight == 2
    with pytest.raises(CodeError):
        repetition_code(1)


def test_repetition_syndrome_lookup_corrects_bitflips():
    for m in (3, 5, 7):
        code = repetition_code(m)
        t = code.correctable_weight
        for bits in range(1 << m):
            err = PauliString(m, bits, 0, 0)
            if err.weight > t:
                continue
            got = code.correction_for(code.syndrome_of(err))
            # correction must differ from the error only by a stabilizer
            residual = got * err
            assert residual.x == 0  # X parts cancel exactly
            assert code.correctable(code.syndrome_of(err))


def test_phase_repetition_code_is_hadamard_rotated():
    code = repetition_code(3, basis="phase")
    assert [str(g) for g in code.stabilizers] == ["+XXI", "+IXX"]
    assert str(code.logical_x) == "+ZZZ"
    err = PauliString.single(3, 1, "Z")
    assert code.correction_for(code.syndrome_of(err)) == err


def test_ring5_code_structure():
    code = ring5_code()
    assert len(code.stabilizers) == 4
    # logical flip between codewords is Z on every qubit
    assert str(code.logical_x) == "+ZZZZZ"
    syndromes = {code.syndrome_of(e) for e in all_single_qubit_errors(5)}
    assert len(syndromes) == 15
    assert (0, 0, 0, 0) not in syndromes


def test_ring5_codeword_is_ring_graph_state():
    code = ring5_code()
    enc = StabilizerState.zero_state(5)
    enc.apply_clifford(code.encoder)
    assert enc.same_state(graph_state(ring_graph(5)))
    # |1_L> = Z^x5 |0_L>
    one = enc.copy()
    one.apply_pauli(PauliString(5, 0, 31, 0))
    v0, v1 = enc.to_dense(), one.to_dense()
    zzzzz = dense.pauli_matrix(PauliString(5, 0, 31, 0))
    assert dense.states_equal_up_to_phase(zzzzz @ v0, v1, 1e-12)


def test_encoded_plus_satisfies_ring_stabilizers():
    code = ring5_code()
    enc = StabilizerState.plus_state(1).tensor(StabilizerState.zero_state(4))
    enc.apply_clifford(code.encoder)
    for g in code.stabilizers:
        assert enc.measure(g) == 1


def test_encode_resource_rep3_is_ghz4():
    spec = code_encode(repetition_code(3))
    assert spec.n == 4
    v = spec.state.to_dense()
    want = np.zeros(16, dtype=complex)
    want[0] = want[15] = 1 / np.sqrt(2)
    assert dense.states_equal_up_to_phase(v, want, 1e-12)


def test_decode_resource_shares_encode_state():
    # encode and decode+syndrome resources are the same GHZ-type state
    code = repetition_code(3)
    enc = code_encode(code)
    dec = code_decode_syndrome(code)
    assert dec.n == code.n + 1
    assert len(dec.inputs) == code.n and dec.outputs == ("out",)
    # same entanglement class: both reduce to connected graphs
    for spec in (enc, dec):
        g, _ = to_graph(spec.state)
        assert is_connected(g)


def test_correct_resource_size_and_syndrome_info():
    for name in ("repetition3", "ring5"):
        code = code_by_name(name)
        corr = code_correct(code)
        assert corr.n == 2 * code.n
        info = corr.byproduct(
            [BellOutcome.from_index(0)] * code.n
        )
        assert info.syndrome == (0,) * len(code.stabilizers)


@pytest.mark.parametrize("name", ["ring5", "repetition3-phase"])
def test_merge_carries_the_decoder_syndrome(name):
    code = code_by_name(name)
    corr, dec = code_correct(code), code_decode_syndrome(code)
    for k, i in product(range(code.n), range(4)):
        outcomes = [BellOutcome.from_index(i if j == k else 0) for j in range(code.n)]
        assert corr.byproduct(outcomes).syndrome == dec.byproduct(outcomes).syndrome


def test_checks_and_syndrome_must_name_virtual_measurements():
    spec = epp_recurrence(1)
    with pytest.raises(ResourceError, match="nope"):
        replace(spec, checks=spec.checks + (("L/meas[out1]", "nope"),))
    with pytest.raises(ResourceError, match=r"meas\[anc9\]"):
        replace(code_decode_syndrome(ring5_code()), syndrome=("meas[anc1]", "meas[anc9]"))


def test_combined_resource_rep3_is_ghz5():
    spec = code_encode_decode_combined(repetition_code(3))
    assert spec.n == 5
    v = spec.state.to_dense()
    want = np.zeros(32, dtype=complex)
    want[0] = want[31] = 1 / np.sqrt(2)
    assert dense.states_equal_up_to_phase(v, want, 1e-12)


def test_epp_recurrence_sizes():
    for rounds in (1, 2):
        spec = epp_recurrence(rounds)
        per_site = (1 << rounds) + 1
        assert spec.site_sizes() == {"A": per_site, "B": per_site}


def test_epp_site_resources_are_graph_classes():
    # one round: GHZ class (connected 3-graph); two rounds: linear cluster
    site1 = epp_site_resource(1, "A")
    g1, _ = to_graph(site1.state)
    assert g1.n == 3 and is_connected(g1)
    site2 = epp_site_resource(2, "A")
    assert site2.n == 5
    g2, _ = to_graph(site2.state)
    assert lc_equivalent(g2, path_graph(5))


def test_every_catalog_resource_is_graph_state_equivalent():
    specs = [
        epp_recurrence(1),
        epp_recurrence(2),
        code_encode(repetition_code(3)),
        code_decode_syndrome(repetition_code(3)),
        code_correct(repetition_code(3)),
        code_encode(ring5_code()),
        code_decode_syndrome(ring5_code()),
        code_encode_decode_combined(repetition_code(3)),
        code_encode_decode_combined(ring5_code()),
        repeater_station(1),
    ]
    for spec in specs:
        g, _ops = to_graph(spec.state)  # raises if not reducible
        assert g.n == spec.n


def test_repeater_station_is_input_only():
    st = repeater_station(1)
    assert st.outputs == ()
    assert len(st.inputs) == 4
    st2 = repeater_station(2)
    assert len(st2.inputs) == 8 and st2.n == 8
    info = st.byproduct([BellOutcome.from_index(0)] * 4)
    assert (info.bits["swap_xx"], info.bits["swap_zz"]) == (0, 0)
    _gates, targets = epp_site_circuit(1, "A")
    assert all(f"{side}/meas[out{t}]" in info.bits for side in "LR" for t in targets)


def test_code_by_name_rejects_unknown_names():
    for name in ("repetitionX", "nope", "repetition3-bit"):
        with pytest.raises(CatalogError):
            code_by_name(name)


@pytest.mark.parametrize("p", [0.5, 0.8251691576898097, 0.9, 0.99])
def test_ring5_weight_one_channel_is_the_paper_bound(p):
    p_no = (3 * p + 1) / 4
    channel = ring5_code().logical_channel(PauliChannel.depolarizing(p).weights, 1)
    assert abs(channel[0] - (p_no ** 5 + 5 * p_no ** 4 * (1 - p_no))) < 1e-14
    assert abs(channel.sum() - channel[0]) < 1e-15  # every weight-1 error is corrected


# the same Pauli on every qubit has trivial syndrome and is a logical
# operator: Z^5 is ring5's logical X, X^5 the product of all its graph
# generators (logical Z up to stabilizers)
@pytest.mark.parametrize("name,letter,logical", [
    ("ring5", "Z", "X"), ("ring5", "X", "Z"), ("ring5", "Y", "Y"),
    ("repetition3", "X", "X"), ("repetition3", "Z", "Z"), ("repetition3", "Y", "Y"),
    ("repetition3-phase", "Z", "X"), ("repetition3-phase", "X", "Z"),
])
def test_logical_channel_labels_residuals_by_the_logicals(name, letter, logical):
    weights = [float(c == letter) for c in "IXYZ"]
    channel = code_by_name(name).logical_channel(weights)
    assert list(channel) == [float(c == logical) for c in "IXYZ"]


@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition5"])
def test_exact_channel_sums_to_one_and_beats_its_bound(name):
    code = code_by_name(name)
    assert abs(code.logical_channel(PauliChannel.depolarizing(0.9).weights).sum() - 1) < 1e-12
    assert code.logical_noise(0.9) >= code.logical_noise(0.9, code.correctable_weight)


def test_merge_encode_decode_is_identity_channel():
    for name in ("repetition3", "ring5"):
        code = code_by_name(name)
        enc = code_encode(code)
        dec = code_decode_syndrome(code)
        from mbqcomm.resources import merge

        chain = merge(enc, dec, [(f"b{k}", f"b{k}") for k in range(code.n)])
        assert chain.n == 2
        phi = StabilizerState.from_generators(
            [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
        )
        assert chain.state.same_state(phi)
        rng = np.random.default_rng(0)
        for _ in range(10):
            base = StabilizerState.zero_state(1)
            from mbqcomm.pauli import random_clifford

            base.apply_clifford(random_clifford(1, rng))
            host = LabeledRegister.from_state(base.copy(), ["psi"])
            r = teleport_in(
                chain, host, {f"{enc.name}/in": "psi"}, rng=rng, apply_frame=True
            )
            assert r.keep
            assert dense.states_equal_up_to_phase(
                host.to_dense(), base.to_dense(), 1e-12
            )


CATALOG_CODES = ("ring5", "repetition3", "repetition3-phase")


def catalog_resources(codes):
    specs = [epp_recurrence(m) for m in (1, 2, 3)]
    specs += [repeater_station(m) for m in (1, 2)]
    specs += [epp_site_resource(m, role) for m in (1, 2) for role in "AB"]
    for code in codes:
        specs += [code_encode(code), code_decode_syndrome(code), code_correct(code),
                  code_encode_decode_combined(code)]
    return specs


def test_resource_builds_solve_nothing(monkeypatch):
    # a resource tableau is its circuit's image of Bell pairs and ancillas:
    # the destabilizers are conjugated along, never solved for
    codes = [code_by_name(name) for name in CATALOG_CODES]

    def no_solve(*_args):
        raise AssertionError("a resource build called gf2.solve")

    monkeypatch.setattr(gf2, "solve", no_solve)
    assert len(catalog_resources(codes)) == 21


def test_every_catalog_resource_tableau_is_valid():
    for spec in catalog_resources([code_by_name(name) for name in CATALOG_CODES]):
        spec.state.validate()
