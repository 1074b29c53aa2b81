"""Tests for code specs and the named resource catalog."""

import hashlib
import inspect
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcomm import catalog, codes as code_module, gf2
from mbqcomm.belldiag import epp_site_circuit
from mbqcomm.catalog import (
    CatalogError,
    code_by_name,
    code_correct,
    code_decode_syndrome,
    code_encode,
    epp_site_resource,
)
from mbqcomm.codes import CodeError, CodeSpec, repetition_code, ring5_code
from mbqcomm.noise import PauliChannel
from mbqcomm.pauli import PauliString, gate_map
from mbqcomm.resources import (
    ResourceError,
    ResourceSpec,
    cj_state,
)
import oracles
from oracles import (
    all_single_qubit_errors,
    canonical_generators,
    conjugation_reading,
    copy_state,
    correction_for,
    epp_recurrence,
    forced_teleport,
    graph_state,
    is_connected,
    lc_equivalent,
    path_graph,
    plus_state,
    random_clifford,
    relabelled,
    repeater_station,
    ring_graph,
    same_state,
    syndrome_of,
    to_dense,
    to_graph,
    validate_tableau,
    zero_state,
)


def code_encode_decode_combined(code: CodeSpec) -> ResourceSpec:
    """Combined encode/syndrome/decode state of N+2 qubits.

    Wire layout: 0..N-1 hold the encoded block, wire N the read-out
    qubit, entangled with the logical qubit before encoding.
    """
    n = code.n
    copy_out = gate_map(n + 1, "CNOT", 0, n)
    enc = code.encoder.shifted(n + 1, 0)
    circuit = enc @ copy_out
    anc = [(w, "Z") for w in range(1, n + 1)]
    out_names = {w: f"b{w}" for w in range(n)}
    out_names[n] = "out"
    return cj_state(
        circuit,
        name=f"{code.name}_combined",
        ancilla_init=anc,
        input_labels=["in"],
        output_labels=out_names,
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
            got = correction_for(code, syndrome_of(code, err))
            # correction must differ from the error only by a stabilizer
            residual = got * err
            assert residual.x == 0  # X parts cancel exactly
            assert code.decode(syndrome_of(code, err))[1]


def test_phase_repetition_code_is_hadamard_rotated():
    code = repetition_code(3, basis="phase")
    assert [str(g) for g in code.stabilizers] == ["+XXI", "+IXX"]
    assert str(code.logical_x) == "+ZZZ"
    err = PauliString.single(3, 1, "Z")
    assert correction_for(code, syndrome_of(code, err)) == err


def test_ring5_code_structure():
    code = ring5_code()
    assert len(code.stabilizers) == 4
    # logical flip between codewords is Z on every qubit
    assert str(code.logical_x) == "+ZZZZZ"
    syndromes = {syndrome_of(code, e) for e in all_single_qubit_errors(5)}
    assert len(syndromes) == 15
    assert (0, 0, 0, 0) not in syndromes


def test_ring5_codeword_is_ring_graph_state():
    code = ring5_code()
    enc = zero_state(5)
    oracles.apply_clifford(enc, code.encoder)
    assert same_state(enc, graph_state(ring_graph(5)))
    # |1_L> = Z^x5 |0_L>
    one = copy_state(enc)
    one.apply_pauli(PauliString(5, 0, 31, 0))
    v0, v1 = to_dense(enc), to_dense(one)
    zzzzz = oracles.pauli_matrix(PauliString(5, 0, 31, 0))
    assert oracles.states_equal_up_to_phase(zzzzz @ v0, v1, 1e-12)


def test_encoded_plus_satisfies_ring_stabilizers():
    code = ring5_code()
    enc = plus_state(1).tensor(zero_state(4))
    oracles.apply_clifford(enc, code.encoder)
    for g in code.stabilizers:
        assert enc.measure(g) == 1


def test_encode_resource_rep3_is_ghz4():
    spec = code_encode(repetition_code(3))
    assert spec.n == 4
    v = to_dense(spec.state)
    want = np.zeros(16, dtype=complex)
    want[0] = want[15] = 1 / np.sqrt(2)
    assert oracles.states_equal_up_to_phase(v, want, 1e-12)


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
        _, syndrome = corr.byproduct(np.zeros(code.n, dtype=np.uint8))
        assert list(syndrome) == [0] * len(code.stabilizers)


@pytest.mark.parametrize("name", ["ring5", "repetition3-phase"])
def test_merge_carries_the_decoder_syndrome(name):
    code = code_by_name(name)
    corr, dec = code_correct(code), code_decode_syndrome(code)
    for k, letter in product(range(code.n), range(4)):
        codes = np.array([letter if j == k else 0 for j in range(code.n)], dtype=np.uint8)
        assert list(corr.byproduct(codes)[1]) == list(dec.byproduct(codes)[1])


def test_syndrome_must_name_virtual_measurements():
    with pytest.raises(ResourceError, match=r"meas\[anc9\]"):
        relabelled(code_decode_syndrome(ring5_code()), syndrome=("meas[anc1]", "meas[anc9]"))


def test_combined_resource_rep3_is_ghz5():
    spec = code_encode_decode_combined(repetition_code(3))
    assert spec.n == 5
    v = to_dense(spec.state)
    want = np.zeros(32, dtype=complex)
    want[0] = want[31] = 1 / np.sqrt(2)
    assert oracles.states_equal_up_to_phase(v, want, 1e-12)


def test_epp_site_resource_sizes():
    # 2^m inputs and one output; the syndrome reads the 2^m - 1 targets
    for rounds, role in product((1, 2, 3), "AB"):
        spec = epp_site_resource(rounds, role)
        assert len(spec.inputs) == 1 << rounds and spec.outputs == ("out0",)
        assert spec.syndrome == tuple(vm.name for vm in spec.virtual_meas)
        assert len(spec.syndrome) == (1 << rounds) - 1


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
        epp_site_resource(1, "A"),
        epp_site_resource(2, "B"),
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
    info = conjugation_reading(st, [0] * 4)
    assert (info.bits["bell/meas[out0]"], info.bits["bell/meas[out1]"]) == (0, 0)
    _gates, targets = epp_site_circuit(1, "A")
    assert all(f"LR/{side}/meas[out{t}]" in info.bits for side in "LR" for t in targets)


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
    weights = [float(c == letter) for c in "IZXY"]
    channel = code_by_name(name).logical_channel(weights)
    assert list(channel) == [float(c == logical) for c in "IZXY"]


@pytest.mark.parametrize("eps", [0.1, 0.4, 0.6])
def test_repetition3_majority_vote_puts_its_flips_on_the_x_code(eps):
    # weights are indexed by letter code 2x + z, so a bit flip is code 2
    channel = repetition_code(3).logical_channel((1 - eps, 0.0, eps, 0.0))
    assert channel[2] == pytest.approx(3 * eps ** 2 - 2 * eps ** 3, rel=1e-12)
    assert channel[1] == channel[3] == 0.0


@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition5"])
def test_exact_channel_sums_to_one_and_beats_its_bound(name):
    code = code_by_name(name)
    assert abs(code.logical_channel(PauliChannel.depolarizing(0.9).weights).sum() - 1) < 1e-12
    assert code.logical_noise(0.9) >= code.logical_noise(0.9, code.correctable_weight)


@pytest.mark.parametrize("name", ["ring5", "repetition2", "repetition3", "repetition3-phase",
                                  "repetition4"])
def test_residual_is_the_oracle_residual_of_every_error(name):
    # the letter-array reading against the PauliString one: the lookup
    # correction times the error, its (logical X, logical Z) flips as the
    # z and x bits of the residual letter
    code = code_by_name(name)
    errors = [PauliString.identity(code.n)] + oracles.single_and_double_errors(code.n)
    got = code.residual(np.array([e.x for e in errors]), np.array([e.z for e in errors]))
    for error, letter in zip(errors, got):
        flips = oracles.logical_flips(code, error * correction_for(code, syndrome_of(code, error)))
        assert letter == 2 * flips[1] + flips[0], error
    assert (got == 0).any() and (got != 0).any()


def test_merge_encode_decode_is_identity_channel():
    for name in ("repetition3", "ring5"):
        code = code_by_name(name)
        enc = code_encode(code)
        dec = code_decode_syndrome(code)
        from mbqcomm.resources import merge

        chain = merge(enc, dec, [(f"b{k}", f"b{k}") for k in range(code.n)])
        assert chain.n == 2
        phi = oracles.from_generators(
            [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
        )
        assert same_state(chain.state, phi)
        rng = np.random.default_rng(0)
        for _ in range(10):
            base = zero_state(1)
            oracles.apply_clifford(base, random_clifford(1, rng))
            r = forced_teleport(chain, base, [0], rng=rng)
            assert oracles.states_equal_up_to_phase(to_dense(r.state), to_dense(base), 1e-12)


CATALOG_CODES = ("ring5", "repetition3", "repetition3-phase")


def catalog_resources(codes):
    specs = [epp_site_resource(m, role) for m in (1, 2, 3) for role in "AB"]
    specs += [repeater_station(m) for m in (1, 2)]
    for code in codes:
        specs += [code_encode(code), code_decode_syndrome(code), code_correct(code),
                  code_encode_decode_combined(code)]
    return specs


@pytest.mark.parametrize("name", CATALOG_CODES)
def test_decoder_is_the_encoder_inverse(name):
    # the decode resource runs the inverse encoder, built once per code
    code = code_by_name(name)
    assert code_decode_syndrome(code).circuit == code.encoder.inverse()
    assert code_decode_syndrome(code) is code_decode_syndrome(code)


def test_resource_builds_solve_nothing(monkeypatch):
    # a resource tableau is its circuit's image of Bell pairs and ancillas:
    # the destabilizers are conjugated along, never solved for
    codes = [code_by_name(name) for name in CATALOG_CODES]
    monkeypatch.setattr(catalog, "_BUILT", {})  # build every entry afresh

    def no_solve(*_args):
        raise AssertionError("a resource build called gf2.solve")

    monkeypatch.setattr(gf2, "solve", no_solve)
    assert len([spec.state for spec in catalog_resources(codes)]) == 20


def test_every_catalog_resource_tableau_is_valid():
    for spec in catalog_resources([code_by_name(name) for name in CATALOG_CODES]):
        validate_tableau(spec.state)


def _canonical_text(spec) -> str:
    """Every observable field of a resource, one line each: the sha256 of
    this text pins a resource down exactly. The state enters as its
    canonical generators: its rows are not observable, and the outcomes
    and rng draws of the commands depend on the state alone (the pairing
    of the rows is checked by `test_every_catalog_resource_tableau_is_valid`)."""
    lines = [
        f"name {spec.name}",
        f"inputs {' '.join(spec.inputs)}",
        f"outputs {' '.join(spec.outputs)}",
        f"input_wires {list(spec.input_wires)}",
        f"output_wires {list(spec.output_wires)}",
        f"ancillas {list(spec.ancilla_init)}",
        *(f"vm {vm.name} {vm.operator}" for vm in spec.virtual_meas),
        f"syndrome {list(spec.syndrome)}",
        *(f"gen {g}" for g in canonical_generators(spec.state)),
        *(f"image_x {p}" for p in spec.circuit.image_x),
        *(f"image_z {p}" for p in spec.circuit.image_z),
    ]
    return "\n".join(lines)


_CATALOG_BUILDS = {
    **{f"epp_site_resource({m},{r},{v})": (lambda m=m, r=r, v=v: epp_site_resource(m, r, v))
       for m in (1, 2, 3) for r in "AB" for v in ("DEJMPS", "BBPSSW")},
    **{f"epp_recurrence({m},{v})": (lambda m=m, v=v: epp_recurrence(m, v))
       for m in (1, 2, 3) for v in ("DEJMPS", "BBPSSW")},
    **{f"repeater_station({m})": (lambda m=m: repeater_station(m)) for m in (1, 2)},
    **{f"{build.__name__}({name})": (lambda b=build, c=name: b(code_by_name(c)))
       for name in ("ring5", "repetition3", "repetition3-phase", "repetition5")
       for build in (code_encode, code_correct, code_decode_syndrome,
                     code_encode_decode_combined)},
}

# sha256 of `_canonical_text` per build: a refactor of how resources are
# merged, pre-measured or embedded must leave every catalog entry's state
# and fields as they are
CATALOG_DIGESTS = {
    "code_correct(repetition3)":
        "4fbbb623bbbd8ccd623c9a7e9d6d4555e5f5a51f63ecfde02ed5c400832d2233",
    "code_correct(repetition3-phase)":
        "fec786c14614d104fd8e2dab58a42934442ffd48a7ea66e8f1ebd6bd498d415e",
    "code_correct(repetition5)":
        "6e54b5bd36507024cbb82124ab8c2fa47c78be217e0fd6336ba49bde861d4580",
    "code_correct(ring5)":
        "5090e50a55f4729130f32a1dde85210a627fb304164b7aca32fcc88baf7f1beb",
    "code_decode_syndrome(repetition3)":
        "cd906f86d330e192d0b317a9dfb59b32fe7255fec4d5d1d957884c544761cebe",
    "code_decode_syndrome(repetition3-phase)":
        "48ebac94b793070d2d6c69f9e966371b428c8eac849aab8b30c8f8cb37c294ed",
    "code_decode_syndrome(repetition5)":
        "11542fd7290cd70f3176487c587c2448d5d6f3a70b871e4d1e9bf931a3e03cee",
    "code_decode_syndrome(ring5)":
        "b5609eacf4ba87ebad392ddc499f3fbb73d9ae16174bf9457862c779083006d1",
    "code_encode(repetition3)":
        "42a22fb69ec16e7af19002af1b4e51d786687aa31b09016d9007b7e5d2b8bc5a",
    "code_encode(repetition3-phase)":
        "4830cdd3233416cd2022419325d86b1b385faf734a00a76015c2f418f1663e90",
    "code_encode(repetition5)":
        "36a2091dfcd315f821be14e36e018f690fe119d721310fc7468ab722194b4ad4",
    "code_encode(ring5)":
        "a95c943edab01a4d8dd4bba0cd8dd4650e85841419341870e324819f8c9f6a61",
    "code_encode_decode_combined(repetition3)":
        "171686cbee0f56fc3f8c108c1d9468ca107f98e7ad58a96376356e4eb8a60333",
    "code_encode_decode_combined(repetition3-phase)":
        "a58429a8197dde33a008641c7a87f550a05714627a9e3c222fc47ed8e63d3638",
    "code_encode_decode_combined(repetition5)":
        "03a98769125cb08fd38b85873ea0706ee2c0ee92264d8a1dffeb03dcc40a26b1",
    "code_encode_decode_combined(ring5)":
        "3dd7fe0384634887899c891b3320d754d876a6fa002f3d69d98e0f0e1da78aa4",
    "epp_recurrence(1,BBPSSW)":
        "da1c208804a05b8dbdb397100120dc1a05bd733f4c65c3c3da3932a816691b1e",
    "epp_recurrence(1,DEJMPS)":
        "be26f8456d2fc5b4e7402f3b5fb60915fec3d45e7da2c16779c63089684bac58",
    "epp_recurrence(2,BBPSSW)":
        "91e3bc6f95939026a81989b841936339db99a4b23a47c629a8b6861c3588c1d9",
    "epp_recurrence(2,DEJMPS)":
        "77be780e94e5b99b83213005f4cf5264de9cfa60973b901656468a533b19b57c",
    "epp_recurrence(3,BBPSSW)":
        "a059471fa2f869b160ecee0adfb1fa8d96cb13330f4ff1b58d571548bc4dee92",
    "epp_recurrence(3,DEJMPS)":
        "73e79b24e5292d81374732727977a23529a678362c40fac2c58e753e4dba9af9",
    "epp_site_resource(1,A,BBPSSW)":
        "335f53f87601ef2e0d1acd25b5727e77ad5b6abe1fbba449ca75df17f1c981c2",
    "epp_site_resource(1,A,DEJMPS)":
        "b8d6522019aa974278d12ec562d5135113dd16fd2633c78d73ddd20a04d729d7",
    "epp_site_resource(1,B,BBPSSW)":
        "a30e71ce5790c39d8e5d232721ab131076c3f6dd3ca32872a2d871011755493a",
    "epp_site_resource(1,B,DEJMPS)":
        "05f1b5c2f3c5663eee601eecefbddaca9d3e46f78e8a6f49d3da7cef99a86dff",
    "epp_site_resource(2,A,BBPSSW)":
        "a3b34e0ad56a57c3f5d10f0bcbb89de956ea99905c660f43d663d161c7144c46",
    "epp_site_resource(2,A,DEJMPS)":
        "d0509ed3d5f7ed7c5aad73429d20fce6a7bd7830a22df4663387d4ee902166d2",
    "epp_site_resource(2,B,BBPSSW)":
        "d5030443151848674881fbd18eb269890f93da78fd164cff7cf70189d0ae342f",
    "epp_site_resource(2,B,DEJMPS)":
        "0b00f5763493bf6ee278257936d450428519044d25206892599200158f2f3ad9",
    "epp_site_resource(3,A,BBPSSW)":
        "7309b51d637d9aea109dae2541bcb9b3b6cfd4876407e4dc51369c3b00562959",
    "epp_site_resource(3,A,DEJMPS)":
        "84892b755300a4f864dc2533dcf9931bf68d8837615b95598e01744f82d68985",
    "epp_site_resource(3,B,BBPSSW)":
        "eca1dfa952fdcbb5dbdbc86eff22433447e393cadc651fcfc32b348e2fe1da1e",
    "epp_site_resource(3,B,DEJMPS)":
        "4d14974b73f743fef5dc9920f07b6b59477402865bb71e3fa2518296ac02283d",
    "repeater_station(1)":
        "dfa44e358c3b0542f9d38e1c8c47ac1e1430c3210f85d6f3c126dec9050e928d",
    "repeater_station(2)":
        "8dc238a25701b51389e2dc1b51ef3b5e9c26c786a701bbd98632fa2866ad7e5b",
}


@pytest.mark.parametrize("key", sorted(_CATALOG_BUILDS))
def test_catalog_resource_digest_is_frozen(key):
    text = _canonical_text(_CATALOG_BUILDS[key]())
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGESTS[key]


# -- entries are built once and shared


def test_a_repeated_build_returns_the_same_object():
    code = code_by_name("ring5")
    assert code_by_name("ring5") is code
    for build in (code_encode, code_decode_syndrome, code_correct):
        assert build(code) is build(code)
    assert epp_site_resource(1, "A") is epp_site_resource(1, "A", "DEJMPS") \
        is epp_site_resource(1, "A", variant="DEJMPS")


def test_catalog_builders_stay_plain_functions_returning_resources():
    # the benchmark counts builds as calls of catalog functions annotated
    # to return a ResourceSpec; a memo object such as lru_cache would hide them
    for build in (epp_site_resource, code_encode, code_decode_syndrome, code_correct):
        assert inspect.isfunction(build)
        assert inspect.signature(build).return_annotation in ("ResourceSpec", ResourceSpec)


def test_a_repeated_positional_call_binds_no_signature(monkeypatch):
    monkeypatch.setattr(catalog, "_BUILT", {})
    binds = []
    bind = inspect.Signature.bind
    monkeypatch.setattr(inspect.Signature, "bind",
                        lambda self, *a, **k: binds.append(a) or bind(self, *a, **k))
    first = epp_site_resource(2, "A")
    assert binds
    binds.clear()
    assert epp_site_resource(2, "A") is first
    assert binds == []
    # every spelling of the same arguments answers with the same object
    assert epp_site_resource(2, "A", "DEJMPS") is first
    assert epp_site_resource(rounds=2, role="A") is first
    assert epp_site_resource(2, "A", variant="DEJMPS") is first


def test_a_code_keys_its_resources_by_identity():
    # two equal codes are two instances, each with its own resources
    a, b = repetition_code(3), repetition_code(3)
    assert a.lookup.tobytes() == b.lookup.tobytes()
    for build in (code_encode, code_decode_syndrome, code_correct):
        assert build(a) is build(a)
        assert build(a) is not build(b)


LOOKUP_CODES = {"ring5": (ring5_code, ())}
LOOKUP_CODES.update({f"repetition{m}-{basis}": (repetition_code, (m, basis))
                     for m in range(2, 8) for basis in ("bit", "phase")})


@pytest.mark.parametrize("build, args", LOOKUP_CODES.values(), ids=LOOKUP_CODES.keys())
def test_lookup_table_equals_the_sorting_oracle(monkeypatch, build, args):
    # the table picks lowest weights in numpy and compares text only among
    # ties; sorting every candidate by (weight, text) gives the same bytes
    made = []
    table_of = code_module._min_weight_table

    def checked(stabilizers, candidates):
        table = table_of(stabilizers, candidates)
        made.append((table, oracles.min_weight_table(stabilizers, candidates)))
        return table

    monkeypatch.setattr(code_module, "_min_weight_table", checked)
    code = build(*args)
    [(table, want)] = made
    assert (table.dtype, table.shape) == (want.dtype, want.shape)
    assert table.tobytes() == want.tobytes() == code.lookup.tobytes()


def test_a_lookup_table_names_its_lowest_missing_syndrome():
    code = repetition_code(3)
    candidates = [PauliString(3, 0, 0, 0), PauliString(3, 0b001, 0, 0)]
    with pytest.raises(CodeError, match=r"syndrome \(0, 1\) missing"):
        code_module._min_weight_table(code.stabilizers, candidates)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.data())
def test_solve_equals_the_dense_oracle(cols, data):
    # more rows than unknowns, or repeated rows, make most systems inconsistent
    m = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=m, max_size=m))
    rhs = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    mat = np.array([[row >> c & 1 for c in range(cols)] for row in rows], dtype=np.uint8)
    want = oracles.solve_dense(mat, np.array(rhs))
    got = gf2.solve(rows, rhs, cols)
    if want is None:
        assert got is None
    else:
        assert got == sum(int(b) << c for c, b in enumerate(want))


def test_solve_reports_an_inconsistent_system():
    assert gf2.solve([0b01, 0b01], [0, 1], 2) is None
    assert gf2.solve([0b11, 0b01], [1, 1], 2) == 0b01
    assert gf2.solve([0b10], [1], 2) == 0b10


def test_distinct_arguments_give_distinct_resources():
    codes = [code_by_name(name) for name in ("ring5", "repetition3", "repetition3-phase")]
    specs = [build(code) for code in codes
             for build in (code_encode, code_decode_syndrome, code_correct)]
    specs += [epp_recurrence(m, v) for m in (1, 2) for v in ("DEJMPS", "BBPSSW")]
    specs += [epp_site_resource(m, role, v) for m in (1, 2) for role in "AB"
              for v in ("DEJMPS", "BBPSSW")]
    assert len({id(spec) for spec in specs}) == len(specs)
    texts = [_canonical_text(spec) for spec in specs]
    assert len(set(texts)) == len(texts)


def test_runs_leave_the_shared_resources_as_built(capsys):
    # every run of one process couples into the same three resources; a
    # noisy qec shot and a two-segment chain must leave them exactly as
    # built
    from mbqcomm.cli import main

    code = code_by_name("ring5")
    builds = (code_encode, code_correct, code_decode_syndrome)
    shared = [build(code) for build in builds]
    before = [_canonical_text(spec) for spec in shared]
    noise = ["--p-resource", "0.9", "--q-meas", "0.9", "--q-channel", "0.8"]
    assert main(["qec", *noise, "--samples", "3"]) == 0
    assert main(["chain", "--segments", "2", *noise, "--samples", "3"]) == 0
    capsys.readouterr()
    assert all(build(code) is spec for build, spec in zip(builds, shared))
    assert [_canonical_text(spec) for spec in shared] == before
