"""The frame map and its one reader: the map and `byproduct`, output
letters and syndrome, against the reading by conjugation through the
circuit; the purification engine's reading of its two site resources
(kept iff the two syndromes agree, the Bell index of the kept pair's
letters) against that reading and against the tableau, both through the
sites' side-by-side product, on injected error patterns; no tableau
work per purification attempt and no resource but the two sites; and
the QEC stations' table reading against the conjugation oracle on every
single and double error, where the batched station maps of the error
enumeration give the tableau's verdicts without running it."""

from itertools import combinations, product

import numpy as np
import pytest

from mbqcomm import catalog, cli, protocols, resources
from mbqcomm.belldiag import werner
from mbqcomm.catalog import (
    code_by_name,
    code_correct,
    code_decode_syndrome,
    code_encode,
    epp_site_resource,
)
from mbqcomm.netsim import corrected
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import PauliString
from mbqcomm.protocols import purify_recurrence, qec_encode, station_reading
from mbqcomm.resources import teleport_in
from mbqcomm.rng import make_rng
from mbqcomm.tableau import StabilizerState
from oracles import (
    conjugation_reading,
    conjugation_station,
    copy_state,
    correction_for,
    epp_recurrence,
    forced_teleport,
    logical_flips,
    repeater_station,
    single_and_double_errors,
    sites_agree,
    syndrome_of,
)

CODES = {"I": 0, "Z": 1, "X": 2, "Y": 3}
SEEDS = (1, 2)


def qubits(spec):
    """Every qubit an error can hit: the host pairs' halves, pair k on
    host qubits 2k (into L/in{k}) and 2k + 1 (into R/in{k}), then the
    resource qubits (inputs first, then outputs, as in the tableau)."""
    return ([("host", q) for q in range(len(spec.inputs))]
            + [("resource", q) for q in range(spec.n)])


def tableau_run(spec, errors, seed):
    """Kept flag and output Bell index of one noiseless teleportation of
    perfect pairs, with the Paulis `errors` injected first."""
    host = StabilizerState.bell_pair()
    for _ in range(len(spec.inputs) // 2 - 1):
        host = host.tensor(StabilizerState.bell_pair())
    state = copy_state(spec.state)
    for (kind, q), letter in errors:
        target = host if kind == "host" else state
        target.apply_pauli(PauliString.single(target.n, q, letter))
    sides = [label.split("/in") for label in spec.inputs]
    hosts = [2 * int(k) + (side == "R") for side, k in sides]
    result = forced_teleport(spec, host, hosts, rng=make_rng(seed), resource=state)
    if not sites_agree(result.reading.syndrome):
        return False, None
    left, right = spec.outputs.index("L/out0"), spec.outputs.index("R/out0")
    return True, result.state.bell_measure(left, right, None, [])


def pair_reading(rounds, in_codes, out_codes):
    """Kept flag and output Bell index of attempts given by their frames
    in `epp_recurrence`'s input order, read as
    `purify_recurrence_stabilizer` reads them: site A's `byproduct` reads
    the first 2^rounds letters and site B's the rest, an attempt is kept
    iff the two syndromes agree, and the index is the XOR of the two
    output letters and `out_codes` on L/out0 and R/out0."""
    n = 1 << rounds
    out_a, read_a = epp_site_resource(rounds, "A").byproduct(in_codes[:n])
    out_b, read_b = epp_site_resource(rounds, "B").byproduct(in_codes[n:])
    return (read_a == read_b).all(axis=0), out_a[0] ^ out_b[0] ^ out_codes[0] ^ out_codes[1]


def frame_runs(rounds, patterns):
    """Kept flags and output Bell indices of the frame kernel, one column
    per error pattern on `epp_recurrence(rounds)`."""
    spec = epp_recurrence(rounds)
    n_in = len(spec.inputs)
    in_codes = np.zeros((n_in, len(patterns)), dtype=np.uint8)
    out_codes = np.zeros((len(spec.outputs), len(patterns)), dtype=np.uint8)
    for s, errors in enumerate(patterns):
        for (kind, q), letter in errors:
            if kind == "host":
                in_codes[spec.inputs.index(f"{'LR'[q % 2]}/in{q // 2}"), s] ^= CODES[letter]
            elif q < n_in:
                in_codes[q, s] ^= CODES[letter]
            else:
                out_codes[q - n_in, s] ^= CODES[letter]
    return pair_reading(rounds, in_codes, out_codes)


@pytest.mark.parametrize("spec", [
    epp_recurrence(1), repeater_station(1), code_encode(code_by_name("ring5")),
    code_correct(code_by_name("ring5")), code_correct(code_by_name("repetition3-phase")),
    *(epp_site_resource(m, role) for m in range(1, 6) for role in "AB"),
], ids=lambda spec: spec.name)
def test_frame_map_is_the_byproduct_of_every_letter(spec):
    out, flips = spec.frame_map
    assert spec.frame_map is spec.frame_map  # built once per resource
    assert not out.flags.writeable and not flips.flags.writeable
    assert spec._read_table.flags.c_contiguous  # `byproduct` gathers its rows
    syndrome_at = [[vm.name for vm in spec.virtual_meas].index(s) for s in spec.syndrome]
    n_syndrome = len(spec.syndrome)
    for k, code in product(range(len(spec.inputs)), range(4)):
        codes = [code if j == k else 0 for j in range(len(spec.inputs))]
        info = conjugation_reading(spec, codes)
        assert list(out[k, code]) == info.frame.codes()
        assert list(flips[k, code]) == [info.bits[vm.name] for vm in spec.virtual_meas]
        table_out, syndrome = spec.byproduct(np.array(codes, dtype=np.uint8))
        assert list(table_out) == info.frame.codes()
        assert len(syndrome) == n_syndrome
        assert list(syndrome) == list(flips[k, code][syndrome_at]) == list(info.syndrome)


def test_byproduct_of_many_shots_is_each_shot_by_itself():
    spec = code_correct(code_by_name("ring5"))
    codes = np.random.default_rng(3).integers(0, 4, size=(len(spec.inputs), 7), dtype=np.uint8)
    out, syndrome = spec.byproduct(codes)
    assert out.shape == (len(spec.outputs), 7) and syndrome.shape == (len(spec.syndrome), 7)
    for s in range(7):
        one_out, one_syndrome = spec.byproduct(codes[:, s])
        assert list(out[:, s]) == list(one_out) and list(syndrome[:, s]) == list(one_syndrome)
    for bad in (codes[..., None], np.uint8(0), codes[:-1]):
        with pytest.raises(resources.ResourceError):
            spec.byproduct(bad)


@pytest.mark.parametrize("rounds", [3, 5])
def test_frames_match_the_byproduct_rule_on_random_frames(rounds):
    # dense and sparse frames: many distinct virtual-bit patterns over
    # several bytes, and some attempts whose sites agree on every target
    spec = epp_recurrence(rounds)
    rng = np.random.default_rng(rounds)
    n = 300
    density = rng.uniform(0, 4 / len(spec.inputs), size=n)
    in_codes = rng.integers(1, 4, size=(len(spec.inputs), n), dtype=np.uint8)
    in_codes[rng.random(in_codes.shape) > density] = 0
    out_codes = rng.integers(0, 4, size=(len(spec.outputs), n), dtype=np.uint8)
    keep, index = pair_reading(rounds, in_codes, out_codes)
    left, right = spec.outputs.index("L/out0"), spec.outputs.index("R/out0")
    patterns = set()
    for s in range(n):
        info = conjugation_reading(spec, in_codes[:, s])
        patterns.add(tuple(info.bits.values()))
        assert keep[s] == sites_agree(info.syndrome)
        frame = info.frame.codes()
        assert index[s] == frame[left] ^ frame[right] ^ out_codes[left, s] ^ out_codes[right, s]
    assert 0 < keep.sum() < n and len(patterns) > n // 2


def error_patterns(spec, weight):
    return [tuple(zip(where, letters))
            for where in combinations(qubits(spec), weight)
            for letters in product("XYZ", repeat=weight)]


@pytest.mark.parametrize("rounds,weights", [(1, (1, 2)), (2, (1,)), (3, (1,))])
def test_frames_match_the_tableau_on_every_injected_pattern(rounds, weights):
    spec = epp_recurrence(rounds)
    patterns = [()] + [p for w in weights for p in error_patterns(spec, w)]
    keep, index = frame_runs(rounds, patterns)
    for s, errors in enumerate(patterns):
        for seed in SEEDS:
            kept, tableau_index = tableau_run(spec, errors, seed)
            assert kept == keep[s], (errors, seed)
            if kept:
                assert tableau_index == index[s], (errors, seed)
    # the patterns reach every outcome: rejected, kept clean, kept with errors
    assert not keep.all() and (index[keep] == 0).any() and (index[keep] != 0).any()


def test_stabilizer_purify_runs_no_tableau_per_attempt(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the frame engine ran the tableau")

    monkeypatch.setattr(resources, "teleport_in", forbidden)
    monkeypatch.setattr(protocols, "teleport_in", forbidden)
    monkeypatch.setattr(StabilizerState, "bell_measure", forbidden)
    stats = protocols.purify_recurrence_stabilizer(
        werner(0.8), 2, NoiseModel(0.97, 0.97), 1000, make_rng(3))
    assert stats.samples == 1000
    stats = purify_recurrence(werner(0.8), 1, NoiseModel(0.97, 0.97), samples=100,
                              rng=make_rng(3), engine="stabilizer")
    assert stats.extra["counts"]["attempts"] == 100


def test_stabilizer_purify_builds_no_tableau(monkeypatch, capsys):
    # the two sites are read through their frame maps alone: no resource
    # build and no attempt constructs a StabilizerState
    def forbidden(*_args, **_kwargs):
        raise AssertionError("constructed a StabilizerState")

    monkeypatch.setattr(catalog, "_BUILT", {})
    monkeypatch.setattr(StabilizerState, "__init__", forbidden)
    monkeypatch.setattr(StabilizerState, "_from_rows", forbidden)
    for rounds in range(1, 6):
        assert cli.main(["purify", "--F", "0.8", "--engine", "stabilizer", "--rounds",
                         str(rounds), "--samples", "50", "--seed", "1"]) == 0
        assert '"engine": "stabilizer"' in capsys.readouterr().out
    assert {key[:3] for key in catalog._BUILT} == {
        ("epp_site_resource", rounds, role) for rounds in range(1, 6) for role in "AB"}


def test_stabilizer_purify_reads_the_two_site_resources(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the purification engine merged resources")

    monkeypatch.setattr(catalog, "_BUILT", {})
    monkeypatch.setattr(resources, "merge", forbidden)
    monkeypatch.setattr(catalog, "merge", forbidden)
    for rounds in (1, 2):
        protocols.purify_recurrence_stabilizer(
            werner(0.8), rounds, NoiseModel(0.97, 0.97), 100, make_rng(3))
    assert {key[:3] for key in catalog._BUILT} == {
        ("epp_site_resource", rounds, role) for rounds in (1, 2) for role in "AB"}


def read_station(code, spec, state, frame, rng):
    """Teleport the block, qubits 1..n, into a station resource, whose
    outputs follow qubit 0; the state left, and the station's syndrome
    and new frame by the table, checked against the conjugation oracle on
    the same Bell outcomes."""
    state, codes = teleport_in(spec, state, range(1, code.n + 1), rng=rng)
    syndrome, _, new_frame = station_reading(code, spec, codes ^ frame)
    syndrome = tuple(syndrome.tolist())
    want_syndrome, want_frame = conjugation_station(code, spec, codes,
                                                    PauliString.from_codes(frame))
    assert syndrome == want_syndrome
    assert list(new_frame) == want_frame.codes()
    return state, syndrome, new_frame


@pytest.mark.parametrize("name", ["ring5", "repetition3", "repetition3-phase"])
def test_station_table_matches_the_conjugation_oracle_on_every_error(name):
    # one noiseless segment with each single and double error injected:
    # the correction station sees the error's syndrome whatever frame the
    # encoding left pending, and the delivered pair is |phi+> exactly when
    # the lookup correction undoes the error; the station maps that
    # `qec --enumerate-errors` reads give the same verdict on every error
    code = code_by_name(name)
    enc, corr, dec = code_encode(code), code_correct(code), code_decode_syndrome(code)
    rng = make_rng(17)
    frames = set()
    errors = single_and_double_errors(code.n)
    verdicts = corrected(code, np.array([e.codes() for e in errors], dtype=np.uint8).T)
    for error, verdict in zip(errors, verdicts):
        # the reference half is qubit 0 and the block qubits 1..n
        state, frame = qec_encode(StabilizerState.bell_pair(), 1, NoiseModel(), rng, enc)
        frames.add(tuple(frame))
        state.apply_pauli(error.embed(state.n, range(1, code.n + 1)))
        state, syndrome, frame = read_station(code, corr, state, frame, rng)
        assert syndrome == syndrome_of(code, error)
        state, _, frame = read_station(code, dec, state, frame, rng)
        state.apply_pauli(PauliString.from_codes([0, *frame]))
        residual = error * correction_for(code, syndrome)
        delivered = state.bell_measure(0, 1, None, []) == 0
        assert delivered == (logical_flips(code, residual) == (0, 0)) == verdict
    assert len(frames) > 1
    assert not verdicts.all() and verdicts.any()


def test_enumerate_errors_runs_no_tableau_and_no_rng(monkeypatch, capsys):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the error enumeration ran the tableau or drew")

    monkeypatch.setattr(resources, "teleport_in", forbidden)
    monkeypatch.setattr(protocols, "teleport_in", forbidden)
    monkeypatch.setattr(StabilizerState, "bell_measure", forbidden)
    monkeypatch.setattr(cli, "make_rng", forbidden)
    for name, total in (("ring5", 15), ("repetition3", 3), ("repetition3-phase", 3)):
        assert cli.main(["qec", "--code", name, "--enumerate-errors"]) == 0
        assert capsys.readouterr().out == f"{total}/{total} corrected\n"
