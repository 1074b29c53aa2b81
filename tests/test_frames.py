"""The batched Pauli-frame engine of stabilizer purification: the frame
map against `byproduct`, the kernel against the per-attempt byproduct
rule and against the tableau on injected error patterns, and no tableau
work per attempt."""

from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from mbqcomm import protocols, resources
from mbqcomm.belldiag import werner
from mbqcomm.catalog import code_by_name, code_correct, code_encode, epp_recurrence
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import PauliString
from mbqcomm.protocols import bd_index_of_pair, purify_frames, purify_recurrence
from mbqcomm.resources import LabeledRegister, teleport_in
from mbqcomm.rng import make_rng
from mbqcomm.tableau import StabilizerState
from oracles import bell_outcome, repeater_station

CODES = {"I": 0, "Z": 1, "X": 2, "Y": 3}
# the in-coupling outcome whose byproduct is the letter of each code
OUTCOME = {CODES[o.letter]: o for o in map(bell_outcome, range(4))}
SEEDS = (1, 2)


def qubits(spec):
    """Every qubit an error can hit: the host pairs' halves, then the
    resource qubits (inputs first, then outputs, as in the tableau)."""
    n_pairs = len(spec.inputs) // 2
    host = [("host", f"{side}{k}") for k in range(n_pairs) for side in "ab"]
    return host + [("resource", q) for q in range(spec.n)]


def tableau_run(spec, errors, seed):
    """Kept flag and output Bell index of one noiseless teleportation of
    perfect pairs, with the Paulis `errors` injected first."""
    n_pairs = len(spec.inputs) // 2
    host = LabeledRegister()
    for k in range(n_pairs):
        host.add(StabilizerState.bell_pair(), [f"a{k}", f"b{k}"])
    state = spec.state.copy()
    for (kind, q), letter in errors:
        if kind == "host":
            host.apply_pauli(PauliString.single(1, 0, letter), [q])
        else:
            state.apply_pauli(PauliString.single(state.n, q, letter))
    wiring = {f"L/in{k}": f"a{k}" for k in range(n_pairs)}
    wiring.update({f"R/in{k}": f"b{k}" for k in range(n_pairs)})
    result = teleport_in(replace(spec, state=state), host, wiring, rng=make_rng(seed),
                         apply_frame=True)
    if not result.keep:
        return False, None
    return True, bd_index_of_pair(host, "L/out0", "R/out0")


def frame_runs(spec, patterns):
    """Kept flags and output Bell indices of the frame kernel, one column
    per error pattern."""
    n_in = len(spec.inputs)
    in_codes = np.zeros((n_in, len(patterns)), dtype=np.uint8)
    out_codes = np.zeros((len(spec.outputs), len(patterns)), dtype=np.uint8)
    for s, errors in enumerate(patterns):
        for (kind, q), letter in errors:
            if kind == "host":
                side = "L" if q[0] == "a" else "R"
                in_codes[spec.inputs.index(f"{side}/in{q[1:]}"), s] ^= CODES[letter]
            elif q < n_in:
                in_codes[q, s] ^= CODES[letter]
            else:
                out_codes[q - n_in, s] ^= CODES[letter]
    return purify_frames(spec, in_codes, out_codes)


def codes_of(frame):
    return [CODES[frame.letter(j)] for j in range(frame.n)]


@pytest.mark.parametrize("spec", [
    epp_recurrence(1), repeater_station(1), code_encode(code_by_name("ring5")),
    code_correct(code_by_name("ring5")), code_correct(code_by_name("repetition3-phase")),
], ids=lambda spec: spec.name)
def test_frame_map_is_the_byproduct_of_every_letter(spec):
    out, flips = spec.frame_map()
    for k, code in product(range(len(spec.inputs)), range(4)):
        outcomes = [OUTCOME[code if j == k else 0] for j in range(len(spec.inputs))]
        info = spec.byproduct(outcomes)
        assert list(out[k, code]) == codes_of(info.frame)
        assert list(flips[k, code]) == [info.bits[vm.name] for vm in spec.virtual_meas]


@pytest.mark.parametrize("rounds", [3, 5])
def test_frames_match_the_byproduct_rule_on_random_frames(rounds):
    # dense and sparse frames: many distinct virtual-bit patterns over
    # several bytes, and some attempts that pass every check
    spec = epp_recurrence(rounds)
    rng = np.random.default_rng(rounds)
    n = 300
    density = rng.uniform(0, 4 / len(spec.inputs), size=n)
    in_codes = rng.integers(1, 4, size=(len(spec.inputs), n), dtype=np.uint8)
    in_codes[rng.random(in_codes.shape) > density] = 0
    out_codes = rng.integers(0, 4, size=(len(spec.outputs), n), dtype=np.uint8)
    keep, index = purify_frames(spec, in_codes, out_codes)
    left, right = spec.outputs.index("L/out0"), spec.outputs.index("R/out0")
    patterns = set()
    for s in range(n):
        info = spec.byproduct([OUTCOME[c] for c in in_codes[:, s]])
        patterns.add(tuple(info.bits.values()))
        assert keep[s] == info.keep
        frame = codes_of(info.frame)
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
    keep, index = frame_runs(spec, patterns)
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
    monkeypatch.setattr(LabeledRegister, "__init__", forbidden)
    monkeypatch.setattr(StabilizerState, "bell_measure", forbidden)
    stats = protocols.purify_recurrence_stabilizer(
        werner(0.8), 2, NoiseModel(0.97, 0.97), 1000, make_rng(3))
    assert stats.samples == 1000
    stats = purify_recurrence(werner(0.8), 1, NoiseModel(0.97, 0.97), samples=100,
                              rng=make_rng(3), engine="stabilizer")
    assert stats.extra["counts"]["attempts"] == 100
