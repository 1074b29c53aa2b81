"""What the package's value types keep as plain classes: equality and
hashing by fields where instances are compared, identity for a code,
fields that refuse assignment, each constructor's one-line refusal, and
the CSV columns of a result record."""

import numpy as np
import pytest

from mbqcomm.belldiag import BellDiagonalState
from mbqcomm.catalog import epp_site_resource
from mbqcomm.codes import repetition_code
from mbqcomm.netsim import ChainConfig, ChainError
from mbqcomm.noise import NoiseModel, NoiseParameterError, PauliChannel
from mbqcomm.pauli import CliffordMap, PauliError, PauliString, circuit_map
from mbqcomm.protocols import Depolarize, ProtocolError, ProtocolStats, Purify, Swap
from mbqcomm.resources import ResourceError, ResourceSpec, VirtualMeasurement
from mbqcomm.results import CSV_HEADER, ResultRecord
from oracles import relabelled


def _record(**changes) -> ResultRecord:
    fields = dict(protocol="purify", params={"rounds": 1}, p_resource=1.0, q_meas=1.0,
                  q_channel=1.0, fidelity=0.9, ci_lo=0.8, ci_hi=0.95, p_success=0.5,
                  protocol_yield=0.25, report={}, samples=10, seed=1, config_hash="ab")
    return ResultRecord(**{**fields, **changes})


# each value built twice from equal fields, and once with one field changed;
# `circuit_map` builds its maps and their images unchecked
HASHED = {
    "PauliString": (lambda: PauliString(3, 5, 6, 1), lambda: PauliString(3, 5, 6, 3)),
    "CliffordMap": (lambda: circuit_map(2, [("H", 0), ("CNOT", 0, 1)]),
                    lambda: circuit_map(2, [("H", 1), ("CNOT", 0, 1)])),
    "NoiseModel": (lambda: NoiseModel(0.9, 0.95, 0.99), lambda: NoiseModel(0.9, 0.95, 0.98)),
}


@pytest.mark.parametrize("name", sorted(HASHED))
def test_equal_fields_give_equal_values_and_hashes(name):
    make, other = HASHED[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != other() and len({a, b, other()}) == 2 and a != object()


def test_chain_configs_compare_by_fields():
    cfg = ChainConfig(2, NoiseModel(0.9), channel_overrides={1: 0.5})
    assert cfg == ChainConfig(2, NoiseModel(0.9), channel_overrides={1: 0.5})
    assert cfg != ChainConfig(2, NoiseModel(0.9), channel_overrides={0: 0.5})
    assert ChainConfig(1, NoiseModel()).channel_overrides == {}


def test_a_code_compares_and_hashes_by_identity():
    a, b = repetition_code(3), repetition_code(3)
    assert a == a and a != b and len({a, b}) == 2
    assert hash(a) == object.__hash__(a)


IMMUTABLE = {
    "PauliString": (lambda: PauliString(1, 1), "x"),
    "CliffordMap": (lambda: CliffordMap.identity(1), "n"),
    "NoiseModel": (NoiseModel, "q_meas"),
    "PauliChannel": (lambda: PauliChannel.depolarizing(0.9), "weights"),
    "BellDiagonalState": (lambda: BellDiagonalState((1.0, 0.0, 0.0, 0.0)), "coeffs"),
    "CodeSpec": (lambda: repetition_code(3), "lookup"),
    "ChainConfig": (lambda: ChainConfig(1, NoiseModel()), "samples"),
    "Depolarize": (lambda: Depolarize(0.9), "p"),
    "Purify": (lambda: Purify(1), "depth"),
    "Swap": (Swap, "depth"),
    "VirtualMeasurement": (lambda: VirtualMeasurement("m", PauliString(1, 0, 1)), "name"),
    "ResourceSpec": (lambda: epp_site_resource(1, "A"), "syndrome"),
    "ResultRecord": (_record, "fidelity"),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_fields_refuse_assignment(name):
    make, field = IMMUTABLE[name]
    value = make()
    before = getattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field, None) is before


def test_cached_properties_still_fill_in_once():
    spec, code = epp_site_resource(1, "B"), repetition_code(3)
    assert spec.state is spec.state and spec.frame_map is spec.frame_map
    assert code.correctable is code.correctable


REFUSALS = [
    (lambda: NoiseModel(1.5), NoiseParameterError, "p_resource must be in [0, 1], got 1.5"),
    (lambda: NoiseModel(1, -0.1), NoiseParameterError, "q_meas must be in [0, 1], got -0.1"),
    (lambda: NoiseModel(q_channel=2), NoiseParameterError, "q_channel must be in [0, 1], got 2"),
    (lambda: PauliChannel((1, 0, 0)), NoiseParameterError, "need exactly four weights"),
    (lambda: PauliChannel((0.5, 0.5, 0.5, 0)), NoiseParameterError,
     "weights must be a probability distribution"),
    (lambda: PauliString(-1), PauliError, "qubit count must be nonnegative"),
    (lambda: PauliString(2, 4), PauliError, "x/z bits outside qubit range"),
    (lambda: PauliString(2, 0, 8), PauliError, "x/z bits outside qubit range"),
    (lambda: ResourceSpec("r", ("a",), ("a",), CliffordMap.identity(1), (0,), ()),
     ResourceError, "inputs and outputs must be disjoint"),
    (lambda: ResourceSpec("r", ("a",), ("b",), CliffordMap.identity(2), (0,), (1,),
                          syndrome=("s",)),
     ResourceError, "no virtual measurement named ['s']"),
    (lambda: relabelled(epp_site_resource(1, "A"), syndrome=("meas[out9]",)),
     ResourceError, "no virtual measurement named ['meas[out9]']"),
    (lambda: ProtocolStats(1.2, (None, None), 0.5, 0.5, 1), ProtocolError,
     "estimates must lie in [0, 1]"),
    (lambda: ProtocolStats(None, (None, None), -0.5, 0.5, 1), ProtocolError,
     "estimates must lie in [0, 1]"),
    (lambda: ProtocolStats(0.5, (0.5, 0.5), 0.5, 2.0, 1), ProtocolError,
     "estimates must lie in [0, 1]"),
    (lambda: ChainConfig(0, NoiseModel()), ChainError, "need at least one segment"),
    (lambda: ChainConfig(1, NoiseModel(), samples=0), ChainError,
     "samples must be at least 1, got 0"),
    (lambda: ChainConfig(1, NoiseModel(), purify_rounds=-1), ChainError,
     "rounds must be at least 0, got -1"),
    (lambda: ChainConfig(2, NoiseModel(), channel_overrides={2: 0.9}), ChainError,
     "station 2: segments are 0..1"),
    (lambda: ChainConfig(2, NoiseModel(), channel_overrides={1: 1.5}), ChainError,
     "station 1: q_channel must be in [0, 1], got 1.5"),
    (lambda: ChainConfig(2, NoiseModel(), channel_overrides={1: "x"}), ChainError,
     "station 1: q_channel must be in [0, 1], got x"),
]


@pytest.mark.parametrize("build, error, text", REFUSALS, ids=[t for _, _, t in REFUSALS])
def test_constructor_refusals_keep_their_text(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


def test_relabelled_changes_only_the_named_fields():
    spec = epp_site_resource(1, "A")
    renamed = relabelled(spec, name="L")
    assert renamed.name == "L" and renamed.syndrome == spec.syndrome
    assert all(getattr(renamed, f) == getattr(spec, f)
               for f in ResourceSpec.__slots__[1:-1])
    # the frame table holds the output codes, then one column per name read
    unread = relabelled(spec, syndrome=())
    assert unread.name == spec.name and unread.syndrome == ()
    assert np.array_equal(unread.frame_map, spec.frame_map[..., :len(spec.outputs)])


def test_csv_header_is_the_schema_2_columns():
    assert CSV_HEADER == ("schema", "protocol", "params", "p_resource", "q_meas", "q_channel",
                          "fidelity", "ci_lo", "ci_hi", "p_success", "yield", "report",
                          "samples", "seed", "config_hash", "version")
    assert list(_record().columns()) == list(CSV_HEADER)
