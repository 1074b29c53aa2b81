"""Minimal measurement-based resource states and teleportation into them.

A resource is its description: a Clifford wire circuit applied to halves
of maximally entangled pairs (plus fixed ancilla feeds), with some output
wires pre-measured in one Pauli letter each (single-qubit Pauli
measurements at preparation time; Raussendorf, Browne and Briegel, PRA
68, 022312, 2003). Its tableau `ResourceSpec.state` is built on first
read. Bell measurements couple host qubits into the inputs, and each
outcome is read as the letter code 2x + z of its byproduct Pauli. A
resource's GF(2) map on such codes (`ResourceSpec.frame_map`) is read
off the letter columns of the circuit's images of each unit X_k and Z_k
on the inputs: their letters at the outputs, and at each pre-measured
wire whether they anticommute with the letter measured there. A
resource's readout is data: `syndrome` names the virtual outcomes it
reads, in order. `ResourceSpec.byproduct` is the one reader of the map:
reading any outcome tuple, or any error frame, is an XOR of one table
row per input, which holds the output codes and the `syndrome` bits.
What a protocol does with the readout is its own rule: a code station
looks its syndrome up, and a purification round keeps the pair iff its
two sites read the same bits.

Composite resources come from two operations. `merge` joins two
resources by internal Bell measurements (none: the side-by-side
product) and carries each side's labels, virtual measurements and
syndrome under a `{name}/` prefix. `premeasure_outputs` pre-measures
outputs, one letter each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .noise import NoiseModel, apply_sampled_noise
from .pauli import CliffordMap, PauliString
from .tableau import InconsistentProjection, StabilizerState

_ANCILLA_LETTERS = ("Z", "X")  # |0> and |+>
# [a, b] is 1 where the letters coded a and b (I, Z, X, Y = 0, 1, 2, 3) anticommute
_ANTICOMMUTE = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]], np.uint8)


class ResourceError(ValueError):
    """Raised for malformed resources, wirings or connections."""


@dataclass(frozen=True)
class VirtualMeasurement:
    """A pre-measured Pauli letter on one wire of the circuit's output
    wire space."""

    name: str
    operator: PauliString  # on the wire space

    @property
    def wire(self) -> int:
        return (self.operator.x | self.operator.z).bit_length() - 1


@dataclass(frozen=True)
class ResourceSpec:
    """Stabilizer resource state with labeled inputs/outputs, held as its
    description: `circuit` acts on the wire space, `input_wires[k]` is
    the wire fed by input k, `ancilla_init` the wires fed |0> ('Z') or
    |+> ('X'), `virtual_meas` the one-letter pre-measurements, and
    `output_wires[k]` the wire of output k (every wire not pre-measured).
    `syndrome` names virtual measurements (see the module docstring).
    The qubits of `state` are the inputs (matching `inputs`), then the
    outputs (matching `outputs`).
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    circuit: CliffordMap
    input_wires: tuple[int, ...]
    output_wires: tuple[int, ...]
    ancilla_init: tuple[tuple[int, str], ...] = ()
    virtual_meas: tuple[VirtualMeasurement, ...] = ()
    syndrome: tuple[str, ...] = ()

    def __post_init__(self):
        if set(self.inputs) & set(self.outputs):
            raise ResourceError("inputs and outputs must be disjoint")
        unknown = set(self.syndrome) - {vm.name for vm in self.virtual_meas}
        if unknown:
            raise ResourceError(f"no virtual measurement named {sorted(unknown)}")

    @property
    def n(self) -> int:
        return len(self.inputs) + len(self.outputs)

    @property
    def n_wires(self) -> int:
        return self.circuit.n

    @cached_property
    def state(self) -> StabilizerState:
        """The resource's tableau, built once, on first read. The circuit
        images give the stabilizers and destabilizers on the wire side;
        each pre-measured letter is projected onto +1 and pinned as a
        stabilizer row, and one `StabilizerState.drop_measured` drops the
        pre-measured wires, which a single-qubit measurement leaves in a
        product state.
        """
        circuit, n_in = self.circuit, len(self.inputs)
        n = n_in + circuit.n
        images = {"X": circuit.image_x, "Z": circuit.image_z}
        # each input k and its wire start as the Bell pair XX, ZZ with
        # destabilizers Z_k and X_wire, an ancilla as its letter L with
        # destabilizer the other letter; the circuit maps the wire side.
        # X_k or Z_k and the wire image act on disjoint qubits, so a pair's
        # row has the image's phase
        stabs, destabs = [], []
        for k, wire in enumerate(self.input_wires):
            ix, iz, bit = circuit.image_x[wire], circuit.image_z[wire], 1 << k
            stabs += [PauliString(n, ix.x << n_in | bit, ix.z << n_in, ix.phase),
                      PauliString(n, iz.x << n_in, iz.z << n_in | bit, iz.phase)]
            destabs += [PauliString.single(n, k, "Z"), ix.shifted(n, n_in)]
        for wire, letter in self.ancilla_init:
            stabs.append(images[letter][wire].shifted(n, n_in))
            destabs.append(images["X" if letter == "Z" else "Z"][wire].shifted(n, n_in))
        # lightest rows first: a random pre-measurement multiplies its pivot,
        # the first row it anticommutes with, into the others, so light pivots
        # keep each input in few rows and the Bell measurements into it cheap
        rows = sorted(zip(stabs, destabs), key=lambda r: (r[0].x | r[0].z).bit_count())
        state = StabilizerState([s for s, _ in rows], [d for _, d in rows])
        pinned: list[int] = []
        for vm in self.virtual_meas:
            try:
                state.measure(vm.operator.shifted(n, n_in), force=+1, pinned=pinned)
            except InconsistentProjection as exc:
                raise ResourceError(
                    f"pre-measurement {vm.name} has projection probability zero"
                ) from exc
        if pinned:
            state.drop_measured(pinned, [n_in + vm.wire for vm in self.virtual_meas])
        return state

    # -- outcomes and frames -------------------------------------------

    @cached_property
    def frame_map(self) -> tuple[np.ndarray, np.ndarray]:
        """The resource's GF(2) linear map on Pauli frames, as read-only
        letter tables, built once per resource.

        A one-qubit letter is coded 2x + z (I, Z, X, Y = 0, 1, 2, 3: the
        Bell index of a pair carrying it on one half), so codes multiply
        by XOR. The circuit's images of the unit Z_k and X_k on the inputs
        are unpacked once into letter columns, one per wire. Returns
        (out, flips): out[k, c] holds the codes on the outputs (in output
        order) of letter c riding into input k, and flips[k, c] the
        virtual-measurement bits it flips (in `virtual_meas` order): the
        anticommutation of its letter at each pre-measured wire with the
        letter measured there.
        """
        circuit = self.circuit
        images = [p for wire in self.input_wires
                  for p in (circuit.image_z[wire], circuit.image_x[wire])]
        letters = np.zeros((len(self.inputs), 4, circuit.n), dtype=np.uint8)
        letters[:, 1:3] = _letter_columns(images, circuit.n).reshape(-1, 2, circuit.n)
        letters[:, 3] = letters[:, 1] ^ letters[:, 2]
        wires = [vm.wire for vm in self.virtual_meas]
        measured = [2 * (vm.operator.x >> w & 1) + (vm.operator.z >> w & 1)
                    for vm, w in zip(self.virtual_meas, wires)]
        out = letters[..., list(self.output_wires)]
        flips = _ANTICOMMUTE[letters[..., wires], measured]
        out.setflags(write=False)
        flips.setflags(write=False)
        return out, flips

    @cached_property
    def _read_table(self) -> np.ndarray:
        """`frame_map`'s output codes beside the `syndrome` bits they flip,
        one row per (input, letter)."""
        out, flips = self.frame_map
        at = {vm.name: j for j, vm in enumerate(self.virtual_meas)}
        read = [at[s] for s in self.syndrome]
        # row by row, as `byproduct` gathers whole rows: a concatenation
        # along the last axis can leave it strided
        table = np.ascontiguousarray(np.concatenate([out, flips[..., read]], axis=-1))
        table.setflags(write=False)
        return table

    def byproduct(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read letter codes riding into the inputs, one per input on the
        first axis in input order (such as the codes
        `StabilizerState.bell_measure` returns, or an error frame), for
        one shot or, on a second axis, for many; at most one shot axis is
        accepted.

        Returns their image on the outputs as letter codes, one per output
        on the first axis, and the `syndrome` bits they flip, one per name
        on the first axis. Both are the XOR of the `_read_table` rows of
        each input's letter, accumulated one input at a time.
        """
        codes = np.asarray(codes)
        if not 1 <= codes.ndim <= 2 or len(codes) != len(self.inputs):
            raise ResourceError("need one letter code per input, on at most one shot axis")
        table = self._read_table
        read = np.zeros(codes.shape[1:] + table.shape[-1:], dtype=np.uint8)
        for k, letters in enumerate(codes):
            read ^= table[k, letters]
        n_out = len(self.outputs)
        return read[..., :n_out].T, read[..., n_out:].T


def _letter_columns(paulis: Sequence[PauliString], n: int) -> np.ndarray:
    """Letter codes 2x + z of n-qubit Paulis, one row per Pauli and one
    column per qubit, unpacked from their bits at once."""
    width = (n + 7) // 8

    def bits(ints) -> np.ndarray:
        packed = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in ints), np.uint8)
        return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little")

    return bits(p.x for p in paulis) << 1 | bits(p.z for p in paulis)


def _build_resource(name: str, circuit: CliffordMap,
                    input_wires: Sequence[int],
                    ancilla_init: Sequence[tuple[int, str]],
                    premeasured: Sequence[VirtualMeasurement] = (),
                    syndrome: Sequence[str] = (),
                    input_labels: Sequence[str] | None = None,
                    output_labels: dict[int, str] | None = None) -> ResourceSpec:
    """The checked description of a wire circuit's resource: every wire
    fed by an input or an ancilla, each pre-measurement one X, Y or Z
    letter on a wire of its own, and the other wires the outputs.

    The tableau is built here only for a resource with ancilla feeds and
    pre-measurements, to refuse a projection of probability zero. A
    pre-measurement is deterministic only through a stabilizer on the
    wires alone; the Bell-pair rows all reach the inputs, so only ancilla
    feeds make such stabilizers (as for `merge`'s `link` Z measurements).
    """
    w = circuit.n
    anc = dict(ancilla_init)
    if any(l not in _ANCILLA_LETTERS for l in anc.values()):
        raise ResourceError("ancilla feeds must be 'Z' (|0>) or 'X' (|+>)")
    wires_in = list(input_wires)
    if sorted(wires_in + list(anc)) != list(range(w)):
        raise ResourceError("every wire needs exactly one role (input or ancilla)")
    measured: set[int] = set()
    for vm in premeasured:
        op = vm.operator
        if op.n != w or op.weight != 1 or not op.is_hermitian:
            raise ResourceError(f"pre-measurement {vm.name} is {op}, not one X, Y or Z letter "
                                f"on the {w} wires")
        if vm.wire in measured:
            raise ResourceError(f"pre-measurement {vm.name} measures wire {vm.wire} twice")
        measured.add(vm.wire)

    surviving = [wire for wire in range(w) if wire not in measured]
    in_labels = tuple(input_labels) if input_labels else tuple(
        f"in{k}" for k in range(len(wires_in))
    )
    out_names = output_labels or {}
    out_labels = tuple(
        out_names.get(wire, f"out{idx}") for idx, wire in enumerate(surviving)
    )
    spec = ResourceSpec(
        name=name,
        inputs=in_labels,
        outputs=out_labels,
        circuit=circuit,
        input_wires=tuple(wires_in),
        output_wires=tuple(surviving),
        ancilla_init=tuple(sorted(anc.items())),
        virtual_meas=tuple(premeasured),
        syndrome=tuple(syndrome),
    )
    if anc and premeasured:
        spec.state  # refuses a projection of probability zero
    return spec


def cj_state(circuit: CliffordMap, name: str = "cj",
             ancilla_init: Sequence[tuple[int, str]] = (),
             input_labels: Sequence[str] | None = None,
             output_labels: dict[int, str] | None = None) -> ResourceSpec:
    """Choi-Jamiolkowski resource of a Clifford circuit.

    The circuit acts on halves of maximally entangled pairs; wires
    listed in `ancilla_init` are fed fixed stabilizer states instead and
    get no input qubit.
    """
    anc_wires = {wire for wire, _ in ancilla_init}
    input_wires = [wire for wire in range(circuit.n) if wire not in anc_wires]
    return _build_resource(
        name, circuit, input_wires, ancilla_init,
        input_labels=input_labels, output_labels=output_labels,
    )


def premeasure_outputs(spec: ResourceSpec,
                       measurements: Sequence[tuple[str, str]],
                       name: str | None = None) -> ResourceSpec:
    """Pre-measure listed output qubits in one Pauli letter each (+1 branch).

    measurements: list of (output label, Pauli letter); the virtual
    outcome of output `label` is named `meas[label]`, and stays
    reconstructable from the in-coupling Bell outcomes.
    """
    wire_of = dict(zip(spec.outputs, spec.output_wires))
    vms = list(spec.virtual_meas)
    for label, letter in measurements:
        if label not in wire_of:
            raise ResourceError(f"{label!r} is not an output of {spec.name}")
        vms.append(VirtualMeasurement(
            f"meas[{label}]", PauliString.single(spec.n_wires, wire_of[label], letter)))
    return _build_resource(
        name or f"{spec.name}+premeasured", spec.circuit, spec.input_wires,
        spec.ancilla_init, vms, spec.syndrome, input_labels=spec.inputs,
        output_labels=dict(zip(spec.output_wires, spec.outputs)),
    )


def merge(r1: ResourceSpec, r2: ResourceSpec,
          connections: Sequence[tuple[str, str]],
          name: str | None = None) -> ResourceSpec:
    """Connect outputs of r1 to inputs of r2 by internal Bell measurements.

    The internal measurements are absorbed at preparation time (outcome
    fixed to 0), composing the two circuits into one; teleporting through
    the merged resource equals teleporting through r1 and then r2. With
    no connections the result is the side-by-side product. Labels,
    virtual measurements and syndrome of each side are carried under the
    prefix `{r.name}/`.
    """
    for o, i in connections:
        if o not in r1.outputs:
            raise ResourceError(f"{o!r} is not an output of {r1.name}")
        if i not in r2.inputs:
            raise ResourceError(f"{i!r} is not an input of {r2.name}")
    if len({o for o, _ in connections}) != len(connections) or \
       len({i for _, i in connections}) != len(connections):
        raise ResourceError("connection endpoints must be distinct")
    if r1.name == r2.name:
        r1 = replace(r1, name=f"{r1.name}#1")
        r2 = replace(r2, name=f"{r2.name}#2")
    w1, w2 = r1.n_wires, r2.n_wires
    w = w1 + w2
    circuit = r1.circuit.shifted(w, 0)
    connected = [(r1.output_wires[r1.outputs.index(o)], r2.input_wires[r2.inputs.index(i)] + w1)
                 for o, i in connections]
    for wo, wi in connected:
        circuit = circuit.then_gate("SWAP", wo, wi)
    circuit = r2.circuit.shifted(w, w1) @ circuit
    connected_out = {wo for wo, _ in connected}
    connected_in = {wi for _, wi in connected}

    input_wires = list(r1.input_wires) + [
        wi + w1 for wi in r2.input_wires if wi + w1 not in connected_in
    ]
    in_labels = [f"{r1.name}/{l}" for l in r1.inputs] + [
        f"{r2.name}/{l}" for wi, l in zip(r2.input_wires, r2.inputs)
        if wi + w1 not in connected_in
    ]
    anc = list(r1.ancilla_init) + [(wi + w1, l) for wi, l in r2.ancilla_init]
    vms = [VirtualMeasurement(f"{r.name}/{vm.name}", vm.operator.shifted(w, start))
           for r, start in ((r1, 0), (r2, w1)) for vm in r.virtual_meas]
    # a connected r2 input wire becomes a |0> feed whose content parks on
    # the matching r1 output wire; pre-measure that wire away
    for wo, wi in connected:
        anc.append((wi, "Z"))
        vms.append(VirtualMeasurement(f"link[{wo}]", PauliString.single(w, wo, "Z")))
    out_names = {
        wo: f"{r1.name}/{l}" for wo, l in zip(r1.output_wires, r1.outputs)
        if wo not in connected_out
    }
    out_names.update({wo + w1: f"{r2.name}/{l}" for wo, l in zip(r2.output_wires, r2.outputs)})
    syndrome = [f"{r.name}/{n}" for r in (r1, r2) for n in r.syndrome]
    return _build_resource(
        name or f"merge({r1.name},{r2.name})", circuit, input_wires, anc, vms,
        syndrome, input_labels=in_labels, output_labels=out_names,
    )


# -- teleportation into host positions ---------------------------------------


def teleport_in(resource: ResourceSpec, state: StabilizerState, hosts: Sequence[int],
                noise: NoiseModel | None = None,
                rng=None) -> tuple[StabilizerState, np.ndarray]:
    """Couple host qubits into a resource by Bell measurements: `hosts[k]`
    is the position in `state` of the qubit coupled into input k.

    Returns the new state, which holds the unmeasured host qubits in
    their order and then the resource's outputs in output order, and the
    Bell outcomes as letter codes, in input order, for
    `ResourceSpec.byproduct` (no frame is applied); `state` is unchanged.

    Every pair is measured against one shared pinned list at fixed
    indices, and one `drop_measured` then removes all measured qubits;
    each pair's q_meas noise is drawn just before its measurement, so the
    draws are those of measuring and dropping pair by pair. The inputs
    are checked before any draw: one host qubit per input, each in range
    and none twice, and an rng whenever there is noise.
    """
    noise = noise or NoiseModel()
    hosts = list(hosts)
    if len(hosts) != len(resource.inputs):
        raise ResourceError(f"{resource.name} takes {len(resource.inputs)} host qubits, "
                            f"got {len(hosts)}")
    if len(set(hosts)) != len(hosts):
        raise ResourceError("a host qubit is wired to two resource inputs")
    if not all(0 <= q < state.n for q in hosts):
        raise ResourceError(f"host qubits {hosts} are not all in a register of {state.n}")
    if rng is None and (noise.p_resource < 1.0 or noise.q_meas < 1.0):
        raise ResourceError("noisy teleport_in requires an rng")
    n_host = state.n
    state = state.tensor(resource.state)
    if noise.p_resource < 1.0:
        apply_sampled_noise(state, list(range(n_host, state.n)), noise.p_resource, rng)
    pinned: list[int] = []
    codes = np.zeros(len(hosts), dtype=np.uint8)
    for k, a in enumerate(hosts):
        if noise.q_meas < 1.0:
            apply_sampled_noise(state, [a, n_host + k], noise.q_meas, rng)
        codes[k] = state.bell_measure(a, n_host + k, rng, pinned)
    state.drop_measured(pinned, hosts + list(range(n_host, n_host + len(hosts))))
    return state, codes
