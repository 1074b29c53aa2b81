"""Minimal measurement-based resource states and teleportation into them.

A resource is the entangled state obtained by applying a Clifford wire
circuit to halves of maximally entangled pairs (plus fixed ancilla
feeds), optionally with some output wires pre-measured in a Pauli basis.
Bell measurements couple host qubits into the inputs, and each outcome
is read as the letter code 2x + z of its byproduct Pauli. A resource's
GF(2) map on such codes (`ResourceSpec.frame_map`) is found once, by
conjugating each unit Pauli on the inputs through the circuit: it gives
the codes on the outputs and the flipped virtual outcomes of the
pre-measured wires. A resource's readout is data: `syndrome` names the
virtual outcomes it reads, in order. `ResourceSpec.byproduct` is the
one reader of the map: reading any outcome tuple, or any error frame,
is an XOR of one table row per input, which holds the output codes and
the `syndrome` bits. What a protocol does with the readout is its own
rule: a code station looks its syndrome up, and a purification round
keeps the pair iff its two sites read the same bits.

Composite resources come from two operations. `merge` joins two
resources by internal Bell measurements (none: the side-by-side
product) and carries each side's labels, virtual measurements and
syndrome under a `{name}/` prefix. `premeasure_joint` pre-measures
Paulis on outputs; `premeasure_outputs` is its one-letter spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .noise import NoiseModel, apply_sampled_noise
from .pauli import CliffordMap, PauliString
from .tableau import InconsistentProjection, StabilizerState, TableauError

_ANCILLA_LETTERS = ("Z", "X")  # |0> and |+>


class ResourceError(ValueError):
    """Raised for malformed resources, wirings or connections."""


@dataclass(frozen=True)
class VirtualMeasurement:
    """A pre-measured Pauli on the circuit's output wire space."""

    name: str
    operator: PauliString  # on the wire space


@dataclass(frozen=True)
class ResourceSpec:
    """Stabilizer resource state with labeled inputs/outputs.

    The state qubits are ordered inputs first (matching `inputs`), then
    the surviving outputs (matching `outputs`). `circuit` acts on the
    wire space; `input_wires[k]` is the wire fed by input k and
    `output_wires[k]` the wire of output k. `syndrome` names virtual
    measurements (see the module docstring).
    """

    name: str
    state: StabilizerState
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
        if len(self.inputs) + len(self.outputs) != self.state.n:
            raise ResourceError("resource must contain exactly inputs + outputs")
        unknown = set(self.syndrome) - {vm.name for vm in self.virtual_meas}
        if unknown:
            raise ResourceError(f"no virtual measurement named {sorted(unknown)}")

    @property
    def n(self) -> int:
        return self.state.n

    @property
    def n_wires(self) -> int:
        return self.circuit.n

    # -- outcomes and frames -------------------------------------------

    @cached_property
    def frame_map(self) -> tuple[np.ndarray, np.ndarray]:
        """The resource's GF(2) linear map on Pauli frames, as read-only
        letter tables, built once per resource.

        A one-qubit letter is coded 2x + z (I, Z, X, Y = 0, 1, 2, 3: the
        Bell index of a pair carrying it on one half), so codes multiply
        by XOR. Each unit X_k and Z_k on the inputs is conjugated through
        the circuit once. Returns (out, flips): out[k, c] holds the codes
        on the outputs (in output order) of letter c riding into input k,
        flips[k, c] the virtual-measurement bits it flips (in
        `virtual_meas` order): those whose operator anticommutes with the
        image.
        """
        n_in = len(self.inputs)
        out = np.zeros((n_in, 4, len(self.outputs)), dtype=np.uint8)
        flips = np.zeros((n_in, 4, len(self.virtual_meas)), dtype=np.uint8)
        for k, wire in enumerate(self.input_wires):
            for code, letter in ((2, "X"), (1, "Z")):
                pushed = self.circuit.conjugate(PauliString.single(self.n_wires, wire, letter))
                letters = pushed.codes()
                out[k, code] = [letters[w] for w in self.output_wires]
                flips[k, code] = [not pushed.commutes(vm.operator) for vm in self.virtual_meas]
        out[:, 3] = out[:, 1] ^ out[:, 2]
        flips[:, 3] = flips[:, 1] ^ flips[:, 2]
        out.setflags(write=False)
        flips.setflags(write=False)
        return out, flips

    @cached_property
    def _read_table(self) -> np.ndarray:
        """`frame_map`'s output codes beside the `syndrome` bits they flip,
        one row per (input, letter)."""
        out, flips = self.frame_map
        names = [vm.name for vm in self.virtual_meas]
        read = [names.index(s) for s in self.syndrome]
        table = np.concatenate([out, flips[..., read]], axis=-1)
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

def _build_resource(name: str, circuit: CliffordMap,
                    input_wires: Sequence[int],
                    ancilla_init: Sequence[tuple[int, str]],
                    premeasured: Sequence[VirtualMeasurement] = (),
                    syndrome: Sequence[str] = (),
                    input_labels: Sequence[str] | None = None,
                    output_labels: dict[int, str] | None = None) -> ResourceSpec:
    """Construct the resource state for a wire circuit.

    Every non-ancilla wire is entangled with one fresh input qubit, the
    circuit images give the stabilizers and destabilizers on the wire
    side, pre-measured operators are projected onto +1 and pinned as
    stabilizer rows, and `StabilizerState.drop_measured` drops their wires.
    """
    w = circuit.n
    anc = dict(ancilla_init)
    if any(l not in _ANCILLA_LETTERS for l in anc.values()):
        raise ResourceError("ancilla feeds must be 'Z' (|0>) or 'X' (|+>)")
    wires_in = list(input_wires)
    if sorted(wires_in + list(anc)) != list(range(w)):
        raise ResourceError("every wire needs exactly one role (input or ancilla)")
    n_in = len(wires_in)
    n = n_in + w
    images = {"X": circuit.image_x, "Z": circuit.image_z}

    def on_wires(letter: str, wire: int) -> PauliString:
        return images[letter][wire].shifted(n, n_in)

    # each input k and its wire start as the Bell pair XX, ZZ with
    # destabilizers Z_k and X_wire, an ancilla as its letter L with
    # destabilizer the other letter; the circuit maps the wire side.
    # X_k or Z_k and the wire image act on disjoint qubits, so a pair's
    # row has the image's phase
    stabs, destabs = [], []
    for k, wire in enumerate(wires_in):
        ix, iz, bit = circuit.image_x[wire], circuit.image_z[wire], 1 << k
        stabs += [PauliString(n, ix.x << n_in | bit, ix.z << n_in, ix.phase),
                  PauliString(n, iz.x << n_in, iz.z << n_in | bit, iz.phase)]
        destabs += [PauliString.single(n, k, "Z"), on_wires("X", wire)]
    for wire, letter in anc.items():
        stabs.append(on_wires(letter, wire))
        destabs.append(on_wires("X" if letter == "Z" else "Z", wire))
    # lightest rows first: a random pre-measurement multiplies its pivot,
    # the first row it anticommutes with, into the others, so light pivots
    # keep each input in few rows and the Bell measurements into it cheap
    rows = sorted(zip(stabs, destabs), key=lambda r: (r[0].x | r[0].z).bit_count())
    state = StabilizerState([s for s, _ in rows], [d for _, d in rows])

    # pin each pre-measured operator, projected onto +1, and drop its wires
    pinned: list[int] = []
    drop: set[int] = set()
    for vm in premeasured:
        try:
            state.measure(vm.operator.shifted(n, n_in), force=+1, pinned=pinned)
        except InconsistentProjection as exc:
            raise ResourceError(
                f"pre-measurement {vm.name} has projection probability zero"
            ) from exc
        drop.update(n_in + q for q in vm.operator.support())
    if drop:
        try:
            state.drop_measured(pinned, drop)
        except TableauError as exc:
            rows = state.stabs
            names = _entangling(premeasured, [rows[j] for j in pinned], n_in)
            raise ResourceError(f"qubits of pre-measurement {', '.join(names)} "
                                "stay entangled with the rest") from exc

    surviving = [wire for wire in range(w) if (n_in + wire) not in drop]
    in_labels = tuple(input_labels) if input_labels else tuple(
        f"in{k}" for k in range(n_in)
    )
    out_names = output_labels or {}
    out_labels = tuple(
        out_names.get(wire, f"out{idx}") for idx, wire in enumerate(surviving)
    )
    return ResourceSpec(
        name=name,
        state=state,
        inputs=in_labels,
        outputs=out_labels,
        circuit=circuit,
        input_wires=tuple(wires_in),
        output_wires=tuple(surviving),
        ancilla_init=tuple(sorted(anc.items())),
        virtual_meas=tuple(premeasured),
        syndrome=tuple(syndrome),
    )


def _entangling(premeasured: Sequence[VirtualMeasurement], rows: list[PauliString],
                n_in: int) -> list[str]:
    """Names of the pre-measurements in each set linked by shared wires
    that holds fewer of the pinned `rows` than wires (each row lies in one)."""
    groups: list[int] = []
    for vm in premeasured:
        mask = vm.operator.x | vm.operator.z
        for g in [g for g in groups if g & mask]:
            groups.remove(g)
            mask |= g
        groups.append(mask)
    loose = 0
    for mask in groups:
        if sum(not (r.x | r.z) >> n_in & ~mask for r in rows) < mask.bit_count():
            loose |= mask
    return [vm.name for vm in premeasured if (vm.operator.x | vm.operator.z) & loose]


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
    """Pre-measure listed output qubits in a Pauli basis (+1 branch).

    measurements: list of (output label, Pauli letter); the virtual
    outcome of output `label` is named `meas[label]`.
    """
    return premeasure_joint(
        spec, [({label: letter}, f"meas[{label}]") for label, letter in measurements],
        name or f"{spec.name}+premeasured",
    )


def premeasure_joint(spec: ResourceSpec,
                     measurements: Sequence[tuple[dict[str, str], str]],
                     name: str | None = None) -> ResourceSpec:
    """Pre-measure joint (commuting) Paulis over output qubits (+1 branch).

    measurements: list of ({output label: Pauli letter}, virtual name).
    Each dropped qubit's virtual outcome stays reconstructable from the
    in-coupling Bell outcomes.
    """
    vms = list(spec.virtual_meas)
    for labels_letters, vm_name in measurements:
        op = PauliString.identity(spec.n_wires)
        for label, letter in labels_letters.items():
            if label not in spec.outputs:
                raise ResourceError(f"{label!r} is not an output of {spec.name}")
            wire = spec.output_wires[spec.outputs.index(label)]
            op = op * PauliString.single(spec.n_wires, wire, letter)
        vms.append(VirtualMeasurement(vm_name, op))
    return _build_resource(
        name or spec.name, spec.circuit, spec.input_wires, spec.ancilla_init, vms,
        spec.syndrome, input_labels=spec.inputs,
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
