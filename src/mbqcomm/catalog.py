"""Named resource constructions: purification and codes.

Every entry is produced by the generic Choi-Jamiolkowski builder plus
pre-measurement and merging; nothing is transcribed from figures. The
purification resource is one party's site, which runs the circuit of
`belldiag.epp_site_circuit`, the same round from which the Bell-diagonal
maps are derived; the protocol reads the two sites side by side, and
they are never merged into one resource. Each entry is built once per
argument set and shared, so callers never mutate `spec.state`
(`teleport_in` reads it and writes a new state).
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from functools import lru_cache, wraps

from .belldiag import epp_site_circuit
from .codes import CodeSpec, repetition_code, ring5_code
from .pauli import circuit_map
from .resources import ResourceSpec, cj_state, merge, premeasure_outputs


class CatalogError(ValueError):
    """Raised for unknown catalog entries or bad parameters."""


_BUILT: dict = {}  # (builder, *arguments) -> resource, as called and with defaults


def _built_once(build):
    """Memoise a builder per argument set, defaults filled in; a `CodeSpec`
    is hashed by identity. A call with positional arguments alone is
    answered from its arguments as given, so the signature is bound only
    on a miss or for keyword arguments. The wrapper stays a plain
    function with the builder's signature."""
    signature = inspect.signature(build)
    name = build.__name__

    @wraps(build)
    def once(*args, **kwargs):
        called = (name, *args)
        if kwargs or called not in _BUILT:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (name, *bound.args)
            if key not in _BUILT:
                _BUILT[key] = build(*bound.args)
            if kwargs:
                return _BUILT[key]
            _BUILT[called] = _BUILT[key]
        return _BUILT[called]

    return once


@_built_once
def epp_site_resource(rounds: int, role: str, variant: str = "DEJMPS") -> ResourceSpec:
    """One party's purification resource: 2^m inputs, one output. Its
    `syndrome` reads the pre-measured targets' outcomes in `virtual_meas`
    order; a round keeps the pair iff the two sites read the same bits."""
    n = 1 << rounds
    gates, targets = epp_site_circuit(rounds, role, variant)
    circuit = circuit_map(n, gates)
    spec = cj_state(circuit, name=f"epp{role}")
    spec = premeasure_outputs(
        spec, [(f"out{t}", "Z") for t in targets], name=f"epp{role}{rounds}"
    )
    return replace(spec, syndrome=tuple(vm.name for vm in spec.virtual_meas))


@_built_once
def code_encode(code: CodeSpec) -> ResourceSpec:
    """Encoding resource: GHZ-type state with 1 input and N block outputs."""
    anc = [(w, "Z") for w in range(1, code.n)]
    return cj_state(
        code.encoder,
        name=f"{code.name}_encode",
        ancilla_init=anc,
        input_labels=["in"],
        output_labels={w: f"b{w}" for w in range(code.n)},
    )


@_built_once
def code_decode_syndrome(code: CodeSpec) -> ResourceSpec:
    """Decode-with-syndrome resource: N block inputs, one data output.

    The ancilla outputs of the inverse encoder are pre-measured in Z;
    their virtual outcomes are exactly the code syndrome.
    """
    out_names = {0: "out"}
    out_names.update({w: f"anc{w}" for w in range(1, code.n)})
    spec = cj_state(
        code.encoder.inverse(),
        name=f"{code.name}_decode",
        input_labels=[f"b{w}" for w in range(code.n)],
        output_labels=out_names,
    )
    spec = premeasure_outputs(
        spec, [(f"anc{w}", "Z") for w in range(1, code.n)],
        name=f"{code.name}_decode_syndrome",
    )
    return replace(spec, syndrome=tuple(f"meas[anc{w}]" for w in range(1, code.n)))


@_built_once
def code_correct(code: CodeSpec) -> ResourceSpec:
    """Syndrome readout + re-encoding: the 2N-qubit correction resource.
    The merge carries the decoder's syndrome."""
    return merge(code_decode_syndrome(code), code_encode(code), [("out", "in")],
                 name=f"{code.name}_correct")


_CODE_NAMES = {"ring5": ring5_code}


@lru_cache(maxsize=None)
def code_by_name(name: str) -> CodeSpec:
    """Parse 'ring5', 'repetition3' or 'repetition5-phase' style names.
    One instance per name, so its resources are built once per process."""
    if name in _CODE_NAMES:
        return _CODE_NAMES[name]()
    if name.startswith("repetition"):
        rest = name[len("repetition"):]
        basis = "bit"
        if rest.endswith("-phase"):
            basis = "phase"
            rest = rest[: -len("-phase")]
        try:
            m = int(rest)
        except ValueError:
            raise CatalogError(f"unknown code {name!r}") from None
        return repetition_code(m, basis)
    raise CatalogError(f"unknown code {name!r}")
