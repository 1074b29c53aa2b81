"""End-to-end schemes: encoded transmission with measurement-based error
correction stations, and nested measurement-based repeater chains.

Classical side information flows strictly forward (each station appends
its syndrome/outcome record and never reads downstream messages); all
Pauli corrections can be deferred to the final station via the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dense
from .belldiag import BellDiagonalState, werner
from .catalog import code_by_name, code_correct, code_decode_syndrome, code_encode
from .codes import CodeSpec
from .noise import NoiseModel
from .pauli import PauliString
from .protocols import (
    Depolarize,
    Purify,
    Swap,
    bd_index_of_pair,
    evaluate_stages,
    logical_error_rate,
    noise_stages,
    pairs_per_output,
    qec_correct,
    qec_decode,
    qec_encode,
    sample_stages,
    stats_from_counts,
    wilson_interval,
)
from .resources import LabeledRegister
from .tableau import StabilizerState


class ChainError(ValueError):
    """Raised for invalid chain configurations."""


@dataclass(frozen=True)
class ChainConfig:
    """Configuration of a long-range scheme.

    q_channel in `noise` is the per-segment, per-qubit transmission (or
    storage) depolarizing parameter; `channel_overrides` replaces it for
    specific segments (0-based).
    """

    segments: int
    noise: NoiseModel
    code: str = "ring5"
    purify_rounds: int = 1
    samples: int = 1000
    correction_timing: str = "end"  # or "station"
    channel_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.segments < 1:
            raise ChainError("need at least one segment")
        if self.correction_timing not in ("end", "station"):
            raise ChainError("correction_timing must be 'end' or 'station'")

    def channel_for(self, segment: int) -> float:
        return self.channel_overrides.get(segment, self.noise.q_channel)


def frame_apply(host: LabeledRegister, frame: PauliString, labels) -> None:
    """Physically apply a tracked frame to the delivered qubits."""
    if not frame.is_identity:
        host.apply_pauli(frame, labels)


@dataclass
class ChainResult:
    """Delivered-state statistics of one chain experiment."""

    fidelity: float
    fidelity_ci: tuple[float, float]
    p_success: float
    p_success_ci: tuple[float, float]
    syndrome_stats: dict
    resources: dict
    samples: int
    extra: dict = field(default_factory=dict)


# -- encoded transmission ----------------------------------------------------


def encoded_chain(cfg: ChainConfig, rng=None, mode: str = "trajectory") -> ChainResult:
    """Encoded direct transmission with per-segment correction stations."""
    if mode == "trajectory":
        return _encoded_chain_trajectory(cfg, rng)
    if mode == "analytic":
        return _encoded_chain_analytic(cfg)
    if mode == "dense":
        branches, fid = encoded_chain_dense(cfg)
        return ChainResult(
            fidelity=fid, fidelity_ci=(fid, fid), p_success=1.0,
            p_success_ci=(1.0, 1.0), syndrome_stats={},
            resources=_resource_counts(cfg), samples=0,
            extra={"branches": len(branches)},
        )
    raise ChainError(f"unknown mode {mode!r}")


def _resource_counts(cfg: ChainConfig) -> dict:
    code = code_by_name(cfg.code)
    return {
        "correction_resources": cfg.segments,
        "resource_qubits": cfg.segments * 2 * code.n + (code.n + 1) * 2,
    }


def _encoded_chain_trajectory(cfg: ChainConfig, rng) -> ChainResult:
    """Stabilizer Monte Carlo with a reference pair as fidelity witness."""
    code = code_by_name(cfg.code)
    enc = code_encode(code)
    corr = code_correct(code)
    dec = code_decode_syndrome(code)
    good = 0
    uncorrectable_runs = 0
    syndrome_counts: dict = {}
    for _ in range(cfg.samples):
        reg = LabeledRegister.from_state(StabilizerState.bell_pair(), ["ref", "in"])
        e = qec_encode(code, reg, "in", cfg.noise, rng, resource=enc)
        frame = e.frame
        labels = e.labels
        flagged = False
        for seg in range(cfg.segments):
            q = cfg.channel_for(seg)
            reg.depolarize(labels, q, rng)
            r = qec_correct(code, reg, labels, cfg.noise, rng,
                            frame=frame, resource=corr)
            labels = r.labels
            flagged = flagged or r.uncorrectable
            syndrome_counts[r.syndrome] = syndrome_counts.get(r.syndrome, 0) + 1
            if cfg.correction_timing == "station":
                frame_apply(reg, r.frame, labels)
                frame = PauliString.identity(code.n)
            else:
                frame = r.frame
        d = qec_decode(code, reg, labels, cfg.noise, rng,
                       frame=frame, resource=dec)
        frame_apply(reg, d.frame, d.labels)
        uncorrectable_runs += flagged
        if bd_index_of_pair(reg, "ref", d.labels[0]) == 0:
            good += 1
    fid = good / cfg.samples if cfg.samples else 0.0
    return ChainResult(
        fidelity=fid,
        fidelity_ci=wilson_interval(good, cfg.samples),
        p_success=1.0,
        p_success_ci=(1.0, 1.0),
        syndrome_stats=syndrome_counts,
        resources=_resource_counts(cfg),
        samples=cfg.samples,
        extra={"uncorrectable_runs": uncorrectable_runs,
               "timing": cfg.correction_timing},
    )


def effective_step_noise(cfg: ChainConfig, segment: int = 0) -> float:
    """The paper's per-step reduction: all imperfections fold into one
    depolarizing parameter p^2 q acting before a perfect correction."""
    folded = cfg.noise.folded()
    return folded.p_resource * cfg.noise.p_resource * cfg.channel_for(segment)


def _encoded_chain_analytic(cfg: ChainConfig) -> ChainResult:
    code = code_by_name(cfg.code)
    p_logical = 1.0
    improves = True
    for seg in range(cfg.segments):
        p_tilde = effective_step_noise(cfg, seg)
        p_l = logical_error_rate(code, p_tilde)
        improves = improves and (p_l >= p_tilde)
        p_logical *= p_l
    if code.name.startswith("repetition"):
        fid = (1.0 + p_logical) / 2.0  # dephasing-parameter convention
        direct = (1.0 + cfg.noise.q_channel ** cfg.segments) / 2.0
    else:
        fid = (3.0 * p_logical + 1.0) / 4.0
        direct = (3.0 * cfg.noise.q_channel ** cfg.segments + 1.0) / 4.0
    return ChainResult(
        fidelity=fid,
        fidelity_ci=(fid, fid),
        p_success=1.0,
        p_success_ci=(1.0, 1.0),
        syndrome_stats={},
        resources=_resource_counts(cfg),
        samples=0,
        extra={
            "p_logical": p_logical,
            "per_step_noise": effective_step_noise(cfg),
            "improves_over_physical": improves,
            "direct_fidelity": direct,
        },
    )


# -- dense-channel mode (exact branch ensembles) ------------------------------


def _syndrome_projector_branches(code: CodeSpec, dm: dense.DensityMatrix,
                                 gen_mats: list[np.ndarray]):
    """Exact syndrome measurement branches on the block qubits.

    Splits one generator at a time so partial projections are shared
    across the syndrome tree.
    """
    out = []

    def split(mat: np.ndarray, bits: tuple[int, ...]):
        if len(bits) == len(gen_mats):
            prob = float(np.trace(mat).real)
            if prob > 1e-14:
                out.append(
                    (prob, bits, dense.DensityMatrix(mat / prob, validate=False))
                )
            return
        gm = gen_mats[len(bits)]
        grho = gm @ mat
        rhog = mat @ gm
        grhog = grho @ gm
        split((mat + grho + rhog + grhog) / 4.0, bits + (0,))
        split((mat - grho - rhog + grhog) / 4.0, bits + (1,))

    split(dm.mat, ())
    return out


def encoded_chain_dense(cfg: ChainConfig):
    """Exact branch-ensemble evolution of the encoded chain.

    The host is a reference qubit plus the encoded block; each segment
    applies the folded per-step noise and a perfect syndrome projection
    (valid by the tested resource channel identities). Returns the
    branch list [(prob, syndrome path, final DM)] with corrections
    applied per cfg.correction_timing, and the delivered fidelity.
    """
    code = code_by_name(cfg.code)
    n = code.n
    gens = [g.embed(n + 1, list(range(1, n + 1))) for g in code.stabilizers]
    gens.append(
        PauliString.single(n + 1, 0, "X")
        * code.logical_x.embed(n + 1, list(range(1, n + 1)))
    )
    gens.append(
        PauliString.single(n + 1, 0, "Z")
        * code.logical_z.embed(n + 1, list(range(1, n + 1)))
    )
    ideal_vec = StabilizerState.from_generators(gens).to_dense()
    block = list(range(1, n + 1))
    gen_mats = [
        dense.embed_unitary(n + 1, dense.pauli_matrix(g), block)
        for g in code.stabilizers
    ]
    start = dense.DensityMatrix.from_vec(ideal_vec)
    branches = [(1.0, (), start, PauliString.identity(n))]
    for seg in range(cfg.segments):
        p_tilde = effective_step_noise(cfg, seg)
        nxt = []
        for prob, path, dm, frame in branches:
            for q in block:
                dm = dm.depolarize(q, p_tilde)
            for bprob, raw_bits, bdm in _syndrome_projector_branches(code, dm, gen_mats):
                adj = tuple(
                    b ^ s for b, s in zip(raw_bits, code.syndrome_of(frame))
                )
                est = code.correction_for(adj)
                if cfg.correction_timing == "station":
                    bdm = bdm.apply_pauli(est.embed(n + 1, block))
                    new_frame = frame
                else:
                    new_frame = (frame * est).unsigned()
                nxt.append((prob * bprob, path + (adj,), bdm, new_frame))
        branches = nxt
    final = []
    fid = 0.0
    for prob, path, dm, frame in branches:
        if cfg.correction_timing == "end" and not frame.is_identity:
            dm = dm.apply_pauli(frame.embed(n + 1, block))
        final.append((prob, path, dm))
        fid += prob * dm.fidelity_with_vec(ideal_vec)
    return final, fid


# -- repeater chains ----------------------------------------------------------


def repeater_stages(dress_in: Depolarize, rounds: int, levels: int) -> list:
    """Stations of all levels: each level dresses every segment's pair with
    the moved-in station noise and purifies it in one merged block of
    `rounds` rounds (outputs virtual); swapping joins adjacent segments
    between levels. The end stations' output noise is not included."""
    level = [dress_in, Purify(rounds)]
    stages = list(level)
    for _ in range(levels):
        stages += [Swap(), *level]
    return stages


def repeater_chain(cfg: ChainConfig, rng=None, mode: str = "mc") -> ChainResult:
    """Nested purify-and-swap chain built from merged station resources.

    The delivered pair finally sits on the end stations' output
    particles. The Monte Carlo draws `cfg.samples` elementary pairs per
    segment.
    """
    levels = int(np.log2(cfg.segments))
    if 1 << levels != cfg.segments:
        raise ChainError("repeater segment count must be a power of two")
    dress_in, dress_out = noise_stages(cfg.noise)
    stages = repeater_stages(dress_in, cfg.purify_rounds, levels) + [dress_out]
    pair = elementary_pair(cfg.noise.q_channel)
    resources = _station_resources(cfg, levels)
    if mode == "analytic":
        state, success = evaluate_stages(pair, stages)
        return ChainResult(
            fidelity=state.fidelity,
            fidelity_ci=(state.fidelity, state.fidelity),
            p_success=success,
            p_success_ci=(success, success),
            syndrome_stats={},
            resources=resources,
            samples=0,
            extra={"coeffs": state.coeffs},
        )
    if mode == "mc":
        if rng is None:
            raise ChainError("Monte-Carlo repeater needs an rng")
        counts = sample_stages(pair, stages, cfg.samples, rng)
        stats = stats_from_counts(counts, pairs_per_output(stages))
        return ChainResult(
            fidelity=stats.fidelity,
            fidelity_ci=stats.fidelity_ci,
            p_success=stats.p_success,
            p_success_ci=stats.p_success_ci,
            syndrome_stats={},
            resources=resources,
            samples=cfg.samples,
            extra={"delivered": counts["kept"]},
        )
    raise ChainError(f"unknown mode {mode!r}")


def elementary_pair(q: float) -> BellDiagonalState:
    """Pair sent over one segment: E(q) on both halves of |phi+>."""
    return werner((3.0 * q * q + 1.0) / 4.0)


def _station_resources(cfg: ChainConfig, levels: int) -> dict:
    stations = cfg.segments - 1
    return {
        "stations": stations,
        "station_resource_qubits": stations * (1 << (cfg.purify_rounds + 1)),
        "levels": levels,
    }
