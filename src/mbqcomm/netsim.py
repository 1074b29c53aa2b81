"""End-to-end schemes: encoded transmission with measurement-based error
correction stations, and nested measurement-based repeater chains.

Classical side information flows strictly forward (each station appends
its syndrome/outcome record and never reads downstream messages).
Every operation is Clifford, so no station applies a correction: a
station is one lookup in its code's syndrome table by the syndrome its
Bell outcomes flip (`protocols.station_reading`), for one shot or many,
and the correction joins the frame passed on as letter codes. So
corrections are deferred to the end by construction, where the
delivered pair is read against the final frame.

The encoded chain runs shot by shot on the stabilizer engine
(trajectory): `encoded_shot` keeps a reference half at qubit 0 and the
block at qubits 1..n, and makes each station one `teleport_in` of the
block, whose tableau draws the Bell outcomes, and one
`station_reading`. It also runs exactly: each perfect correction
station is one logical Pauli channel on the encoded qubit
(`CodeSpec.logical_channel`), composed on one half of a Bell pair
(dense). Injected errors go through all stations in one batch
(`corrected`).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import Frozen
from .belldiag import BellDiagonalState, apply_pauli_channel, perfect_pair, werner
from .catalog import code_by_name, code_correct, code_decode_syndrome, code_encode
from .codes import CodeSpec
from .noise import NoiseModel, PauliChannel, apply_sampled_noise
from .protocols import (
    Depolarize,
    ProtocolStats,
    Purify,
    Swap,
    exact_stats,
    noise_stages,
    pairs_per_output,
    point_stats,
    qec_encode,
    sample_stages,
    station_reading,
    stats_from_counts,
)
from .resources import teleport_in
from .tableau import StabilizerState


class ChainError(ValueError):
    """Raised for invalid chain configurations."""


class ChainConfig(Frozen):
    """Configuration of a long-range scheme, equal to another with the
    same fields.

    q_channel in `noise` is the per-segment, per-qubit transmission (or
    storage) depolarizing parameter; `channel_overrides` replaces it for
    specific segments (0-based).
    """

    __slots__ = ("segments", "noise", "code", "purify_rounds", "samples", "channel_overrides")

    def __init__(self, segments: int, noise: NoiseModel, code: str = "ring5",
                 purify_rounds: int = 1, samples: int = 1000,
                 channel_overrides: dict | None = None):
        channel_overrides = {} if channel_overrides is None else channel_overrides
        if segments < 1:
            raise ChainError("need at least one segment")
        if samples < 1:
            raise ChainError(f"samples must be at least 1, got {samples}")
        if purify_rounds < 0:
            raise ChainError(f"rounds must be at least 0, got {purify_rounds}")
        for seg, q in channel_overrides.items():
            if not 0 <= seg < segments:
                raise ChainError(f"station {seg}: segments are 0..{segments - 1}")
            if not isinstance(q, (int, float)) or not 0.0 <= q <= 1.0:
                raise ChainError(f"station {seg}: q_channel must be in [0, 1], got {q}")
        self._fill(segments, noise, code, purify_rounds, samples, channel_overrides)

    def __eq__(self, other):
        if other.__class__ is not ChainConfig:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def channel_for(self, segment: int) -> float:
        return self.channel_overrides.get(segment, self.noise.q_channel)


# -- encoded transmission ----------------------------------------------------


def encoded_shot(code: CodeSpec, noise: NoiseModel, rng,
                 q_channel: list[float]) -> tuple[bool, list[tuple[tuple[int, ...], bool]]]:
    """One encoded transmission of half of a reference Bell pair, whose
    other half stays qubit 0 while the block is qubits 1..n at every
    station. Encode qubit 1; per segment, depolarize the block by that
    segment's `q_channel` entry and teleport it into a correction
    station; teleport it into the decode station, whose output is qubit
    1; read the Bell index of qubits (0, 1) against the final frame. Each
    station is read by `station_reading`. Returns whether the pair came
    out in |phi+> and, per correction station, its syndrome and whether
    the lookup corrects it.
    """
    enc = code_encode(code)
    state, frame = qec_encode(StabilizerState.bell_pair(), 1, noise, rng, enc)
    corr, dec = code_correct(code), code_decode_syndrome(code)
    block = list(range(1, code.n + 1))
    stations = []
    for q in q_channel:
        apply_sampled_noise(state, block, q, rng)
        state, codes = teleport_in(corr, state, block, noise, rng)
        syndrome, correctable, frame = station_reading(code, corr, codes ^ frame)
        stations.append((tuple(syndrome.tolist()), bool(correctable)))
    state, codes = teleport_in(dec, state, block, noise, rng)
    frame = station_reading(code, dec, codes ^ frame)[2]
    return bool(state.bell_measure(0, 1, rng, []) == frame[0]), stations


def encoded_chain(cfg: ChainConfig, rng=None, mode: str = "trajectory") -> ProtocolStats:
    """Encoded direct transmission with per-segment correction stations.

    Modes: "trajectory" runs the noisy resources shot by shot, "dense"
    composes the exact logical channel of perfect corrections, and
    "analytic" is the paper's folded-noise bound on that channel.
    `extra` holds, under `report`, the resource counts and the values
    the mode reports beside the fidelity.
    """
    if mode == "trajectory":
        stats = encoded_trajectories(cfg, rng)
    elif mode == "analytic":
        stats = _encoded_chain_analytic(cfg)
    elif mode == "dense":
        stats = point_stats(_encoded_chain_dense(cfg), report={})
    else:
        raise ChainError(f"unknown mode {mode!r}")
    stats.extra["report"].update(_resource_counts(cfg))
    return stats


def _resource_counts(cfg: ChainConfig) -> dict:
    code = code_by_name(cfg.code)
    return {
        "correction_resources": cfg.segments,
        "resource_qubits": cfg.segments * 2 * code.n + (code.n + 1) * 2,
    }


def encoded_trajectories(cfg: ChainConfig, rng) -> ProtocolStats:
    """Stabilizer Monte Carlo with a reference pair as fidelity witness.

    `extra` holds the station syndrome histogram and, under `report`, the
    runs with an uncorrectable syndrome.
    """
    code = code_by_name(cfg.code)
    q_channel = [cfg.channel_for(seg) for seg in range(cfg.segments)]
    good = uncorrectable_runs = 0
    syndromes = Counter()
    for _ in range(cfg.samples):
        ok, stations = encoded_shot(code, cfg.noise, rng, q_channel)
        good += ok
        uncorrectable_runs += not all(correctable for _, correctable in stations)
        syndromes.update(syndrome for syndrome, _ in stations)
    n = cfg.samples
    stats = stats_from_counts({"attempts": n, "consumed": n, "kept": n, "good": good}, 1)
    stats.extra.update(syndromes=dict(syndromes),
                       report={"uncorrectable_runs": uncorrectable_runs})
    return stats


def corrected(code: CodeSpec, errors: np.ndarray) -> np.ndarray:
    """Whether each error (letter codes, a qubit per row, an error per
    column) injected into one noiseless segment is delivered exactly.

    Whatever its Bell outcomes, a station maps an error E relative to the
    frame to F(E ^ C(S(E))): F and S its frame map's output and syndrome
    columns, C the lookup correction. So all errors go through the
    correct and decode stations at once, with no tableau and no draw.
    """
    block = station_reading(code, code_correct(code), errors)[2]
    return station_reading(code, code_decode_syndrome(code), block)[2][0] == 0


def enumerate_single_errors(code: CodeSpec) -> tuple[int, int]:
    """Inject each single-qubit error that the lookup correction undoes
    (weight within `correctable_weight`, `CodeSpec.residual` the
    identity) into one noiseless segment in place of channel noise;
    count exact recoveries."""
    qubit, letter = np.divmod(np.arange(3 * code.n), 3)
    letter += 1  # Z, X, Y on each qubit
    errors = np.where(np.arange(code.n)[:, None] == qubit, letter, 0).astype(np.uint8)
    undone = code.residual((letter >> 1) << qubit, (letter & 1) << qubit) == 0
    undone &= code.correctable_weight >= 1  # a single error has weight 1
    if not undone.any():
        raise ChainError(f"code {code.name} corrects no single-qubit error")
    ok = corrected(code, errors[:, undone])
    return int(ok.sum()), int(undone.sum())


def effective_step_noise(cfg: ChainConfig, segment: int = 0) -> float:
    """The paper's per-step reduction: all imperfections fold into one
    depolarizing parameter p^2 q acting before a perfect correction,
    the in-coupling and output dressings of `noise_stages` and the
    segment's channel."""
    dress_in, dress_out = noise_stages(cfg.noise)
    return dress_in.p * dress_out.p * cfg.channel_for(segment)


def _encoded_chain_dense(cfg: ChainConfig) -> float:
    """Exact delivered fidelity of perfect corrections: each segment's
    folded depolarizing step, passed through the code's logical channel,
    acts on one half of a perfect pair. The folding leaves out the noise
    of encoding and decoding."""
    code = code_by_name(cfg.code)
    pair = perfect_pair()
    for seg in range(cfg.segments):
        physical = PauliChannel.depolarizing(effective_step_noise(cfg, seg))
        logical = PauliChannel(tuple(code.logical_channel(physical.weights)))
        pair = apply_pauli_channel(pair, logical)
    return pair.fidelity


def _encoded_chain_analytic(cfg: ChainConfig) -> ProtocolStats:
    """The paper's closed form: each segment folds all its noise into one
    depolarizing step p~ = p^2 q before a perfect correction, and counts
    only errors of weight at most `correctable_weight` as corrected, so
    its logical parameter p_L(p~) is a lower bound. The delivered pair is
    depolarized by the product of the segments' p_L. The folding leaves
    out the noise of encoding and decoding."""
    code = code_by_name(cfg.code)
    p_logical = 1.0
    improves = True
    for seg in range(cfg.segments):
        p_tilde = effective_step_noise(cfg, seg)
        p_l = code.logical_noise(p_tilde, code.correctable_weight)
        improves = improves and (p_l >= p_tilde)
        p_logical *= p_l
    # the unencoded pair crosses every segment's channel; the shared one
    # enters as one power, so with no overrides this is q ** segments
    q_direct = cfg.noise.q_channel ** (cfg.segments - len(cfg.channel_overrides))
    for seg in cfg.channel_overrides:
        q_direct *= cfg.channel_for(seg)
    return point_stats((3.0 * p_logical + 1.0) / 4.0, report={
        "p_logical": p_logical, "per_step_noise": effective_step_noise(cfg),
        "improves_over_physical": improves,
        "direct_fidelity": (3.0 * q_direct + 1.0) / 4.0,
    })


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


def repeater_levels(segments: int) -> int:
    """Nesting levels of a repeater over `segments` segments, which must
    be a power of two."""
    if segments < 1:
        raise ChainError("need at least one segment")
    levels = segments.bit_length() - 1
    if 1 << levels != segments:
        raise ChainError("repeater segment count must be a power of two")
    return levels


def repeater_chain(cfg: ChainConfig, rng=None, mode: str = "mc") -> ProtocolStats:
    """Nested purify-and-swap chain built from merged station resources.

    The delivered pair finally sits on the end stations' output
    particles. The Monte Carlo draws `cfg.samples` elementary pairs per
    segment. `extra` holds, under `report`, the station resource counts,
    and for the Monte Carlo the delivered pair count.
    """
    levels = repeater_levels(cfg.segments)
    dress_in, dress_out = noise_stages(cfg.noise)
    stages = repeater_stages(dress_in, cfg.purify_rounds, levels) + [dress_out]
    pair = elementary_pair(cfg.noise.q_channel)
    if mode == "analytic":
        stats = exact_stats(pair, stages, cfg.purify_rounds)
    elif mode == "mc":
        if rng is None:
            raise ChainError("Monte-Carlo repeater needs an rng")
        counts = sample_stages(pair, stages, cfg.samples, rng)
        stats = stats_from_counts(counts, pairs_per_output(stages))
        stats.extra["delivered"] = counts["kept"]
    else:
        raise ChainError(f"unknown mode {mode!r}")
    stats.extra["report"] = _station_resources(cfg, levels)
    return stats


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
