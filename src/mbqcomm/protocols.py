"""Protocol layer: entanglement purification (recurrence and hashing),
measurement-based quantum error correction and entanglement swapping.

Each protocol is runnable on the stabilizer engine (full
measurement-based simulation with noisy resources) and mirrored by the
exact Bell-diagonal analytics, with a fast index-sampling Monte Carlo in
between; the engines are tested against each other.

Recurrence purification and the nested repeater are written once, as a
list of stages, and run by two evaluators: `evaluate_stages` (exact,
on the Bell-diagonal maps) and `sample_stages` (Bell-index Monte
Carlo). The stage kinds are:

- `Depolarize(p)`: E(p) on both halves of each pair, one Bell-index
  draw from E(p^2) in the sampler;
- `Purify(depth, variant)`: one merged block of `depth` recurrence
  rounds on a tree of 2^depth pairs, kept only if every check in the
  tree passes; the outputs of a block are pooled for the next stage;
- `Swap`: entanglement swapping of the pairs of adjacent segments.

The sampler returns raw counts: `attempts`, `consumed` (elementary
pairs drawn over all segments), `kept` and `good` (kept output pairs in
|phi+>). Counts of shards add, and `stats_from_counts` turns them into
fidelity = good/kept, yield = kept/consumed and p_success = kept *
pairs_per_output / consumed. The exact p_success that `evaluate_stages`
reports is the product, over the `Purify` stages, of the probability
that one block passes all its checks, and yield = p_success /
pairs_per_output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .belldiag import (
    BellDiagonalState,
    apply_depolarizing,
    load_golden_maps,
    recurrence_step,
    swap_pairs,
)
from .catalog import code_correct, code_decode_syndrome, code_encode, epp_recurrence
from .codes import CodeSpec
from .noise import NoiseModel, PauliChannel
from .pauli import PauliString
from .resources import LabeledRegister, ResourceSpec, teleport_in
from .tableau import StabilizerState


class ProtocolError(ValueError):
    """Raised for invalid protocol configurations."""


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class ProtocolStats:
    """Result summary of one protocol run."""

    fidelity: float
    fidelity_ci: tuple[float, float]
    p_success: float
    p_success_ci: tuple[float, float]
    protocol_yield: float
    samples: int
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in (self.fidelity, self.p_success):
            if not -1e-9 <= v <= 1 + 1e-9:
                raise ProtocolError("estimates must lie in [0, 1]")


# -- stage lists ------------------------------------------------------------


@dataclass(frozen=True)
class Depolarize:
    """E(p) on both halves of every pair.

    The two one-sided maps compose to one Bell-index draw from E(p^2).
    """

    p: float

    def index_weights(self) -> np.ndarray:
        return PauliChannel.depolarizing(self.p * self.p).bd_weights()


@dataclass(frozen=True)
class Purify:
    """One merged block of `depth` recurrence rounds on 2^depth pairs.

    The output pair is kept only if every check in the tree passes.
    """

    depth: int
    variant: str = "DEJMPS"


@dataclass(frozen=True)
class Swap:
    """Entanglement swapping joins the pairs of adjacent segments."""


def noise_stages(noise: NoiseModel) -> tuple[Depolarize, Depolarize]:
    """(in-coupling, output-particle) dressing of a resource.

    Each in-coupling Bell measurement moves the resource-input noise and
    both measurement depolarizations onto the pair half: E(q^2 p). The
    output particles contribute E(p) per half and no measurement noise.
    """
    return Depolarize(noise.folded().p_resource), Depolarize(noise.p_resource)


def pairs_per_output(stages) -> int:
    """Elementary pairs, over all segments, behind one output pair."""
    n = 1
    for stage in stages:
        if isinstance(stage, Purify):
            n <<= stage.depth
        elif isinstance(stage, Swap):
            n <<= 1
    return n


def evaluate_stages(state: BellDiagonalState, stages) -> tuple[BellDiagonalState, float]:
    """Exact output state and success probability of a stage list.

    The success probability is the product of the block success
    probabilities, the limit of `kept * pairs_per_output / consumed`.
    """
    p_success = 1.0
    for stage in stages:
        if isinstance(stage, Depolarize):
            state = apply_depolarizing(apply_depolarizing(state, "A", stage.p), "B", stage.p)
        elif isinstance(stage, Purify):
            for r in range(stage.depth):
                state, s = recurrence_step(state, state, stage.variant)
                p_success *= s ** (1 << (stage.depth - 1 - r))
        else:
            state = swap_pairs(state, state)
    return state, p_success


@lru_cache(maxsize=None)
def _index_tables(variant: str) -> tuple[np.ndarray, np.ndarray]:
    """(keep[i,j], out_index[i,j]) tables of one recurrence round.

    DEJMPS is deterministic at the Bell-index level: each basis input
    pair either always fails or maps to one output index.
    """
    tensor = load_golden_maps()[f"recurrence_{variant.lower()}"]
    keep = np.zeros((4, 4), dtype=bool)
    out = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            col = tensor[:, i, j]
            s = col.sum()
            if s > 1e-12:
                keep[i, j] = True
                out[i, j] = int(np.argmax(col))
                if abs(s - col.max()) > 1e-12:
                    raise ProtocolError(
                        f"index sampling needs an index-deterministic map; {variant} is not"
                    )
    return keep, out


def _purify_blocks(pool: np.ndarray, stage: Purify) -> np.ndarray:
    """Outputs of the blocks of 2^depth consecutive pairs that pass every check."""
    keep_t, out_t = _index_tables(stage.variant)
    idx = pool[:(pool.size >> stage.depth) << stage.depth].reshape(-1, 1 << stage.depth)
    alive = np.ones(idx.shape[0], dtype=bool)
    for _ in range(stage.depth):
        half = idx.shape[1] // 2
        src, tgt = idx[:, :half], idx[:, half:]
        alive &= keep_t[src, tgt].all(axis=1)
        idx = out_t[src, tgt]
    return idx[alive, 0]


def sample_stages(state: BellDiagonalState, stages, attempts: int, rng,
                  pairs_per_attempt: int = 1) -> dict:
    """Bell-index Monte Carlo of a stage list; returns raw counts.

    Each segment (2^(number of swaps) of them) starts from a pool of
    attempts * pairs_per_attempt sampled pairs. Survivors of a block are
    pooled for the next stage; swapping pairs up the pools of adjacent
    segments, truncated to the shorter one.
    """
    segments = 1 << sum(isinstance(stage, Swap) for stage in stages)
    size = attempts * pairs_per_attempt
    pools = [rng.choice(4, size=size, p=state.as_array()) for _ in range(segments)]
    for stage in stages:
        if isinstance(stage, Depolarize):
            w = stage.index_weights()
            for pool in pools:
                pool ^= rng.choice(4, size=pool.size, p=w)
        elif isinstance(stage, Purify):
            pools = [_purify_blocks(pool, stage) for pool in pools]
        else:
            joined = []
            for a, b in zip(pools[0::2], pools[1::2]):
                m = min(a.size, b.size)
                joined.append(a[:m] ^ b[:m])
            pools = joined
    final = pools[0]
    return {"attempts": attempts, "consumed": segments * size,
            "kept": int(final.size), "good": int((final == 0).sum())}


def stats_from_counts(counts: dict, per_output: int) -> ProtocolStats:
    """Reported numbers of one run or of summed shard counts.

    fidelity = good/kept, yield = kept/consumed and p_success =
    kept * per_output / consumed, with `per_output` elementary pairs
    behind each output pair. The p_success interval takes the
    consumed // per_output output slots as its trials.
    """
    kept, good, consumed = counts["kept"], counts["good"], counts["consumed"]
    return ProtocolStats(
        fidelity=good / kept if kept else 0.0,
        fidelity_ci=wilson_interval(good, kept),
        p_success=kept * per_output / consumed,
        p_success_ci=wilson_interval(kept, consumed // per_output),
        protocol_yield=kept / consumed,
        samples=counts["attempts"],
        extra={"counts": counts},
    )


# -- recurrence purification ------------------------------------------------


def purify_stages(rounds: int, noise: NoiseModel, mode: str = "merged",
                  variant: str = "DEJMPS") -> list:
    """Stage list of measurement-based recurrence purification.

    merged: noise enters once at the in-coupling and once at the output
    (intermediate pairs are virtual); stepwise: every round is its own
    resource and pays both.
    """
    dress_in, dress_out = noise_stages(noise)
    if mode == "merged":
        return [dress_in, Purify(rounds, variant), dress_out]
    if mode == "stepwise":
        return [dress_in, Purify(1, variant), dress_out] * rounds
    raise ProtocolError("mode must be 'merged' or 'stepwise'")


def purify_recurrence_analytic(input_state: BellDiagonalState, rounds: int,
                               noise: NoiseModel, mode: str = "merged",
                               variant: str = "DEJMPS") -> ProtocolStats:
    """Exact composition of the golden maps under the error model."""
    stages = purify_stages(rounds, noise, mode, variant)
    state, success = evaluate_stages(input_state, stages)
    return ProtocolStats(
        fidelity=state.fidelity,
        fidelity_ci=(state.fidelity, state.fidelity),
        p_success=success,
        p_success_ci=(success, success),
        protocol_yield=success / pairs_per_output(stages),
        samples=0,
        extra={"coeffs": state.coeffs},
    )


def purify_recurrence_mc(input_state: BellDiagonalState, rounds: int,
                         noise: NoiseModel, samples: int, rng,
                         mode: str = "merged", variant: str = "DEJMPS") -> ProtocolStats:
    """Index-sampling Monte Carlo of the recurrence protocol.

    merged: each of the `samples` attempts consumes 2^rounds sampled
    pairs through one resource. stepwise: a pool of `samples` pairs is
    purified round by round, recombining survivors.
    """
    stages = purify_stages(rounds, noise, mode, variant)
    per_attempt = 1 << rounds if mode == "merged" else 1
    counts = sample_stages(input_state, stages, samples, rng, per_attempt)
    return stats_from_counts(counts, pairs_per_output(stages))


def bd_index_of_pair(reg: LabeledRegister, la: str, lb: str) -> int:
    """Destructively read the Bell index of a pair held in a register."""
    xx = PauliString.from_string("XX")
    zz = PauliString.from_string("ZZ")
    sx = reg.measure(xx, [la, lb])
    sz = reg.measure(zz, [la, lb])
    return 2 * ((1 - sz) // 2) + ((1 - sx) // 2)


def purify_recurrence_stabilizer(input_state: BellDiagonalState, rounds: int,
                                 noise: NoiseModel, samples: int, rng,
                                 resource: ResourceSpec | None = None) -> ProtocolStats:
    """Full measurement-based trajectory simulation (merged mode, DEJMPS).

    Every attempt teleports 2^rounds sampled input pairs through one
    noisy joint resource; the kept output pair's Bell index is read out
    after applying the byproduct frame.
    """
    spec = resource if resource is not None else epp_recurrence(rounds, "DEJMPS")
    n_pairs = 1 << rounds
    kept = good = 0
    for _ in range(samples):
        reg = LabeledRegister()
        indices = rng.choice(4, size=n_pairs, p=input_state.as_array())
        for k in range(n_pairs):
            reg.add(StabilizerState.bell_pair(int(indices[k])), [f"a{k}", f"b{k}"])
        wiring = {}
        for k in range(n_pairs):
            wiring[f"L/in{k}"] = f"a{k}"
            wiring[f"R/in{k}"] = f"b{k}"
        result = teleport_in(spec, reg, wiring, noise=noise, rng=rng,
                             apply_frame=True)
        if not result.keep:
            continue
        kept += 1
        if bd_index_of_pair(reg, "L/out0", "R/out0") == 0:
            good += 1
    counts = {"attempts": samples, "consumed": samples * n_pairs,
              "kept": kept, "good": good}
    return stats_from_counts(counts, n_pairs)


def purify_recurrence(input_state: BellDiagonalState, rounds: int,
                      noise: NoiseModel, mode: str = "merged",
                      samples: int = 0, rng=None,
                      engine: str = "analytic",
                      variant: str = "DEJMPS") -> ProtocolStats:
    """Measurement-based recurrence purification, via the chosen engine."""
    if rounds < 1:
        raise ProtocolError("need at least one round")
    if engine == "analytic":
        return purify_recurrence_analytic(input_state, rounds, noise, mode, variant)
    if engine == "mc":
        return purify_recurrence_mc(input_state, rounds, noise, samples, rng, mode, variant)
    if engine == "stabilizer":
        if variant != "DEJMPS" or mode != "merged":
            raise ProtocolError("stabilizer engine runs merged DEJMPS")
        return purify_recurrence_stabilizer(input_state, rounds, noise, samples, rng)
    raise ProtocolError(f"unknown engine {engine!r}")


# -- hashing ----------------------------------------------------------------


@dataclass
class HashingEnsemble:
    """N i.i.d. pairs with a common Bell-diagonal error distribution."""

    n_pairs: int
    pair_state: BellDiagonalState

    def __post_init__(self):
        if self.n_pairs < 2:
            raise ProtocolError("hashing needs at least two pairs")


@dataclass
class HashingRound:
    """One parity check: subset, type ('x' or 'z') and sacrificed pair."""

    subset: tuple[int, ...]
    kind: str
    target: int


def sample_hashing_rounds(n_pairs: int, checks: int, rng) -> list[HashingRound]:
    remaining = list(range(n_pairs))
    rounds = []
    for _ in range(checks):
        if len(remaining) < 2:
            raise ProtocolError("too many checks for the ensemble size")
        while True:
            mask = rng.integers(0, 2, size=len(remaining))
            if mask.any():
                break
        subset = tuple(remaining[k] for k in np.flatnonzero(mask))
        target = subset[int(rng.integers(0, len(subset)))]
        kind = "x" if rng.integers(0, 2) == 0 else "z"
        rounds.append(HashingRound(subset, kind, target))
        remaining.remove(target)
    return rounds


def _round_parity(rnd: HashingRound, x_bits: np.ndarray, z_bits: np.ndarray):
    sel = list(rnd.subset)
    if rnd.kind == "x":
        return x_bits[..., sel].sum(axis=-1) % 2
    return z_bits[..., sel].sum(axis=-1) % 2


def _ml_decode(n_pairs: int, weights: np.ndarray, rounds: list[HashingRound],
               parities: np.ndarray) -> tuple[np.ndarray, bool]:
    """Exact ML error-string decode by dynamic programming.

    State = partial parity vector over the checks; per pair, each of the
    four letters contributes its bits. Ties resolve toward the lower
    Bell index (identity first), deterministically.
    """
    checks = len(rounds)
    n_states = 1 << checks
    # contribution bit of letter l on pair j to check k
    contrib = np.zeros((n_pairs, 4), dtype=np.int64)
    for k, rnd in enumerate(rounds):
        for j in rnd.subset:
            for letter in range(4):
                x_bit = letter >> 1
                z_bit = letter & 1
                bit = x_bit if rnd.kind == "x" else z_bit
                if bit:
                    contrib[j, letter] ^= 1 << k
    logw = np.full(4, -1e30)  # effectively forbidden, avoids inf arithmetic
    nz = weights > 0
    logw[nz] = np.log(weights[nz])
    score = np.full(n_states, -1e30)
    score[0] = 0.0
    back = np.zeros((n_pairs, n_states), dtype=np.int8)
    tied = np.zeros((n_pairs, n_states), dtype=bool)
    states = np.arange(n_states)
    for j in range(n_pairs):
        cands = np.stack(
            [score[states ^ contrib[j, letter]] + logw[letter] for letter in range(4)]
        )
        best = cands.max(axis=0)
        near = np.abs(cands - best) < 1e-12
        back[j] = near.argmax(axis=0)  # lowest Bell index wins ties
        tied[j] = near.sum(axis=0) > 1
        score = best
    target = 0
    for k, b in enumerate(parities):
        if b:
            target |= 1 << k
    est = np.zeros(n_pairs, dtype=np.int64)
    state = target
    ambiguous = False
    for j in range(n_pairs - 1, -1, -1):
        letter = int(back[j, state])
        ambiguous = ambiguous or bool(tied[j, state])
        est[j] = letter
        state ^= int(contrib[j, letter])
    if state != 0:
        raise ProtocolError("hashing decoder backtrack failed")
    return est, ambiguous


def hashing_effective_state(ensemble: HashingEnsemble, noise: NoiseModel) -> BellDiagonalState:
    """Pair state after folding resource-input noise onto the ensemble."""
    dress_in, _dress_out = noise_stages(noise)
    return evaluate_stages(ensemble.pair_state, [dress_in])[0]


def purify_hashing(ensemble: HashingEnsemble, checks: int, noise: NoiseModel,
                   samples: int, rng) -> ProtocolStats:
    """Hashing in the classical error-string representation, exact ML decode.

    Random-subset bilateral-CNOT parities are measured on sacrificed
    pairs; resource noise enters as extra per-pair depolarization before
    (in-coupling) and after (output particles) the protocol.
    """
    if ensemble.n_pairs > 24:
        raise ProtocolError("exact ML decoding is limited to 24 pairs")
    dressed = hashing_effective_state(ensemble, noise)
    weights = dressed.as_array()
    out_w = noise_stages(noise)[1].index_weights()
    n = ensemble.n_pairs
    survivors_total = correct_total = 0
    all_correct = ambiguous_count = 0
    for _ in range(samples):
        rounds = sample_hashing_rounds(n, checks, rng)
        err = rng.choice(4, size=n, p=weights)
        x_bits = err >> 1
        z_bits = err & 1
        parities = np.array([_round_parity(r, x_bits, z_bits) for r in rounds])
        est, ambiguous = _ml_decode(n, weights, rounds, parities)
        ambiguous_count += ambiguous
        sacrificed = {r.target for r in rounds}
        keep = [j for j in range(n) if j not in sacrificed]
        residual = (err[keep] ^ est[keep])
        residual = residual ^ rng.choice(4, size=len(keep), p=out_w)
        ok = residual == 0
        survivors_total += len(keep)
        correct_total += int(ok.sum())
        # a run counts as fully successful only if unambiguous and clean
        all_correct += bool(ok.all()) and not ambiguous
    fid = correct_total / survivors_total if survivors_total else 0.0
    p_all = all_correct / samples if samples else 0.0
    return ProtocolStats(
        fidelity=fid,
        fidelity_ci=wilson_interval(correct_total, survivors_total),
        p_success=p_all,
        p_success_ci=wilson_interval(all_correct, samples),
        protocol_yield=(n - checks) / n,
        samples=samples,
        extra={"checks": checks, "ambiguous": ambiguous_count,
               "counts": {"correct": correct_total, "survivors": survivors_total,
                          "all_correct": all_correct, "attempts": samples,
                          "ambiguous": ambiguous_count}},
    )


# -- measurement-based QEC --------------------------------------------------


@dataclass
class QecResult:
    """Outcome of one QEC stage; the frame is never applied physically."""

    labels: tuple[str, ...]
    frame: PauliString
    syndrome: tuple[int, ...] | None = None
    uncorrectable: bool = False


_label_counter = [0]


def _fresh(prefix: str) -> str:
    _label_counter[0] += 1
    return f"{prefix}.{_label_counter[0]}"


def qec_encode(code: CodeSpec, host: LabeledRegister, in_label: str,
               noise: NoiseModel, rng, resource: ResourceSpec | None = None) -> QecResult:
    """Couple one qubit into the encoding resource by a Bell measurement."""
    spec = resource if resource is not None else code_encode(code)
    block = tuple(_fresh(f"{code.name}.b{k}") for k in range(code.n))
    r = teleport_in(spec, host, {"in": in_label}, noise=noise, rng=rng,
                    out_labels=block)
    return QecResult(labels=block, frame=r.frame)


def _push_through(spec: ResourceSpec, riding: PauliString) -> PauliString:
    """Conjugate an input-side Pauli to the resource's output side."""
    w = spec.n_wires
    embedded = riding.embed(w, list(spec.input_wires))
    return spec.circuit.conjugate(embedded).restrict(list(spec.output_wires))


def qec_correct(code: CodeSpec, host: LabeledRegister, block: tuple[str, ...],
                noise: NoiseModel, rng, frame: PauliString | None = None,
                resource: ResourceSpec | None = None) -> QecResult:
    """Teleport the block through the 2N syndrome/correction resource.

    The syndrome is reconstructed from the in-coupling Bell outcomes,
    de-rotated by the tracked frame, looked up in the code table, and
    the correction is folded into the new frame (never applied).
    """
    spec = resource if resource is not None else code_correct(code)
    frame = frame if frame is not None else PauliString.identity(code.n)
    dec_name = spec.inputs[0].split("/")[0]
    wiring = {f"{dec_name}/b{k}": block[k] for k in range(code.n)}
    new_block = tuple(_fresh(f"{code.name}.c{k}") for k in range(code.n))
    r = teleport_in(spec, host, wiring, noise=noise, rng=rng, out_labels=new_block)
    raw = r.info["syndrome"]
    frame_syn = code.syndrome_of(frame)
    syndrome = tuple(a ^ b for a, b in zip(raw, frame_syn))
    estimate = code.correction_for(syndrome)
    new_frame = r.frame * _push_through(spec, frame * estimate)
    return QecResult(
        labels=new_block,
        frame=new_frame.unsigned(),
        syndrome=syndrome,
        uncorrectable=not code.correctable(syndrome),
    )


def qec_decode(code: CodeSpec, host: LabeledRegister, block: tuple[str, ...],
               noise: NoiseModel, rng, frame: PauliString | None = None,
               resource: ResourceSpec | None = None) -> QecResult:
    """Bell-measure the whole block into the decode resource."""
    spec = resource if resource is not None else code_decode_syndrome(code)
    frame = frame if frame is not None else PauliString.identity(code.n)
    wiring = {f"b{k}": block[k] for k in range(code.n)}
    out = (_fresh(f"{code.name}.out"),)
    r = teleport_in(spec, host, wiring, noise=noise, rng=rng, out_labels=out)
    raw = r.info["syndrome"]
    frame_syn = code.syndrome_of(frame)
    syndrome = tuple(a ^ b for a, b in zip(raw, frame_syn))
    estimate = code.correction_for(syndrome)
    new_frame = r.frame * _push_through(spec, frame * estimate)
    return QecResult(
        labels=out,
        frame=new_frame.unsigned(),
        syndrome=syndrome,
        uncorrectable=not code.correctable(syndrome),
    )


# -- closed-form logical error ---------------------------------------------


def logical_error_rate(code: CodeSpec, p_tilde: float) -> float:
    """Closed-form logical noise parameter after one perfect correction.

    Ring-code (depolarizing): p_no^(L) >= p_no^5 + 5 p_no^4 p_yes with
    p_no = (3p+1)/4; repetition code (dephasing): majority vote binomial.
    The bound is used as the estimate, matching the threshold analysis.
    """
    if not 0.0 <= p_tilde <= 1.0:
        raise ProtocolError("noise parameter must lie in [0, 1]")
    if code.name.startswith("repetition"):
        m = code.n
        eps = 1.0 - p_tilde  # dephasing convention {I: p, Z: 1-p}
        logical_flip = sum(
            math.comb(m, k) * eps ** k * (1 - eps) ** (m - k)
            for k in range(m // 2 + 1, m + 1)
        )
        return 1.0 - logical_flip
    if code.name == "ring5":
        p_no = (3.0 * p_tilde + 1.0) / 4.0
        p_yes = 1.0 - p_no
        p_no_l = p_no ** 5 + 5.0 * p_no ** 4 * p_yes
        return (4.0 * p_no_l - 1.0) / 3.0
    raise ProtocolError(f"no logical error formula for code {code.name!r}")
