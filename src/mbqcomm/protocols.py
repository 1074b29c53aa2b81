"""Protocol layer: entanglement purification (recurrence and hashing),
measurement-based quantum error correction and entanglement swapping.

Each protocol is mirrored by the exact Bell-diagonal analytics, with a
fast index-sampling Monte Carlo beside them; the engines are tested
against each other. Recurrence purification also runs on the stabilizer
engine, as a batched Pauli-frame simulation of the two parties' noisy
site resources: each site's frame reader (`ResourceSpec.byproduct`)
takes its half of each attempt's error frame to its output letter and
its `syndrome`, and an attempt is kept iff the two sites' syndromes
agree. The tableau serves as the oracle that this reading is tested
against. A QEC shot runs on the tableau in one layout: a reference half
at qubit 0, and the block at qubits 1..n once `qec_encode` has
teleported the other half into the encoder, which starts the frame. A
station is one `teleport_in` of the block into its resource, whose
outputs take the block's place, and one `station_reading` of its Bell
outcomes through the same reader: the outcome codes, XOR the pending
frame, flip the code syndrome at the virtual bits that the resource's
`syndrome` names, which indexes the code's one lookup table
(`CodeSpec.decode`). So a
station is one table lookup, for one shot or many at once, and its
correction joins the new frame: corrections are deferred by
construction. The encoded shot (`netsim.encoded_shot`) strings the
stations together.

Recurrence purification and the nested repeater are written once, as a
list of stages, and run by two evaluators: `evaluate_stages` (exact,
on the Bell-diagonal maps) and `sample_stages` (Bell-index Monte
Carlo). The stage kinds are:

- `Depolarize(p)`: E(p) on both halves of each pair; the sampler
  composes each run of consecutive `Depolarize` stages into one
  Bell-index distribution;
- `Purify(depth, variant)`: one merged block of `depth` recurrence
  rounds on a tree of 2^depth pairs, kept only if every check in the
  tree passes; the outputs of a block are pooled for the next stage;
- `Swap`: entanglement swapping of the pairs of adjacent segments.

The sampler keeps each segment's pool as uint8 Bell indices. A run of
`Depolarize` stages at the head of the list is folded into the state the
pools are drawn from; a later run XORs one draw into every pool. Every
pool and every such draw comes from `rng.index_slices`, the package's
one loop of uint8 draws, one L2-sized slice of `rng._CHUNK` pairs at a
time. A recurrence round reduces a (source, target) pair through
16-entry keep and output tables looked up by the 4-bit code
(src << 2) | tgt; the sampler looks up up to 3 such rounds at once, in
a table over the packed leaves of a block. When the first stage after
the head run is a `Purify`, each pool is drawn in slices of whole
blocks and every slice is reduced as it is drawn, so the sampler holds
one slice plus the survivors, never a pool of raw pairs. The random
stream is the same as if every pool were drawn at once.

The sampler returns raw counts: `attempts`, `consumed` (elementary
pairs drawn over all segments), `kept` and `good` (kept output pairs in
|phi+>). Counts of runs add, and `stats_from_counts` turns them into
fidelity = good/kept, yield = kept/consumed and p_success = kept over
the consumed // pairs_per_output whole output slots. The exact
p_success that `evaluate_stages` reports is the product, over the
`Purify` stages, of the probability that one block passes all its
checks, and yield = p_success / pairs_per_output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import rng as streams
from .belldiag import (
    BellDiagonalState,
    apply_depolarizing,
    perfect_pair,
    recurrence_step,
    recurrence_table,
    swap_pairs,
)
from .catalog import epp_site_resource
from .codes import CodeSpec
from .noise import NoiseModel, PauliChannel
from .resources import ResourceSpec, teleport_in
from .rng import draw_indices, index_slices
from .tableau import StabilizerState


class ProtocolError(ValueError):
    """Raised for invalid protocol configurations."""


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.96  # two-sided 95% normal quantile
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

    fidelity: float | None
    fidelity_ci: tuple[float, float] | tuple[None, None]
    p_success: float
    protocol_yield: float
    samples: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in (self.fidelity, self.p_success, self.protocol_yield):
            if v is not None and not -1e-9 <= v <= 1 + 1e-9:
                raise ProtocolError("estimates must lie in [0, 1]")


# -- stage lists ------------------------------------------------------------


@dataclass(frozen=True)
class Depolarize:
    """E(p) on both halves of every pair.

    The two one-sided maps compose to E(p^2) on one half. The sampler
    composes a run of such stages with `evaluate_stages`, so a run costs
    it one Bell-index draw, or none at the head of a stage list.
    """

    p: float


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
            state = apply_depolarizing(apply_depolarizing(state, stage.p), stage.p)
        elif isinstance(stage, Purify):
            for r in range(stage.depth):
                state, s = recurrence_step(state, state, stage.variant)
                p_success *= s ** (1 << (stage.depth - 1 - r))
        else:
            state = swap_pairs(state, state)
    return state, p_success


_FAILED = 4  # tree-table entry of a block in which a check fails
# Per tree depth d <= 3: the little-endian word that holds a block's 2^d
# uint8 leaves, and the (shift, mask) steps that gather its 2-bit leaves
# into the low bits in bit-reversed order (0, 4, 2, 6, 1, 5, 3, 7 at d = 3).
_PACKING = {
    0: ("<i1", ()),
    1: ("<i2", ((6, 0xF),)),
    2: ("<i4", ((14, 0x0F0F), (4, 0xFF))),
    3: ("<i8", ((30, 0x0F0F0F0F), (12, 0xFFFF))),
}


@lru_cache(maxsize=None)
def _tree_table(variant: str, depth: int) -> np.ndarray:
    """Output Bell index of a block of `depth` <= 3 rounds, or 4 if a check fails.

    Indexed by the block's leaves packed as `_pack_leaves` packs them.
    In bit-reversed order the last round's source subtree holds the low
    half of the code and its target subtree the high half, so each depth
    is one round of `belldiag.recurrence_table` over two lookups of the
    depth below. That table maps each pair of Bell indices to one output
    index, which holds for DEJMPS; BBPSSW's twirls map an index to a
    distribution, so `sample_stages` refuses it.
    """
    if depth == 0:
        return np.arange(4, dtype=np.uint8)
    keep_t, out_t = recurrence_table(variant.upper())
    round_t = np.full((5, 5), _FAILED, dtype=np.uint8)  # [source, target]
    round_t[:4, :4] = np.where(keep_t, out_t, _FAILED).reshape(4, 4)
    sub = _tree_table(variant, depth - 1)
    return round_t[sub[None, :], sub[:, None]].ravel()


def _pack_leaves(leaves: np.ndarray) -> np.ndarray:
    """Tree-table codes of the last axis of a C-contiguous uint8 array of leaves."""
    word_type, steps = _PACKING[leaves.shape[-1].bit_length() - 1]
    word = leaves.view(word_type)[..., 0]
    for shift, mask in steps:
        word = word | word >> shift
        word &= mask
    return word


def _purify_rows(idx: np.ndarray, variant: str) -> np.ndarray:
    """Outputs of the rows of `idx`, one block each, that pass every check.

    Up to 3 rounds are one `_tree_table` lookup. A deeper block takes 3
    rounds at a time: leaf k of intermediate output j sits in column
    k * width/8 + j. A failed entry (4) is carried as it is: it garbles
    only its own row's next code, which the masks keep inside the table,
    and that row is dropped at the end.
    """
    failed = np.zeros(idx.shape[0], dtype=np.uint8)
    while True:
        depth = min(3, idx.shape[1].bit_length() - 1)
        rest = idx.shape[1] >> depth
        leaves = np.ascontiguousarray(idx.reshape(-1, 1 << depth, rest).transpose(0, 2, 1))
        out = _tree_table(variant, depth)[_pack_leaves(leaves)]
        if rest == 1:
            out = out[:, 0] | failed
            return out[out < _FAILED]
        failed |= np.bitwise_or.reduce(out, axis=1) & _FAILED
        idx = out


def _purify_blocks(slices, stage: Purify) -> np.ndarray:
    """Outputs of the blocks of 2^depth consecutive pairs that pass every check.

    `slices` yields a pool in order, as uint8 arrays of whole blocks; the
    last may end in a partial block, which is dropped. Each round pairs
    the first half of every block (sources) with the second (targets)
    and reduces them through the 16-entry tables of
    `belldiag.recurrence_table`;
    `_tree_table` holds up to 3 such rounds at once, so a block costs one
    lookup per 3 rounds. Only the survivors of each slice are kept, so a
    pool that is drawn slice by slice never exists as one array.
    """
    width = 1 << stage.depth
    kept = [_purify_rows(part[:part.size - part.size % width].reshape(-1, width),
                         stage.variant)
            for part in slices if part.size >= width]
    return np.concatenate(kept) if kept else np.zeros(0, dtype=np.uint8)


def _chunk_pairs(stage: Purify) -> int:
    """Pairs per slice of a pool that `stage` reduces: one `rng._CHUNK`
    slice (2^16 pairs, a multiple of any narrower block), or one block
    if it is wider."""
    return max(streams._CHUNK, 1 << stage.depth)


def _xor_draws(pool: np.ndarray, weights, rng) -> None:
    """pool ^= draw_indices(rng, weights, pool.size), one `index_slices`
    slice at a time.

    `weights` is the Bell-index distribution of one whole `Depolarize`
    run applied to |phi+>. The doubles are drawn in the same order as by
    one call, so the stream and the result are those of the one-shot
    XOR, without a second pool-sized array.
    """
    step = streams._CHUNK
    for start, idx in zip(range(0, pool.size, step), index_slices(rng, weights, pool.size, step)):
        pool[start:start + idx.size] ^= idx


def sample_stages(state: BellDiagonalState, stages, attempts: int, rng,
                  pairs_per_attempt: int = 1) -> dict:
    """Bell-index Monte Carlo of a stage list; returns raw counts.

    Each run of consecutive `Depolarize` stages is one Bell-index
    distribution, composed by `evaluate_stages`. A run at the head of
    the list is composed into `state`, and each segment (2^(number of
    swaps) of them) starts from a pool of attempts * pairs_per_attempt
    Bell indices drawn from the result, held as uint8. A later run XORs
    one draw from the run applied to |phi+> into every pool, slice by
    slice. A `Purify` stage reduces every block through one tree-table
    lookup per 3 rounds (`_purify_blocks`), slice by slice. Survivors of
    a block are pooled for the next stage; swapping pairs up the pools of
    adjacent segments, truncated to the shorter one.

    When the first step after the head run is a `Purify` stage, each
    pool goes into it slice by slice as `index_slices` draws it into one
    set of buffers, so memory is one slice (`_chunk_pairs`: 2^16 pairs,
    whose doubles, mask and indices fit a core's L2, or one block if
    wider) plus the survivors, whatever the number of attempts.
    Otherwise a pool is drawn as one array.

    The random stream is a function of the stage list and the pool sizes
    only: every pool, segment by segment, then one draw per later
    `Depolarize` run in stage order, one double per pair, whatever the
    slicing; the pairs of a partial block are drawn and dropped. The
    counts at a seed are pinned by the tests. A BBPSSW `Purify` stage,
    whose round is no map of Bell indices, and attempts that fill no
    output slot of `pairs_per_output` elementary pairs raise
    `ProtocolError` before any draw.
    """
    for stage in stages:
        if isinstance(stage, Purify) and stage.variant.upper() == "BBPSSW":
            raise ProtocolError(
                f"index sampling needs an index-deterministic map; {stage.variant} is not")
    segments = 1 << sum(isinstance(stage, Swap) for stage in stages)
    size = attempts * pairs_per_attempt
    per_output = pairs_per_output(stages)
    if segments * size < per_output:
        raise ProtocolError(
            f"{attempts} samples{' per segment' if segments > 1 else ''} fill no output "
            f"slot of {per_output} elementary pairs; need at least "
            f"{-(-per_output // (segments * pairs_per_attempt))}")
    steps = []  # the stages, with each run of `Depolarize` stages as one list
    for noisy, run in groupby(stages, lambda stage: isinstance(stage, Depolarize)):
        steps += [list(run)] if noisy else list(run)
    if steps and isinstance(steps[0], list):
        state = evaluate_stages(state, steps.pop(0))[0]
    w = state.as_array()
    if steps and isinstance(steps[0], Purify):
        stage = steps.pop(0)
        pools = [_purify_blocks(index_slices(rng, w, size, _chunk_pairs(stage)), stage)
                 for _ in range(segments)]
    else:
        pools = [draw_indices(rng, w, size) for _ in range(segments)]
    for stage in steps:
        if isinstance(stage, list):
            w = evaluate_stages(perfect_pair(), stage)[0].as_array()
            for pool in pools:
                _xor_draws(pool, w, rng)
        elif isinstance(stage, Purify):
            step = _chunk_pairs(stage)
            pools = [_purify_blocks((pool[start:start + step]
                                     for start in range(0, pool.size, step)), stage)
                     for pool in pools]
        else:
            joined = []
            for a, b in zip(pools[0::2], pools[1::2]):
                m = min(a.size, b.size)
                joined.append(a[:m] ^ b[:m])
            pools = joined
    final = pools[0]
    return {"attempts": attempts, "consumed": segments * size,
            "kept": int(final.size), "good": int((final == 0).sum())}


def point_stats(fidelity: float, p_success: float = 1.0, protocol_yield: float = 1.0,
                **extra) -> ProtocolStats:
    """Stats of an exact evaluation: the intervals collapse to the values."""
    return ProtocolStats(fidelity, (fidelity, fidelity), p_success, protocol_yield, 0,
                         extra=extra)


def exact_stats(state: BellDiagonalState, stages, rounds: int) -> ProtocolStats:
    """Reported numbers of `evaluate_stages`, with yield = p_success /
    pairs_per_output; a count over a float's 2^1023 raises first."""
    per_output = pairs_per_output(stages)
    if per_output > 1 << 1023:
        raise ProtocolError(f"rounds {rounds}: an output pair would take "
                            f"2^{per_output.bit_length() - 1} elementary pairs; "
                            "the exact engines hold at most 2^1023")
    state, success = evaluate_stages(state, stages)
    return point_stats(state.fidelity, success, success / per_output)


def stats_from_counts(counts: dict, per_output: int) -> ProtocolStats:
    """Reported numbers of one run or of the summed counts of runs.

    With `per_output` elementary pairs behind each output pair, the
    consumed // per_output whole output slots (at least one: the
    sampler fills one or stops) are the trials of p_success = kept /
    slots; fidelity = good/kept and yield = kept/consumed. With no kept
    pair the fidelity and its interval are None.
    """
    kept, good, consumed = counts["kept"], counts["good"], counts["consumed"]
    slots = consumed // per_output
    return ProtocolStats(
        fidelity=good / kept if kept else None,
        fidelity_ci=wilson_interval(good, kept) if kept else (None, None),
        p_success=kept / slots,
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
    """Exact composition of the recurrence and noise maps under the error
    model: `evaluate_stages` on the stages of `purify_stages`."""
    return exact_stats(input_state, purify_stages(rounds, noise, mode, variant), rounds)


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


def _letters(rng, weights, width: int, samples: int) -> np.ndarray:
    """width x samples i.i.d. letter codes drawn from `weights`, as uint8."""
    return draw_indices(rng, weights, width * samples).reshape(width, samples)


# a site's frame table holds 2^(2 rounds + 2) letters: at 12 rounds both sites
# are set up in 3-4 s (a 2-CPU host) and a 200-sample run peaks near 400 MiB;
# each round multiplies the time by about 3.3 and the memory by about 2.6
_STABILIZER_ROUNDS = 12


def purify_recurrence_stabilizer(input_state: BellDiagonalState, rounds: int,
                                 noise: NoiseModel, samples: int, rng) -> ProtocolStats:
    """Batched Pauli-frame simulation of the two site resources (merged,
    DEJMPS).

    Everything is Clifford with Pauli noise, so an attempt is an error
    frame in and a kept flag and Bell index out (Gidney, Quantum 5, 497
    (2021)). All attempts are drawn at once: one E(q^2 p) letter per
    input slot (the in-coupling dressing of `noise_stages`), 2^m slots
    into site A and then 2^m into site B, with the input pairs' Bell
    indices on B's slots, and one E(p) letter per site output. Each
    site's `ResourceSpec.byproduct` reads its input letters: an attempt is
    kept iff the two sites' `syndrome` readouts agree bit for bit, and
    the kept pair's Bell index is the XOR of the two output letters. No
    tableau runs per attempt.
    """
    if samples < 1:
        raise ProtocolError(f"samples must be at least 1, got {samples}")
    if rounds > _STABILIZER_ROUNDS:
        raise ProtocolError(f"rounds {rounds}: the stabilizer engine runs at most "
                            f"{_STABILIZER_ROUNDS} (each site's frame table holds "
                            "2^(2 rounds + 2) letters)")
    site_a, site_b = epp_site_resource(rounds, "A"), epp_site_resource(rounds, "B")
    n_pairs = 1 << rounds
    dress_in, dress_out = noise_stages(noise)
    in_codes = _letters(rng, PauliChannel.depolarizing(dress_in.p).weights,
                        2 * n_pairs, samples)
    in_codes[n_pairs:] ^= _letters(rng, input_state.as_array(), n_pairs, samples)
    out_codes = _letters(rng, PauliChannel.depolarizing(dress_out.p).weights, 2, samples)
    out_a, read_a = site_a.byproduct(in_codes[:n_pairs])
    out_b, read_b = site_b.byproduct(in_codes[n_pairs:])
    keep = (read_a == read_b).all(axis=0)
    index = out_a[0] ^ out_b[0] ^ out_codes[0] ^ out_codes[1]
    counts = {"attempts": samples, "consumed": samples * n_pairs,
              "kept": int(keep.sum()), "good": int((keep & (index == 0)).sum())}
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


def _check_network(n_pairs: int, checks: int, rng) -> tuple[np.ndarray, list[int]]:
    """A random network of `checks` parity checks on `n_pairs` pairs: its
    flip table and its sacrificed pairs, in check order.

    Check k reads the x bits or the z bits of a random nonempty subset of
    the pairs not yet sacrificed, and sacrifices one pair of that subset.
    `flips[j, c]` has bit k set where letter c (code 2x + z) on pair j
    flips check k, so an error string `err` has the syndrome
    XOR_j flips[j, err[j]]. The table is the one place that says which
    letters a check reads.
    """
    flips = np.zeros((n_pairs, 4), dtype=np.int64)
    remaining = list(range(n_pairs))
    sacrificed = []
    for k in range(checks):
        while True:
            mask = rng.integers(0, 2, size=len(remaining))
            if mask.any():
                break
        subset = [remaining[i] for i in np.flatnonzero(mask)]
        target = subset[int(rng.integers(0, len(subset)))]
        bit = 1 if rng.integers(0, 2) == 0 else 0  # the x bit, else the z bit
        flips[subset] |= ((np.arange(4) >> bit) & 1) << k
        remaining.remove(target)
        sacrificed.append(target)
    return flips, sacrificed


_ML_TABLE_CAP = 1 << 20  # pairs * 2^checks entries of `_ml_decode`'s tables


def _ml_decode(weights: np.ndarray, flips: np.ndarray, checks: int,
               syndrome: int) -> tuple[np.ndarray, bool]:
    """The most likely error string of i.i.d. letter `weights` with the
    given syndrome under the flip table `flips`, and whether another
    string is as likely.

    A dynamic programme over the partial syndrome: pair j moves each
    state s to s ^ flips[j, c] for all four letters c at once. Ties
    within 1e-12 in log weight resolve toward the lower letter code,
    from the last pair down, so the estimate is deterministic. Its
    back-pointer tables hold pairs * 2^checks entries, which
    `purify_hashing` keeps within `_ML_TABLE_CAP`.
    """
    logw = np.full(4, -1e30)  # effectively forbidden, avoids inf arithmetic
    nz = weights > 0
    logw[nz] = np.log(weights[nz])
    states = np.arange(1 << checks)
    score = np.full(states.size, -1e30)
    score[0] = 0.0
    back = np.empty((len(flips), states.size), dtype=np.int8)
    tied = np.empty((len(flips), states.size), dtype=bool)
    for j, row in enumerate(flips):
        cands = score[states ^ row[:, None]] + logw[:, None]
        score = cands.max(axis=0)
        near = np.abs(cands - score) < 1e-12
        back[j] = near.argmax(axis=0)  # lowest letter code wins ties
        tied[j] = near.sum(axis=0) > 1
    est = np.zeros(len(flips), dtype=np.int64)
    state, ambiguous = syndrome, False
    for j in range(len(flips) - 1, -1, -1):
        est[j] = back[j, state]
        ambiguous = ambiguous or bool(tied[j, state])
        state ^= int(flips[j, est[j]])
    if state != 0:
        raise ProtocolError("hashing decoder backtrack failed")
    return est, ambiguous


def purify_hashing(pair_state: BellDiagonalState, n_pairs: int, checks: int,
                   noise: NoiseModel, samples: int, rng) -> ProtocolStats:
    """Hashing of `n_pairs` i.i.d. pairs in the classical error-string
    representation, with an exact ML decode.

    Each sample draws a check network (`_check_network`), then the
    pairs' letters, reads their syndrome from the network's flip table
    and decodes it on the same table (`_ml_decode`). The checks read the
    input error string: the back-action of the bilateral CNOTs on the
    other pairs is not modelled. Resource noise enters as extra per-pair
    depolarization before (in-coupling) and after (output particles) the
    protocol. A sample succeeds when every kept pair is clean, whether
    or not its decode tied; `report` counts the ambiguous decodes.
    """
    if samples < 1:
        raise ProtocolError(f"samples must be at least 1, got {samples}")
    if n_pairs < 2:
        raise ProtocolError("hashing needs at least two pairs")
    if n_pairs > 24:
        raise ProtocolError("exact ML decoding is limited to 24 pairs")
    if checks < 0:
        raise ProtocolError(f"checks must be at least 0, got {checks}")
    if checks > n_pairs - 1:
        raise ProtocolError(f"too many checks for the ensemble size: {n_pairs} pairs "
                            f"take at most {n_pairs - 1}, got {checks}")
    if n_pairs << checks > _ML_TABLE_CAP:
        raise ProtocolError(f"the ML decoder's table of {n_pairs} pairs x {1 << checks} "
                            f"states exceeds its cap of {_ML_TABLE_CAP} entries")
    dress_in, dress_out = noise_stages(noise)
    weights = evaluate_stages(pair_state, [dress_in])[0].as_array()
    out_w = evaluate_stages(perfect_pair(), [dress_out])[0].as_array()
    survivors = samples * (n_pairs - checks)
    correct_total = all_correct = ambiguous_count = 0
    for _ in range(samples):
        flips, sacrificed = _check_network(n_pairs, checks, rng)
        err = draw_indices(rng, weights, n_pairs)
        syndrome = int(np.bitwise_xor.reduce(flips[np.arange(n_pairs), err]))
        est, ambiguous = _ml_decode(weights, flips, checks, syndrome)
        keep = np.delete(np.arange(n_pairs), sacrificed)
        ok = err[keep] ^ est[keep] ^ draw_indices(rng, out_w, keep.size) == 0
        ambiguous_count += ambiguous
        correct_total += int(ok.sum())
        all_correct += bool(ok.all())
    return ProtocolStats(
        fidelity=correct_total / survivors,
        fidelity_ci=wilson_interval(correct_total, survivors),
        p_success=all_correct / samples,
        protocol_yield=(n_pairs - checks) / n_pairs,
        samples=samples,
        extra={"counts": {"correct": correct_total, "survivors": survivors,
                          "all_correct": all_correct, "attempts": samples},
               "report": {"ambiguous_decodes": ambiguous_count}},
    )


# -- measurement-based QEC --------------------------------------------------


def qec_encode(state: StabilizerState, qubit: int, noise: NoiseModel, rng,
               resource: ResourceSpec) -> tuple[StabilizerState, np.ndarray]:
    """Couple `qubit` of `state` into the encoding resource by a Bell
    measurement. Returns the new state, whose block follows the other
    qubits (`teleport_in`), and the frame it carries, as letter codes."""
    state, codes = teleport_in(resource, state, [qubit], noise, rng)
    return state, resource.byproduct(codes)[0]


def station_reading(code: CodeSpec, spec: ResourceSpec,
                    codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Syndrome bits, correctable flag and new frame of a station whose
    inputs carry the letter `codes`: its Bell outcomes XOR the frame
    still pending on the block, one per input on the first axis, for one
    shot or, on a second axis, for many.

    A station is one lookup in the code's syndrome table: the syndrome
    is the bits that `codes` flip (`spec.byproduct`), so the pending
    frame's own syndrome is XORed out. Its lookup correction joins
    `codes`, and the output codes of the sum are the new frame: the
    correction is deferred into the frame, never applied.
    """
    syndrome = spec.byproduct(codes)[1]
    estimate, correctable = code.decode(syndrome)
    return syndrome, correctable, spec.byproduct(codes ^ estimate)[0]
