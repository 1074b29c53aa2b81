"""Tests for the stage-list evaluators of recurrence purification and
the nested repeater: frozen exact values, Monte Carlo against exact,
and summed counts of runs; and for hashing: its check networks, its
decoder against brute force, and its runs without checks against the
exact maps."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mbqcomm import protocols
from mbqcomm import rng as streams
from mbqcomm.belldiag import perfect_pair, werner
from mbqcomm.netsim import ChainConfig, elementary_pair, repeater_chain, repeater_stages
from mbqcomm.noise import NoiseModel
from mbqcomm.pauli import PauliString
from mbqcomm.protocols import (
    Depolarize,
    ProtocolError,
    Purify,
    Swap,
    _check_network,
    _ml_decode,
    _pack_leaves,
    _purify_blocks,
    _tree_table,
    _xor_draws,
    evaluate_stages,
    noise_stages,
    pairs_per_output,
    purify_hashing,
    purify_recurrence,
    purify_recurrence_mc,
    purify_stages,
    sample_stages,
    stats_from_counts,
)
from mbqcomm.rng import _CHUNK, draw_indices, make_rng
from mbqcomm.tableau import StabilizerState
import oracles
from oracles import validate_tableau

PURIFY_NOISE = NoiseModel(0.97, 0.97, 1.0)
REPEATER_NOISE = NoiseModel(0.99, 0.99, 0.95)

# (mode, variant, rounds): (fidelity, p_success) at F = 0.8, p = q = 0.97
PURIFY_EXACT = {
    ("merged", "DEJMPS", 1): (0.7149610826238216, 0.6865665015121069),
    ("merged", "DEJMPS", 2): (0.8203693219199483, 0.3053008994722206),
    ("merged", "DEJMPS", 3): (0.9009175391123873, 0.07257964487452916),
    ("merged", "BBPSSW", 1): (0.7149610826238216, 0.6865665015121065),
    ("merged", "BBPSSW", 2): (0.7509648408687383, 0.3380064120919631),
    ("merged", "BBPSSW", 3): (0.7873525371001802, 0.08591305678710666),
    ("stepwise", "DEJMPS", 1): (0.7149610826238216, 0.6865665015121069),
    ("stepwise", "DEJMPS", 2): (0.6708192600847906, 0.4055652391978631),
    ("stepwise", "DEJMPS", 3): (0.6173695068939881, 0.23427302813728107),
    ("stepwise", "BBPSSW", 1): (0.7149610826238216, 0.6865665015121065),
    ("stepwise", "BBPSSW", 2): (0.6398797692302549, 0.4348260326837105),
    ("stepwise", "BBPSSW", 3): (0.5701084446908916, 0.25817780794433653),
}

# (segments, rounds): (fidelity, p_success) at q_channel 0.95, p = q = 0.99
REPEATER_EXACT = {
    (2, 1): (0.9002846590211704, 0.6191496764239542),
    (2, 2): (0.9803430476711851, 0.4721545705523548),
    (4, 1): (0.8787283940246107, 0.4488779550348762),
    (4, 2): (0.9825029877835803, 0.38101225295662866),
    (8, 1): (0.8349326835321282, 0.3141110128620491),
    (8, 2): (0.9828436542601899, 0.31274145281805543),
}


def _z(estimate: float, exact: float, trials: int) -> float:
    """Distance in standard errors of a binomial proportion."""
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
    return abs(estimate - exact) / se


@pytest.mark.parametrize("key", sorted(PURIFY_EXACT))
def test_purify_exact_values_frozen(key):
    mode, variant, rounds = key
    s = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode=mode,
                          engine="analytic", variant=variant)
    fidelity, p_success = PURIFY_EXACT[key]
    assert abs(s.fidelity - fidelity) < 1e-12
    assert abs(s.p_success - p_success) < 1e-12
    assert abs(s.protocol_yield - p_success / 2 ** rounds) < 1e-15


@pytest.mark.parametrize("key", sorted(REPEATER_EXACT))
def test_repeater_exact_values_frozen(key):
    segments, rounds = key
    cfg = ChainConfig(segments=segments, noise=REPEATER_NOISE, purify_rounds=rounds)
    r = repeater_chain(cfg, mode="analytic")
    fidelity, p_success = REPEATER_EXACT[key]
    assert abs(r.fidelity - fidelity) < 1e-12
    assert abs(r.p_success - p_success) < 1e-12


@pytest.mark.parametrize("mode", ["merged", "stepwise"])
@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_purify_mc_matches_exact(mode, rounds):
    fidelity, p_success = PURIFY_EXACT[(mode, "DEJMPS", rounds)]
    s = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode=mode,
                          samples=200_000, rng=make_rng(7), engine="mc")
    counts = s.extra["counts"]
    assert s.samples == 200_000
    assert _z(s.fidelity, fidelity, counts["kept"]) < 4
    assert _z(s.p_success, p_success, counts["consumed"] >> rounds) < 4


@pytest.mark.parametrize("key", sorted(REPEATER_EXACT))
def test_repeater_mc_matches_exact(key):
    segments, rounds = key
    fidelity, p_success = REPEATER_EXACT[key]
    cfg = ChainConfig(segments=segments, noise=REPEATER_NOISE, purify_rounds=rounds,
                      samples=1 << 18)
    r = repeater_chain(cfg, make_rng(11), mode="mc")
    slots = cfg.samples >> (rounds * (segments.bit_length()))
    assert r.extra["delivered"] == round(r.p_success * slots)
    assert _z(r.fidelity, fidelity, r.extra["delivered"]) < 4
    assert _z(r.p_success, p_success, slots) < 4


def test_summed_shard_counts_keep_p_success():
    n, rounds = 200_000, 2
    exact = PURIFY_EXACT[("stepwise", "DEJMPS", rounds)][1]
    whole = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode="stepwise",
                              samples=n, rng=make_rng(3), engine="mc")
    summed = Counter()
    for seed, size in ((4, n // 2), (5, n - n // 2)):
        part = purify_recurrence(werner(0.8), rounds, PURIFY_NOISE, mode="stepwise",
                                 samples=size, rng=make_rng(seed), engine="mc")
        summed.update(part.extra["counts"])
    merged = stats_from_counts(dict(summed), 1 << rounds)
    assert merged.samples == n
    assert _z(merged.p_success, exact, n >> rounds) < 4
    assert _z(whole.p_success, exact, n >> rounds) < 4
    assert abs(merged.p_success - whole.p_success) < 4 * math.sqrt(
        2 * exact * (1 - exact) / (n >> rounds))


def test_p_success_counts_whole_output_slots():
    # 101 pairs in slots of 4 pairs: the 25 whole slots are the trials of
    # p_success, and 3 pairs fill none
    counts = {"attempts": 101, "consumed": 101, "kept": 25, "good": 25}
    stats = stats_from_counts(counts, 4)
    assert stats.p_success == 1.0
    assert stats.protocol_yield == 25 / 101
    assert stats_from_counts(dict(counts, kept=24, good=24, consumed=100), 4).p_success == 24 / 25
    with pytest.raises(ProtocolError, match="3 samples fill no output slot of 4 elementary"):
        sample_stages(werner(0.8), purify_stages(2, PURIFY_NOISE, "stepwise"), 3, make_rng(1))


# Raw sampler counts at seed 1. The stream is one double per pair for
# each pool draw (a leading `Depolarize` run folded into the pool's
# state), plus one double per pair for each later `Depolarize` run; a
# sampler that consumes it otherwise moves these counts.
# merged: the purify-mc bench command (3 rounds, 1M attempts);
# repeater: the repeater-mc bench command (8 segments, 2 rounds, 2^20 pairs)
STREAM_COUNTS = {
    "merged": (1_000_000, 8_000_000, 72_821, 65_523),
    "stepwise": (1_000_000, 1_000_000, 101_040, 67_818),
    "repeater": (1 << 20, 8 << 20, 1_241, 1_212),
}


@pytest.mark.parametrize("case", sorted(STREAM_COUNTS))
def test_sampler_counts_pin_the_stream(case):
    if case == "repeater":
        dress_in, dress_out = noise_stages(REPEATER_NOISE)
        stages = repeater_stages(dress_in, 2, 3) + [dress_out]
        counts = sample_stages(elementary_pair(0.95), stages, 1 << 20, make_rng(1))
    else:
        rounds = 3 if case == "merged" else 2
        per_attempt = 1 << rounds if case == "merged" else 1
        counts = sample_stages(werner(0.8), purify_stages(rounds, PURIFY_NOISE, case),
                               1_000_000, make_rng(1), per_attempt)
    assert tuple(counts[k] for k in ("attempts", "consumed", "kept", "good")) == \
        STREAM_COUNTS[case]


# -- oracle: the recurrence rounds of a block, applied one at a time

# DEJMPS's round is symmetric in (source, target); this made-up round is
# not, so it tells the source half of a block from the target half.
MADE_UP_ROUND = (np.random.default_rng(11).random(16) < 0.8,
                 np.random.default_rng(12).integers(0, 4, 16).astype(np.uint8))


@pytest.fixture(params=["DEJMPS", "made-up"])
def variant(request, monkeypatch):
    if request.param == "made-up":
        real = protocols.recurrence_table
        monkeypatch.setattr(protocols, "recurrence_table",
                            lambda v: MADE_UP_ROUND if v == "MADE-UP" else real(v))
        request.addfinalizer(protocols._tree_table.cache_clear)
    return request.param


def per_round_outputs(blocks: np.ndarray, variant: str) -> np.ndarray:
    """Output index of each row of leaves, or 4 where a check in its tree fails."""
    keep_t, out_t = protocols.recurrence_table(variant.upper())
    idx, alive = blocks, np.ones(blocks.shape[0], dtype=bool)
    while idx.shape[1] > 1:
        half = idx.shape[1] // 2
        code = idx[:, :half] << 2 | idx[:, half:]
        alive &= keep_t[code].all(axis=1)
        idx = out_t[code]
    return np.where(alive, idx[:, 0], 4).astype(np.uint8)


def per_round_blocks(pool: np.ndarray, depth: int, variant: str) -> np.ndarray:
    """Outputs of the blocks of 2^depth consecutive pairs that pass every check."""
    blocks = pool[:pool.size >> depth << depth].reshape(-1, 1 << depth)
    out = per_round_outputs(blocks, variant)
    return out[out < 4]


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_tree_table_equals_per_round_oracle_on_every_leaf_code(depth, variant):
    n = 1 << depth
    codes = np.arange(4 ** n)
    leaves = np.stack([codes >> 2 * k & 3 for k in range(n)], axis=1).astype(np.uint8)
    packed = _pack_leaves(leaves)
    assert np.array_equal(np.sort(packed), codes)  # every table entry is reached
    assert np.array_equal(_tree_table(variant, depth)[packed],
                          per_round_outputs(leaves, variant))


@pytest.mark.parametrize("fidelity", [0.7, 0.97])
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5, 6])
def test_purify_blocks_equals_per_round_oracle(depth, fidelity, variant):
    block = 1 << depth
    sizes = [0, block - 1, 5 * block + block // 2, _CHUNK - block, _CHUNK,
             _CHUNK + block, 2 * _CHUNK + 3 * block + 1]
    weights = werner(fidelity).as_array()
    for size in sizes:
        pool = draw_indices(make_rng(size << 3 | depth), weights, size)
        step = max(_CHUNK, block)
        got = _purify_blocks((pool[s:s + step] for s in range(0, size, step)),
                             Purify(depth, variant))
        assert got.dtype == np.uint8
        assert np.array_equal(got, per_round_blocks(pool, depth, variant)), size


# one slice, broken and whole, and many slices
@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 4 * _CHUNK - 1,
                                  4 * _CHUNK, 4 * _CHUNK + 1, 8 * _CHUNK + 5])
def test_chunked_xor_equals_one_shot_xor(size):
    weights = evaluate_stages(perfect_pair(), [Depolarize(0.9)])[0].as_array()
    pool = draw_indices(make_rng(2), werner(0.8).as_array(), size)
    ours, ref = make_rng(9), make_rng(9)
    expected = pool ^ draw_indices(ref, weights, size)
    _xor_draws(pool, weights, ours)
    assert np.array_equal(pool, expected)
    assert ours.random() == ref.random()  # both streams consumed alike


# -- oracle: every pool drawn as one array

def whole_pool_outputs(state, stages, size, rng):
    """The pools that each `Purify` stage leaves, in stage order, and the
    final pool, with every pool drawn as one array, each `Depolarize` run
    after the head XORed in as one draw, and each block reduced by
    `per_round_blocks`."""
    segments = 1 << sum(isinstance(stage, Swap) for stage in stages)
    steps = [(noisy, list(run)) for noisy, run in
             itertools.groupby(stages, lambda stage: isinstance(stage, Depolarize))]
    if steps and steps[0][0]:
        state = evaluate_stages(state, steps.pop(0)[1])[0]
    pools = [draw_indices(rng, state.as_array(), size) for _ in range(segments)]
    outputs = []
    for noisy, run in steps:
        if noisy:
            w = evaluate_stages(perfect_pair(), run)[0].as_array()
            pools = [pool ^ draw_indices(rng, w, pool.size) for pool in pools]
            continue
        for stage in run:
            if isinstance(stage, Purify):
                pools = [per_round_blocks(pool, stage.depth, stage.variant) for pool in pools]
                outputs.append(pools)
            else:
                pools = [a[:min(a.size, b.size)] ^ b[:min(a.size, b.size)]
                         for a, b in zip(pools[0::2], pools[1::2])]
    return outputs, pools[0]


def streamed_stage_lists(variant):
    dress_in, dress_out = noise_stages(PURIFY_NOISE)
    lists = {f"merged-{depth}": [dress_in, Purify(depth, variant), dress_out]
             for depth in range(7)}
    lists["stepwise"] = [dress_in, Purify(1, variant), dress_out] * 3
    for rounds, levels in ((2, 2), (1, 3)):  # 4 and 8 segments
        level = [dress_in, Purify(rounds, variant)]
        lists[f"repeater-{1 << levels}"] = level + [Swap(), *level] * levels + [dress_out]
    return lists


@pytest.mark.parametrize("chunk", ["default", 8])
@pytest.mark.parametrize("case", sorted(streamed_stage_lists("DEJMPS")))
def test_streamed_first_purify_equals_whole_pool_oracle(case, chunk, variant, monkeypatch):
    # slices of 8 make every block of depth 4 or more wider than a slice
    if chunk != "default":
        monkeypatch.setattr(streams, "_CHUNK", chunk)
    stages = streamed_stage_lists(variant)[case]
    segments = 1 << sum(isinstance(stage, Swap) for stage in stages)
    block = 1 << next(stage.depth for stage in stages if isinstance(stage, Purify))
    step = max(streams._CHUNK, block)
    least = -(-pairs_per_output(stages) // segments)  # one output slot
    sizes = {step - 1, step, step + 1, block + 1, 2 * step + 3 * block + 1, least,
             3 * least + 1}
    sizes = sorted(size for size in sizes if size >= least)
    seen = []  # what each `_purify_blocks` call returned, before later stages XOR into it
    real = protocols._purify_blocks
    monkeypatch.setattr(protocols, "_purify_blocks",
                        lambda slices, stage: seen.append(real(slices, stage)) or seen[-1].copy())
    for size in sizes:
        seen.clear()
        ours, ref = make_rng(size), make_rng(size)
        counts = sample_stages(werner(0.8), stages, size, ours)
        outputs, final = whole_pool_outputs(werner(0.8), stages, size, ref)
        expected = [pool for pools in outputs for pool in pools]
        assert len(seen) == len(expected), size
        for got, want in zip(seen, expected):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), size
        assert (counts["kept"], counts["good"]) == (final.size, int((final == 0).sum()))
        assert ours.random() == ref.random(), size  # both streams consumed alike


def test_streamed_purification_holds_one_chunk_plus_survivors():
    # tracemalloc sees numpy's buffers; a drawn pool of 8 pairs per
    # attempt would take 8 MiB at 2^20 attempts and 16 MiB at 2^21. A
    # first small run fills the table caches, which the peaks leave out.
    def peak(attempts):
        tracemalloc.start()
        try:
            purify_recurrence_mc(werner(0.8), 3, PURIFY_NOISE, attempts, make_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)
    small, large = peak(1 << 20), peak(1 << 21)
    assert small < 1536 << 10  # 0.8-0.9 MiB; slices of 2^18 pairs would take 2.8 MiB
    assert large - small < 1 << 20


# Stage lists without `Purify`, so every pool keeps its size: (stages,
# doubles drawn per attempt). Each segment's pool is one draw with the
# leading run folded into its state; a later run is one more draw.
NOISE_RUNS = {
    "head run": ([Depolarize(0.9), Depolarize(0.8)], 1),
    "run after swap": ([Depolarize(0.9), Swap(), Depolarize(0.95), Depolarize(0.85)], 3),
}


@pytest.mark.parametrize("case", sorted(NOISE_RUNS))
@pytest.mark.parametrize("size", [1, 1000, _CHUNK + 3, 4 * _CHUNK + 3])
def test_a_run_of_depolarize_stages_is_one_draw(case, size):
    stages, per_pair = NOISE_RUNS[case]
    ours, ref = make_rng(6), make_rng(6)
    sample_stages(werner(0.8), stages, size, ours)
    ref.random(per_pair * size)
    assert ours.random() == ref.random()


@pytest.mark.parametrize("case", sorted(NOISE_RUNS))
def test_noise_runs_sample_their_exact_state(case):
    stages, _ = NOISE_RUNS[case]
    counts = sample_stages(werner(0.8), stages, 200_000, make_rng(8))
    fidelity = evaluate_stages(werner(0.8), stages)[0].fidelity
    assert counts["kept"] == 200_000
    assert _z(counts["good"] / counts["kept"], fidelity, counts["kept"]) < 4


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 4 * _CHUNK - 1,
                                  4 * _CHUNK, 4 * _CHUNK + 1, 12 * _CHUNK + 7])
def test_draw_indices_equals_generator_choice(size):
    weights = np.array([0.7, 0.1, 0.15, 0.05])
    ours, ref = make_rng(3), make_rng(3)
    drawn = draw_indices(ours, weights, size)
    assert drawn.dtype == np.uint8
    assert np.array_equal(drawn, ref.choice(4, size=size, p=weights))
    assert ours.random() == ref.random()  # both streams consumed alike


@pytest.mark.parametrize("weights", [(1.0,), (0.0, 1.0), (1.0, 0.0, 0.0, 0.0),
                                     (0.0, 0.0, 0.0, 1.0), (0.5, 0.0, 0.5, 0.0)])
def test_draw_indices_edge_weights_equal_generator_choice(weights):
    # one category has no cut point: all zeros, the doubles still drawn
    size = _CHUNK + 3
    ours, ref = make_rng(4), make_rng(4)
    drawn = draw_indices(ours, weights, size)
    assert np.array_equal(drawn, ref.choice(len(weights), size=size, p=weights))
    assert ours.random() == ref.random()


@pytest.mark.parametrize("weights", [(0.7, 0.1, 0.15, 0.05), (1.0, 0.0, 0.0, 0.0),
                                     (0.0, 0.0, 0.0, 1.0), (0.5, 0.0, 0.5, 0.0)])
def test_draw_indices_scalar_equals_generator_choice(weights):
    ours, ref = make_rng(5), make_rng(5)
    drawn = [draw_indices(ours, weights, 1) for _ in range(2000)]
    assert all(d.dtype == np.uint8 and d.shape == (1,) for d in drawn)
    assert [int(d[0]) for d in drawn] == [int(ref.choice(4, p=weights)) for _ in range(2000)]


@pytest.mark.parametrize("weights", [(0.5, 0.5, 0.1, 0.0), (1.2, -0.2, 0.0, 0.0),
                                     (float("nan"), 0.0, 0.0, 1.0)])
def test_draw_indices_rejects_what_choice_rejects(weights):
    for size in (0, 10):  # an empty draw checks its weights too
        for draw in (lambda rng: draw_indices(rng, weights, size),
                     lambda rng: rng.choice(4, size=size, p=weights)):
            with pytest.raises(ValueError):
                draw(make_rng(1))


def test_pairs_per_output_and_consumed():
    stages = [Depolarize(0.9), Purify(2), Swap(), Depolarize(0.9), Purify(2)]
    assert pairs_per_output(stages) == 2 * 4 * 4
    counts = sample_stages(werner(0.9), stages, 64, make_rng(1))
    assert counts["consumed"] == 2 * 64
    assert counts["attempts"] == 64


def test_sampler_rejects_non_deterministic_variant():
    rng = make_rng(1)
    with pytest.raises(ProtocolError):
        purify_recurrence(werner(0.8), 1, PURIFY_NOISE, samples=10, rng=rng,
                          engine="mc", variant="BBPSSW")
    assert rng.random() == make_rng(1).random()  # refused before any draw


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("engine", ["mc", "stabilizer", "hashing"])
def test_samplers_reject_fewer_than_one_sample_before_any_draw(engine, samples):
    rng = make_rng(1)
    with pytest.raises(ProtocolError, match="samples"):
        if engine == "hashing":
            purify_hashing(werner(0.9), 4, 1, PURIFY_NOISE, samples, rng)
        else:
            purify_recurrence(werner(0.8), 1, PURIFY_NOISE, samples=samples, rng=rng,
                              engine=engine)
    assert rng.random() == make_rng(1).random()  # refused before any draw


@pytest.mark.parametrize("index,letter", enumerate("IZXY"))
def test_bell_pair_constructor(index, letter):
    ref = oracles.from_generators(
        [PauliString.from_string("XX"), PauliString.from_string("ZZ")]
    )
    if letter != "I":
        ref.apply_pauli(PauliString.single(2, 1, letter))
    pair = oracles.bell_pair(index)
    assert pair.stabs == ref.stabs
    assert pair.destabs == ref.destabs
    validate_tableau(pair)
    if index == 0:
        assert pair.stabs == StabilizerState.bell_pair().stabs
    # the Bell index that the chain reads off its delivered pair
    assert pair.bell_measure(0, 1, None, []) == index


# (rounds, F, noise): the frame engine against the exact maps; rounds 5
# carries 62 virtual bits, which overflow one int64 beside the outputs
@pytest.mark.parametrize("rounds,F,noise", [
    (1, 0.8, PURIFY_NOISE),
    (2, 0.8, PURIFY_NOISE),
    (3, 0.8, PURIFY_NOISE),
    (5, 0.97, NoiseModel(0.998, 0.998, 1.0)),
])
def test_purify_stabilizer_matches_exact(rounds, F, noise):
    samples = 200_000
    exact = purify_recurrence(werner(F), rounds, noise, engine="analytic")
    assert exact.p_success > 0.05
    s = purify_recurrence(werner(F), rounds, noise, samples=samples, rng=make_rng(7),
                          engine="stabilizer")
    assert s.samples == samples
    assert _z(s.fidelity, exact.fidelity, s.extra["counts"]["kept"]) < 4
    assert _z(s.p_success, exact.p_success, samples) < 4


# -- hashing ------------------------------------------------------------------

X_LETTERS, Z_LETTERS = {2, 3}, {1, 3}  # codes 2x + z with the x bit, the z bit


@pytest.mark.parametrize("n_pairs", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", range(4))
def test_each_check_reads_one_bit_of_a_subset_and_sacrifices_a_member(n_pairs, seed):
    flips, sacrificed = _check_network(n_pairs, n_pairs - 1, make_rng(seed))
    assert flips.shape == (n_pairs, 4)
    assert len(set(sacrificed)) == n_pairs - 1
    assert not (flips >> (n_pairs - 1)).any()  # no bit beyond the last check
    for k, target in enumerate(sacrificed):
        letters = [{c for c in range(4) if flips[j, c] >> k & 1} for j in range(n_pairs)]
        subset = {j for j in range(n_pairs) if letters[j]}
        assert target in subset
        assert not subset & set(sacrificed[:k])  # an earlier check sacrificed these
        assert {frozenset(letters[j]) for j in subset} in ({frozenset(X_LETTERS)},
                                                            {frozenset(Z_LETTERS)})


def syndrome_of(flips: np.ndarray, err) -> int:
    out = 0
    for j, c in enumerate(err):
        out ^= int(flips[j, c])
    return out


@pytest.mark.parametrize("weights", [(0.7, 0.15, 0.1, 0.05), werner(0.9).as_array()],
                         ids=["distinct", "werner"])
@pytest.mark.parametrize("checks", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_ml_decode_is_brute_force_ml_on_every_syndrome(weights, checks, seed):
    weights = np.asarray(weights, dtype=float)
    flips, _ = _check_network(4, checks, make_rng(seed))
    by_syndrome = {}
    for err in itertools.product(range(4), repeat=4):
        logp = sum(math.log(weights[c]) for c in err)
        by_syndrome.setdefault(syndrome_of(flips, err), []).append((logp, err))
    assert sorted(by_syndrome) == list(range(1 << checks))
    for syndrome, strings in by_syndrome.items():
        best = max(logp for logp, _ in strings)
        likeliest = [err for logp, err in strings if logp > best - 1e-9]
        est, ambiguous = _ml_decode(weights, flips, checks, syndrome)
        # the first most likely string, read from the last pair down
        assert tuple(est) == min(likeliest, key=lambda err: err[::-1])
        assert ambiguous == (len(likeliest) > 1)


@pytest.mark.parametrize("F,noise", [(0.9, NoiseModel(0.97, 0.98, 1.0)),
                                     (0.8, NoiseModel(0.99, 0.95, 1.0))])
def test_hashing_without_checks_is_the_dressed_pair(F, noise):
    # no check: each kept pair is the input pair through the in-coupling
    # and output dressing, and a sample succeeds when all pairs are clean
    n_pairs, samples = 4, 5000
    exact = evaluate_stages(werner(F), list(noise_stages(noise)))[0].fidelity
    stats = purify_hashing(werner(F), n_pairs, 0, noise, samples, make_rng(11))
    assert stats.extra["report"] == {"ambiguous_decodes": 0}
    assert _z(stats.fidelity, exact, n_pairs * samples) < 4
    assert _z(stats.p_success, exact ** n_pairs, samples) < 4
    assert stats.protocol_yield == 1.0


@pytest.mark.parametrize("n_pairs,checks,message", [
    (1, 0, "hashing needs at least two pairs"),
    (25, 0, "exact ML decoding is limited to 24 pairs"),
    (4, -1, "checks must be at least 0, got -1"),
    (4, 4, "too many checks for the ensemble size: 4 pairs take at most 3, got 4"),
    # the smallest decoder table over the cap of 2^20 entries
    (17, 16, "the ML decoder's table of 17 pairs x 65536 states exceeds its cap of "
             "1048576 entries"),
    (24, 23, "the ML decoder's table of 24 pairs x 8388608 states exceeds its cap of "
             "1048576 entries"),
])
def test_hashing_rejects_bad_sizes_before_any_draw(n_pairs, checks, message):
    rng = make_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        purify_hashing(werner(0.9), n_pairs, checks, NoiseModel(), 10, rng)
    assert rng.bit_generator.state == before


def test_hashing_runs_the_largest_decoder_table_under_the_cap():
    # 24 pairs x 2^15 states = 786432 entries; 16 checks would be 1572864
    assert 24 << 15 <= protocols._ML_TABLE_CAP < 24 << 16
    stats = purify_hashing(werner(0.9), 24, 15, NoiseModel(), 2, make_rng(1))
    assert stats.samples == 2
    assert set(stats.extra["report"]) == {"ambiguous_decodes"}
