"""Tests for command-line input handling and the reported sample count."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mbqcomm import cli, protocols
from mbqcomm.cli import main
from mbqcomm.netsim import encoded_chain
from mbqcomm.results import CSV_HEADER

PURIFY_MC = ["purify", "--engine", "mc", "--F", "0.8", "--rounds", "2",
             "--p-resource", "0.97", "--q-meas", "0.97"]

# options that changed no reported number, or wrote a copy of stdout
# (--json-out), and left the CLI: argparse rejects them like any unknown
# option
REMOVED = ("--shards", "--timing", "--ideal", "--json-out")


def rejection(named: str) -> str:
    """The start of the one stderr line that rejects `named`."""
    if named in REMOVED:
        return f"mbqcomm: error: unrecognized arguments: {named}"
    return f"error: {named} "


def run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("argv", [
    PURIFY_MC + ["--samples", "0"],
    PURIFY_MC + ["--samples", "-5"],
    ["purify", "--F", "0.8", "--rounds", "0"],
    ["chain", "--segments", "0"],
    ["qec", "--samples", "0"],
    ["hashing", "--F", "0.9", "--samples", "0"],
    ["hashing", "--F", "0.9", "--checks", "-1", "--samples", "5"],
    ["chain", "--samples", "0"],
    ["repeater", "--samples", "0"],
    ["threshold", "--formula", "repeater", "--segments", "0"],
    PURIFY_MC + ["--samples", "10", "--csv-out", "/nonexistent/x.csv"],
    ["repeater", "--mode", "analytic", "--csv-out", "/nonexistent/x.csv"],
    # an assumption set no resource noise satisfies
    ["threshold", "--formula", "universal-epp", "--assume", "0"],
    # 10 kept pairs of 57 rounds need 10 * 2^57 pairs: 1.25 EiB, more than
    # any 64-bit address space, so the allocation fails without touching memory
    PURIFY_MC + ["--rounds", "57", "--samples", "10"],
    ["threshold", "--formula", "universal-epp", "--assume", "0.1"],
    # options the threshold formula does not read
    ["threshold", "--formula", "universal-epp", "--segments", "4"],
    ["threshold", "--formula", "repeater", "--code", "ring5"],
    # corrections are deferred by construction: no option picks their timing
    ["chain", "--timing", "station"],
    # a seed is a nonnegative integer
    PURIFY_MC + ["--samples", "10", "--seed", "-1"],
    ["hashing", "--F", "0.9", "--samples", "5", "--seed", "-5"],
    ["qec", "--samples", "1", "--seed", "-1"],
    ["chain", "--samples", "1", "--seed", "-1"],
    ["repeater", "--samples", "100", "--seed", "-1"],
    # hashing needs two pairs, and sacrifices at most all pairs but one
    ["hashing", "--F", "0.9", "--pairs", "1"],
    ["hashing", "--F", "0.9", "--pairs", "4", "--checks", "4"],
    # the ML decoder's table of pairs x 2^checks entries is capped
    ["hashing", "--F", "0.9", "--pairs", "24", "--checks", "23"],
])
def test_bad_counts_exit_2_with_one_line(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


EXACT_EDGES = (
    (["purify", "--F", "0.8", "--engine", "analytic"], 1023),
    (["purify", "--F", "0.8", "--engine", "analytic", "--mode", "stepwise"], 1023),
    (["repeater", "--mode", "analytic", "--segments", "4"], 340),
)


@pytest.mark.parametrize("argv", [
    base + ["--rounds", str(rounds + 1)] for base, rounds in EXACT_EDGES] + [
    ["purify", "--F", "0.8", "--engine", "stabilizer", "--samples", "1", "--rounds",
     str(protocols._STABILIZER_ROUNDS + 1)],
    ["purify", "--F", "0.8", "--engine", "stabilizer", "--samples", "1", "--rounds", "63"],
])
def test_too_many_rounds_exit_2_before_any_work(argv, monkeypatch, capsys):
    # the exact yield divides by the elementary pairs behind one output
    # pair, which a float holds up to 2^1023; the stabilizer engine reads
    # each site's frame table of 2^(2 rounds + 2) letters
    def forbidden(*_args, **_kwargs):
        raise AssertionError("evaluated, built or drew before refusing")

    for name in ("evaluate_stages", "epp_site_resource", "draw_indices", "index_slices"):
        monkeypatch.setattr(protocols, name, forbidden)
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: rounds {argv[-1]}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, rounds", EXACT_EDGES)
def test_the_largest_exact_round_count_prints_a_record(argv, rounds, capsys):
    rc, out, _ = run(argv + ["--rounds", str(rounds)], capsys)
    record = json.loads(out)
    assert rc == 0 and record["params"]["rounds"] == rounds


@pytest.mark.parametrize("argv", [
    ["hashing", "--F", "0.9", "--shards", "2"],
    ["qec", "--shards", "2"],
    ["chain", "--shards", "2"],
    ["repeater", "--shards", "2"],
    # --json-out wrote a copy of stdout
    ["purify", "--F", "0.8", "--json-out", "x.jsonl"],
    ["chain", "--json-out", "x.jsonl"],
    ["hashing", "--F", "0.9", "--json-out", "x.jsonl"],
    ["repeater", "--json-out", "x.jsonl"],
    PURIFY_MC + ["--shards", "2"],
    # purify and hashing send nothing through a channel: F is the pair they purify
    ["purify", "--F", "0.8", "--q-channel", "0.5"],
    ["hashing", "--F", "0.9", "--q-channel", "0.5"],
    ["qec", "--json-out", "x.jsonl"],
])
def test_unread_options_are_rejected(argv, capsys):
    rc, out, err = run(argv, capsys)
    flag = [a for a in argv if a.startswith("--")][-1]
    assert (rc, out) == (2, "")
    assert err == f"mbqcomm: error: unrecognized arguments: {' '.join(argv[argv.index(flag):])}\n"


@pytest.mark.parametrize("mode", ["merged", "stepwise"])
@pytest.mark.parametrize("samples,seed", [(10, 3), (1000, 1), (1001, 4), (3, 5)])
def test_record_reports_requested_samples(mode, samples, seed, capsys):
    argv = PURIFY_MC + ["--mode", mode, "--samples", str(samples), "--seed", str(seed)]
    rc, out, err = run(argv, capsys)
    if mode == "stepwise" and samples < 4:
        # 2 stepwise rounds purify the pairs in slots of 4
        assert (rc, out) == (2, "") and err.startswith(f"error: {samples} samples fill no")
    else:
        assert rc == 0
        assert json.loads(out)["samples"] == samples


@pytest.mark.parametrize("seeds", [(2**63 + 1, 2**63 + 2), (1, 2**64 + 1)])
def test_distinct_seeds_give_distinct_records(seeds, capsys):
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in seeds:
            rc, out, err = run(["purify", "--F", "0.8", "--samples", "1000",
                                "--seed", str(seed)], capsys)
            assert (rc, err) == (0, "")
            record = json.loads(out)
            assert record["seed"] == seed
            records.append((record["fidelity"], record["p_success"]))
    assert records[0] != records[1]


QEC_NOISE = ["--p-resource", "0.99", "--q-meas", "0.99", "--q-channel", "0.97"]


@pytest.mark.parametrize("ini", [
    "[chain]\nsamples = -5\n",
    "[chain]\nsamples = 0\n",
    "[chain]\nsegments = 2\n[station:1]\nq_meas = 0.9\n",
    "[chain]\nsegments = 2\n[station:1]\nq_channel = 1.7\n",
    "[chain]\nsegments = 2\n[station:2]\nq_channel = 0.9\n",
    "[chain]\nsegments = 1\ntiming = station\n",
])
def test_bad_chain_config_exits_2_with_one_line(ini, tmp_path, capsys):
    path = tmp_path / "chain.ini"
    path.write_text(ini)
    rc, out, err = run(["chain", "--config", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_analytic_chain_reports_the_direct_pair_through_every_override(tmp_path, capsys):
    # the unencoded pair crosses segment 0 at 0.95 and segment 1 at 0.5
    path = tmp_path / "chain.ini"
    path.write_text("[chain]\nsegments = 2\nq_channel = 0.95\n[station:1]\nq_channel = 0.5\n")
    rc, out, _err = run(["chain", "--mode", "analytic", "--config", str(path)], capsys)
    assert rc == 0
    assert json.loads(out)["report"]["direct_fidelity"] == (3 * 0.95 * 0.5 + 1) / 4 == 0.60625


@pytest.mark.parametrize("code,total", [
    ("ring5", 15), ("repetition3", 3), ("repetition3-phase", 3), ("repetition5", 5),
])
def test_qec_enumerate_errors_corrects_every_single_error(code, total, capsys):
    rc, out, _err = run(["qec", "--code", code, "--enumerate-errors"], capsys)
    assert rc == 0
    assert out == f"{total}/{total} corrected\n"


# qec records of the release before qec ran as a one-segment chain; the
# sampled 0.7 case is re-pinned to the PCG64DXSM stream
@pytest.mark.parametrize("q_channel,fidelity,ci", [
    ("0.97", 1.0, (0.7224598312333834, 1.0)),
    ("0.7", 0.6, (0.3126695474501864, 0.8318224187964902)),
])
def test_qec_record_frozen(q_channel, fidelity, ci, capsys):
    argv = ["qec", "--code", "ring5", "--p-resource", "0.99", "--q-meas", "0.99",
            "--q-channel", q_channel, "--seed", "1", "--samples", "10"]
    rc, out, _err = run(argv, capsys)
    record = json.loads(out)
    assert rc == 0
    assert record["fidelity"] == fidelity
    assert (record["ci_lo"], record["ci_hi"]) == ci
    assert record["samples"] == 10


# Full records of noisy stabilizer trajectories. At this noise most shots
# draw Paulis, random Bell outcomes and flagged syndromes, so every branch
# of the tableau (sign flips, random and deterministic measurements, qubit
# removal) feeds the record; a changed draw or sign shows up here.
NOISY_QEC = ["--p-resource", "0.95", "--q-meas", "0.95", "--q-channel", "0.85",
             "--samples", "300", "--seed", "7"]


@pytest.mark.parametrize("argv,record", [
    (["qec", "--code", "ring5"] + NOISY_QEC,
     '{"ci_hi": 0.5791993463738232, "ci_lo": 0.46687729355961566, '
     '"config_hash": "f5ad5b2819fd5acb", "fidelity": 0.5233333333333333, '
     '"p_resource": 0.95, "p_success": 1.0, "params": {"code": "ring5"}, '
     '"protocol": "qec", "q_channel": 0.85, "q_meas": 0.95, '
     '"report": {"uncorrectable_runs": 0}, "samples": 300, '
     '"schema": 2, "seed": 7, "version": "0.2.0", "yield": 1.0}\n'),
    (["qec", "--code", "repetition3"] + NOISY_QEC,
     '{"ci_hi": 0.5198689689624482, "ci_lo": 0.40772488257071904, '
     '"config_hash": "c24a21e9e793a40e", "fidelity": 0.4633333333333333, '
     '"p_resource": 0.95, "p_success": 1.0, "params": {"code": "repetition3"}, '
     '"protocol": "qec", "q_channel": 0.85, "q_meas": 0.95, '
     '"report": {"uncorrectable_runs": 0}, "samples": 300, '
     '"schema": 2, "seed": 7, "version": "0.2.0", "yield": 1.0}\n'),
    (["chain", "--segments", "2", "--code", "ring5", "--p-resource", "0.97", "--q-meas", "0.97",
      "--q-channel", "0.9", "--samples", "200", "--seed", "12345"],
     '{"ci_hi": 0.6749177028050861, "ci_lo": 0.5409361758928832, '
     '"config_hash": "1360ebe77f2295fa", "fidelity": 0.61, "p_resource": 0.97, '
     '"p_success": 1.0, "params": {"channel_overrides": {}, "code": "ring5", '
     '"mode": "trajectory", "segments": 2}, "protocol": "chain", "q_channel": 0.9, '
     '"q_meas": 0.97, "report": {"correction_resources": 2, "resource_qubits": 32, '
     '"uncorrectable_runs": 0}, "samples": 200, "schema": 2, "seed": 12345, '
     '"version": "0.2.0", "yield": 1.0}\n'),
    (["purify", "--F", "0.8", "--engine", "stabilizer", "--rounds", "2", "--p-resource", "0.97",
      "--q-meas", "0.97", "--samples", "300", "--seed", "3"],
     '{"ci_hi": 0.8980013866009613, "ci_lo": 0.7534859492631247, '
     '"config_hash": "f58da9d196fad2b2", "fidelity": 0.8383838383838383, '
     '"p_resource": 0.97, "p_success": 0.33, "params": {"F": 0.8, '
     '"engine": "stabilizer", "mode": "merged", "rounds": 2, "variant": "DEJMPS"}, '
     '"protocol": "purify", "q_channel": 1.0, "q_meas": 0.97, "report": {}, '
     '"samples": 300, "schema": 2, "seed": 3, "version": "0.2.0", "yield": 0.0825}\n'),
    (["purify", "--F", "0.8", "--engine", "stabilizer", "--rounds", "1", "--p-resource", "0.97",
      "--q-meas", "0.97", "--samples", "300", "--seed", "3"],
     '{"ci_hi": 0.7409431359502443, "ci_lo": 0.6171151963425776, '
     '"config_hash": "caca5dcc31cf395d", "fidelity": 0.6822429906542056, '
     '"p_resource": 0.97, "p_success": 0.7133333333333334, "params": {"F": 0.8, '
     '"engine": "stabilizer", "mode": "merged", "rounds": 1, "variant": "DEJMPS"}, '
     '"protocol": "purify", "q_channel": 1.0, "q_meas": 0.97, "report": {}, '
     '"samples": 300, "schema": 2, "seed": 3, "version": "0.2.0", '
     '"yield": 0.3566666666666667}\n'),
    (["purify", "--F", "0.8", "--engine", "stabilizer", "--rounds", "3", "--p-resource", "0.97",
      "--q-meas", "0.97", "--samples", "300", "--seed", "3"],
     '{"ci_hi": 0.9447962896007217, "ci_lo": 0.6243407235682331, '
     '"config_hash": "e7de4f9ba3d2fe22", "fidelity": 0.8421052631578947, '
     '"p_resource": 0.97, "p_success": 0.06333333333333334, "params": {"F": 0.8, '
     '"engine": "stabilizer", "mode": "merged", "rounds": 3, "variant": "DEJMPS"}, '
     '"protocol": "purify", "q_channel": 1.0, "q_meas": 0.97, "report": {}, '
     '"samples": 300, "schema": 2, "seed": 3, "version": "0.2.0", '
     '"yield": 0.007916666666666667}\n'),
], ids=["qec-ring5", "qec-repetition3", "chain-ring5", "purify-stabilizer",
        "purify-stabilizer-1-round", "purify-stabilizer-3-rounds"])
def test_noisy_trajectory_records_frozen(argv, record, capsys):
    assert run(argv, capsys) == (0, record, "")


# Full hashing records at the default 10 000 samples. Each sample draws
# its check network, then the pairs' errors, then the output noise; a
# changed check, draw or decoder tie shows up here.
@pytest.mark.parametrize("argv,record", [
    (["hashing", "--F", "0.9"],
     '{"ci_hi": 0.8954948806677585, "ci_lo": 0.8912173414113373, '
     '"config_hash": "d1521287bbb0247d", "fidelity": 0.893375, "p_resource": 1.0, '
     '"p_success": 0.5464, "params": {"F": 0.9, "checks": 8, "pairs": 16}, '
     '"protocol": "hashing", "q_channel": 1.0, "q_meas": 1.0, '
     '"report": {"ambiguous_decodes": 5303}, '
     '"samples": 10000, "schema": 2, "seed": 1, "version": "0.2.0", "yield": 0.5}\n'),
    (["hashing", "--F", "0.85", "--pairs", "12", "--checks", "8", "--p-resource", "0.97",
      "--q-meas", "0.98", "--seed", "3"],
     '{"ci_hi": 0.729577942992447, "ci_lo": 0.7208287999439614, '
     '"config_hash": "89a3d5114eb7aec9", "fidelity": 0.725225, "p_resource": 0.97, '
     '"p_success": 0.3457, "params": {"F": 0.85, "checks": 8, "pairs": 12}, '
     '"protocol": "hashing", "q_channel": 1.0, "q_meas": 0.98, '
     '"report": {"ambiguous_decodes": 6714}, '
     '"samples": 10000, "schema": 2, "seed": 3, "version": "0.2.0", '
     '"yield": 0.3333333333333333}\n'),
    (["hashing", "--F", "0.9", "--checks", "0"],
     '{"ci_hi": 0.9014045287128566, "ci_lo": 0.8984637664493768, '
     '"config_hash": "21faff85dcf1aaca", "fidelity": 0.89994375, "p_resource": 1.0, '
     '"p_success": 0.1891, "params": {"F": 0.9, "checks": 0, "pairs": 16}, '
     '"protocol": "hashing", "q_channel": 1.0, "q_meas": 1.0, '
     '"report": {"ambiguous_decodes": 0}, '
     '"samples": 10000, "schema": 2, "seed": 1, "version": "0.2.0", "yield": 1.0}\n'),
], ids=["defaults", "noisy-12-pairs", "no-checks"])
def test_hashing_records_frozen(argv, record, capsys):
    assert run(argv, capsys) == (0, record, "")


# Full Bell-index Monte Carlo records at bench scale: 8M pairs for purify,
# 8 pools of 2^20 pairs for the repeater, so each pool spans many slices
# of the sampler; a slicing that moved a draw shows up here.
@pytest.mark.parametrize("argv,record", [
    (["purify", "--engine", "mc", "--rounds", "3", "--F", "0.8", "--p-resource", "0.97",
      "--q-meas", "0.97", "--samples", "1000000", "--seed", "1"],
     '{"ci_hi": 0.9019416834798116, "ci_lo": 0.8975794513522893, '
     '"config_hash": "b9bf5069a3040af4", "fidelity": 0.8997816563903269, '
     '"p_resource": 0.97, "p_success": 0.072821, "params": {"F": 0.8, "engine": "mc", '
     '"mode": "merged", "rounds": 3, "variant": "DEJMPS"}, "protocol": "purify", '
     '"q_channel": 1.0, "q_meas": 0.97, "report": {}, "samples": 1000000, "schema": 2, '
     '"seed": 1, "version": "0.2.0", "yield": 0.009102625}\n'),
    (["repeater", "--mode", "mc", "--segments", "8", "--rounds", "2", "--q-channel", "0.95",
      "--p-resource", "0.99", "--q-meas", "0.99", "--samples", "1048576", "--seed", "1"],
     '{"ci_hi": 0.9836810146388697, "ci_lo": 0.9666406969748811, '
     '"config_hash": "45d65085e37122c5", "fidelity": 0.9766317485898469, '
     '"p_resource": 0.99, "p_success": 0.302978515625, "params": {"mode": "mc", '
     '"rounds": 2, "segments": 8}, "protocol": "repeater", "q_channel": 0.95, '
     '"q_meas": 0.99, "report": {"levels": 3, "station_resource_qubits": 56, '
     '"stations": 7}, "samples": 1048576, "schema": 2, "seed": 1, "version": "0.2.0", '
     '"yield": 0.00014793872833251953}\n'),
], ids=["purify-mc", "repeater-mc"])
def test_monte_carlo_bench_records_frozen(argv, record, capsys):
    assert run(argv, capsys) == (0, record, "")


# one run of each protocol subcommand and engine or mode, at a seed
PROTOCOL_RUNS = {
    "purify-analytic": ["purify", "--engine", "analytic", "--F", "0.8", "--p-resource", "0.97"],
    "purify-mc": PURIFY_MC + ["--samples", "200", "--seed", "3"],
    "purify-stabilizer": ["purify", "--engine", "stabilizer", "--F", "0.8",
                          "--samples", "20", "--seed", "3"],
    "hashing": ["hashing", "--F", "0.9", "--samples", "5", "--seed", "3"],
    "qec": ["qec", "--samples", "5", "--seed", "3"] + QEC_NOISE,
    "chain-trajectory": ["chain", "--segments", "1", "--samples", "5", "--seed", "3"]
    + QEC_NOISE,
    "chain-dense": ["chain", "--mode", "dense"] + QEC_NOISE,
    "chain-analytic": ["chain", "--mode", "analytic"] + QEC_NOISE,
    "repeater-analytic": ["repeater", "--mode", "analytic", "--q-channel", "0.95"],
    "repeater-mc": ["repeater", "--mode", "mc", "--q-channel", "0.95", "--samples", "256",
                    "--seed", "3"],
}


@pytest.mark.parametrize("argv", PROTOCOL_RUNS.values(), ids=PROTOCOL_RUNS)
def test_every_protocol_subcommand_prints_one_record(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert (rc, err) == (0, "")
    (line,) = out.splitlines()
    record = json.loads(line)
    assert set(record) == set(CSV_HEADER)
    assert (record["protocol"], record["schema"]) == (argv[0], 2)
    assert isinstance(record["report"], dict)
    assert run(argv, capsys) == (0, out, "")


def csv_cell_value(cell: str, like):
    """A CSV cell read as the type of its JSON value `like`."""
    if like is None:
        return None if cell == "" else cell
    if isinstance(like, dict):
        return json.loads(cell)
    return type(like)(cell)


@pytest.mark.parametrize("name", ["purify-mc", "purify-analytic", "chain-trajectory",
                                  "chain-analytic", "repeater-mc"])
def test_csv_row_holds_the_printed_record(name, tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    rc, out, _err = run(PROTOCOL_RUNS[name] + ["--csv-out", str(csv_path)], capsys)
    assert rc == 0
    record = json.loads(out)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        (row,) = reader
    assert tuple(header) == CSV_HEADER
    assert {key: csv_cell_value(cell, record[key]) for key, cell in zip(header, row)} == record


@pytest.mark.parametrize("base,changed", [
    (["qec", "--samples", "1"] + QEC_NOISE,
     ["qec", "--samples", "1"] + QEC_NOISE + ["--q-channel", "0.9"]),
    (["qec", "--samples", "1"], ["qec", "--samples", "2"]),
    (["hashing", "--F", "0.9", "--samples", "1"],
     ["hashing", "--F", "0.9", "--samples", "1", "--p-resource", "0.9"]),
    (PURIFY_MC + ["--samples", "10"], PURIFY_MC + ["--samples", "10", "--seed", "2"]),
])
def test_config_hash_covers_the_input(base, changed, capsys):
    hashes = []
    for argv in (base, changed):
        rc, out, _err = run(argv, capsys)
        assert rc == 0
        hashes.append(json.loads(out)["config_hash"])
    assert hashes[0] != hashes[1]


# no environment variable splits or reseeds a run
@pytest.mark.parametrize("value", ["3", "0", "-4", "x"])
def test_shards_come_from_the_flag_alone(value, monkeypatch, capsys):
    argv = PURIFY_MC + ["--samples", "30"]
    _rc, plain, _ = run(argv, capsys)
    monkeypatch.setenv("MBQCOMM_SHARDS", value)
    rc, out, err = run(argv, capsys)
    assert (rc, out, err) == (0, plain, "")


def test_qec_seed_defaults_to_1_in_the_record(capsys):
    _rc, implicit, _ = run(["qec", "--samples", "2"] + QEC_NOISE, capsys)
    _rc, explicit, _ = run(["qec", "--samples", "2", "--seed", "1"] + QEC_NOISE, capsys)
    assert implicit == explicit and json.loads(implicit)["seed"] == 1


def test_qec_enumerate_errors_rejects_a_code_that_corrects_nothing(capsys):
    rc, out, err = run(["qec", "--code", "repetition2", "--enumerate-errors"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: code repetition2 corrects no single-qubit error\n"


@pytest.mark.parametrize("extra,named", [
    (["--samples", "5"], "--samples"),
    (["--csv-out", "x.csv"], "--csv-out"),
    (["--json-out", "x.jsonl"], "--json-out"),
    (["--samples", "5", "--csv-out", "x.csv"], "--samples and --csv-out"),
    (["--p-resource", "0.5", "--q-channel", "0.3"], "--p-resource and --q-channel"),
    (["--q-meas", "0.9"], "--q-meas"),
    (["--q-channel", "1.0"], "--q-channel"),
    (["--seed", "5"], "--seed"),
])
def test_qec_enumerate_errors_rejects_unread_options(extra, named, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["qec", "--enumerate-errors"] + extra, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(rejection(named))
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["qec", "--samples", "2"],
    ["purify", "--F", "0.8", "--samples", "20"],
    ["hashing", "--F", "0.9", "--samples", "2"],
    ["chain", "--mode", "dense", "--segments", "1"],
    ["repeater", "--mode", "analytic"],
])
@pytest.mark.parametrize("flag", ["--p-resource", "--q-meas", "--q-channel"])
def test_ideal_with_a_noise_flag_exits_2_naming_it(argv, flag, capsys):
    # --ideal is gone (every noise parameter defaults to 1), so beside any
    # noise flag the run ends in one line naming --ideal
    rc, out, err = run(argv + ["--ideal", flag, "0.9"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(rejection("--ideal"))
    assert len(err.strip().splitlines()) == 1


def test_unset_noise_flags_give_the_record_of_explicit_ones(capsys):
    records = [run(["qec", "--samples", "2"] + extra, capsys)[1] for extra in (
        [], ["--p-resource", "1", "--q-meas", "1.0", "--q-channel", "1"])]
    assert records[0] == records[1]


# one run of each subcommand without noise flags; each noise flag it takes
# must move its fidelity or p_success
UNNOISED = {
    "purify": ["purify", "--engine", "analytic", "--F", "0.8"],
    "hashing": ["hashing", "--F", "0.9", "--samples", "20"],
    "qec": ["qec", "--samples", "20"],
    "chain": ["chain", "--mode", "dense", "--segments", "1"],
    "repeater": ["repeater", "--mode", "analytic"],
}


@pytest.mark.parametrize("flag", ["--p-resource", "--q-meas", "--q-channel"])
@pytest.mark.parametrize("base", UNNOISED.values(), ids=UNNOISED)
def test_every_noise_flag_is_read(base, flag, capsys):
    rc, plain, _err = run(base, capsys)
    assert rc == 0
    rc, out, err = run(base + [flag, "0.9"], capsys)
    if rc == 2:
        assert out == "" and flag in err and len(err.strip().splitlines()) == 1
    else:
        before, after = json.loads(plain), json.loads(out)
        assert (rc, err) == (0, "")
        assert (before["fidelity"], before.get("p_success")) != \
            (after["fidelity"], after.get("p_success"))


@pytest.mark.parametrize("formula", ["universal-epp", "hashing", "code", "shor-type",
                                     "dephasing-repetition"])
def test_threshold_code_is_read_or_rejected(formula, capsys):
    _rc, plain, _err = run(["threshold", "--formula", formula], capsys)
    rc, out, err = run(["threshold", "--formula", formula, "--code", "repetition5"], capsys)
    if formula == "code":
        assert out != plain
    else:
        assert (rc, out) == (2, "")
        assert err == f"error: --code does not apply to --formula {formula}\n"


@pytest.mark.parametrize("extra,named", [
    (["--mode", "dense", "--samples", "5"], "--samples"),
    (["--mode", "dense", "--seed", "5"], "--seed"),
    (["--mode", "analytic", "--samples", "5"], "--samples"),
    (["--mode", "analytic", "--seed", "5"], "--seed"),
    # --timing and --ideal left the CLI, so argparse rejects them
    (["--mode", "analytic", "--timing", "station"], "--timing"),
    (["--mode", "analytic", "--timing", "end"], "--timing"),
    (["--config", "{ini}", "--segments", "4", "--code", "repetition3"],
     "--segments and --code"),
    (["--config", "{ini}", "--timing", "end"], "--timing"),
    (["--config", "{ini}", "--samples", "5"], "--samples"),
    (["--config", "{ini}", "--p-resource", "0.9"], "--p-resource"),
    (["--config", "{ini}", "--q-meas", "0.9"], "--q-meas"),
    (["--config", "{ini}", "--q-channel", "0.9"], "--q-channel"),
    (["--config", "{ini}", "--ideal"], "--ideal"),
    (["--mode", "dense", "--timing", "end"], "--timing"),
    (["--mode", "dense", "--timing", "station"], "--timing"),
    (["--config", "{ini}", "--mode", "dense", "--seed", "5"], "--seed"),
    (["--timing", "end"], "--timing"),
    (["--segments", "2", "--timing", "station"], "--timing"),
    (["--mode", "analytic", "--samples", "5", "--seed", "5"], "--samples and --seed"),
    (["--config", "{ini}", "--mode", "analytic", "--samples", "5"], "--samples"),
    (["--config", "{ini}", "--code", "repetition3"], "--code"),
    (["--mode", "dense", "--samples", "5", "--seed", "5"], "--samples and --seed"),
    (["--config", "{ini}", "--segments", "4"], "--segments"),
    (["--config", "{ini}", "--samples", "5", "--q-channel", "0.9"],
     "--samples and --q-channel"),
    # no exact mode reads the INI's samples key
    (["--config", "{ini}", "--mode", "analytic"], "config [chain]: samples"),
    (["--config", "{ini}", "--mode", "dense"], "config [chain]: samples"),
])
def test_chain_rejects_options_it_does_not_read(extra, named, tmp_path, capsys):
    path = tmp_path / "chain.ini"
    path.write_text("[chain]\nsegments = 1\nsamples = 2\n")
    argv = ["chain"] + [str(path) if a == "{ini}" else a for a in extra]
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(rejection(named))
    assert len(err.strip().splitlines()) == 1


def test_chain_defaults_are_the_explicit_values(capsys):
    base = ["chain", "--mode", "trajectory", "--samples", "20", "--q-channel", "0.9"]
    _rc, implicit, _ = run(base, capsys)
    _rc, explicit, _ = run(base + ["--segments", "3", "--code", "ring5"], capsys)
    assert implicit == explicit and json.loads(implicit)["params"]["segments"] == 3


def test_chain_config_defaults_are_the_flag_defaults(tmp_path, monkeypatch, capsys):
    # a trajectory run of the default chain takes seconds, so the sampled
    # chain is replaced by the dense one of the same configuration
    configs = []

    def dense_chain(cfg, rng, mode):
        configs.append(cfg)
        return encoded_chain(cfg, rng, mode="dense")

    monkeypatch.setattr(cli, "encoded_chain", dense_chain)
    path = tmp_path / "chain.ini"
    path.write_text("[chain]\n")
    from_ini = run(["chain", "--config", str(path)], capsys)
    assert from_ini == run(["chain"], capsys)
    assert from_ini[0] == 0 and json.loads(from_ini[1])["params"]["segments"] == 3
    assert configs[0] == configs[1] and configs[0].samples == 10_000


def test_chain_config_reads_seed_and_mode(tmp_path, capsys):
    path = tmp_path / "chain.ini"
    path.write_text("[chain]\nsegments = 1\nsamples = 3\nq_channel = 0.9\n")
    rc, out, _err = run(["chain", "--config", str(path), "--seed", "4"], capsys)
    record = json.loads(out)
    assert rc == 0 and record["params"]["mode"] == "trajectory"
    assert (record["samples"], record["seed"], record["q_channel"]) == (3, 4, 0.9)
    # an exact mode reads no samples key
    rc, out, err = run(["chain", "--config", str(path), "--mode", "analytic"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: config [chain]: samples does not apply to --mode analytic "
                   "(it is exact: no sampling)\n")
    path.write_text("[chain]\nsegments = 1\nq_channel = 0.9\n")
    rc, out, _err = run(["chain", "--config", str(path), "--mode", "analytic"], capsys)
    assert rc == 0 and json.loads(out)["params"]["mode"] == "analytic"


def test_negative_rounds_exit_2_naming_rounds(capsys):
    rc, out, err = run(["repeater", "--rounds", "-1"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: rounds must be at least 0, got -1\n"


@pytest.mark.parametrize("ini,named", [
    ("[chain]\nrounds = -1\n", "'rounds'"),
    ("[chain]\ntype = repeater\n", "'type'"),
    ("[chain]\nq_chanel = 0.5\n", "'q_chanel'"),
    ("[chain]\nsegments = 2\n[station:1]\nq_meas = 0.9\n", "'q_meas'"),
    ("[chain]\nsegments = 2\n[stations:1]\nq_channel = 0.9\n", "[stations:1]"),
    ("[chain]\nsegments = 2\n[noise]\nq_channel = 0.9\n", "[noise]"),
    ("[chain]\nsegments = 2\n[station:x]\nq_channel = 0.9\n", "[station:x]"),
    ("[chain]\nsegments = 1\n[chain]\nsegments = 2\n", "'chain'"),
    ("[chain]\nq_channel = 50%\n", "'q_channel'"),
    ("[chain]\nsegments = 2\n[station:1]\nq_channel = 90%\n", "'q_channel'"),
])
def test_chain_config_bad_key_or_section_exits_2_naming_it(ini, named, tmp_path, capsys):
    path = tmp_path / "chain.ini"
    path.write_text(ini)
    rc, out, err = run(["chain", "--config", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: config") and named in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("ini,message", [
    ("[chain]\nsegments = x\n", "config [chain]: segments must be an integer, got 'x'"),
    ("[chain]\nsamples = 1.5\n", "config [chain]: samples must be an integer, got '1.5'"),
    ("[chain]\np_resource = high\n", "config [chain]: p_resource must be a number, got 'high'"),
    ("[chain]\nsegments = 2\n[station:0]\nq_channel = abc\n",
     "config [station:0]: q_channel must be a number, got 'abc'"),
])
def test_chain_config_value_of_wrong_type_exits_2_naming_it(ini, message, tmp_path, capsys):
    path = tmp_path / "chain.ini"
    path.write_text(ini)
    rc, out, err = run(["chain", "--config", str(path)], capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("extra,named", [
    (["--samples", "5"], "--samples"),
    (["--seed", "2"], "--seed"),
    (["--samples", "5", "--seed", "2"], "--samples and --seed"),
])
def test_analytic_repeater_rejects_sampling_options(extra, named, capsys):
    rc, out, err = run(["repeater", "--mode", "analytic"] + extra, capsys)
    assert rc == 2
    assert out == ""
    assert err == f"error: {named} {'do' if ' and ' in named else 'does'} not apply to " \
                  "--mode analytic (it is exact)\n"


def test_repeater_mc_defaults_are_the_explicit_values(capsys):
    base = ["repeater", "--mode", "mc", "--q-channel", "0.95"]
    _rc, implicit, _ = run(base, capsys)
    _rc, explicit, _ = run(base + ["--samples", "10000", "--seed", "1"], capsys)
    assert implicit == explicit


def test_no_kept_pair_reports_null_fidelity(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    rc, out, _err = run(["purify", "--F", "0.3", "--rounds", "3", "--engine", "mc",
                         "--samples", "10", "--csv-out", str(csv_path)], capsys)
    record = json.loads(out)
    assert rc == 0
    assert record["p_success"] == 0.0
    assert (record["fidelity"], record["ci_lo"], record["ci_hi"]) == (None, None, None)
    with open(csv_path, newline="") as fh:
        (cells,) = csv.DictReader(fh)
    assert (cells["fidelity"], cells["ci_lo"], cells["ci_hi"]) == ("", "", "")
    assert (cells["p_success"], cells["samples"]) == ("0.0", "10")


# noiseless runs keep every output pair of each whole output slot, so
# p_success is 1 also when the samples leave pairs over: 100 samples per
# segment on 4 segments fill 12 slots of 32 pairs, and 101 stepwise
# samples 25 slots of 4
@pytest.mark.parametrize("argv", [
    ["repeater", "--segments", "4", "--rounds", "1", "--samples", "100"],
    ["repeater", "--segments", "4", "--rounds", "1", "--samples", "96"],
    ["purify", "--F", "1", "--engine", "mc", "--mode", "stepwise", "--rounds", "2",
     "--samples", "101"],
], ids=["repeater-100", "repeater-96", "purify-stepwise-101"])
def test_noiseless_p_success_counts_whole_output_slots(argv, capsys):
    rc, out, _err = run(argv, capsys)
    assert rc == 0
    assert json.loads(out)["p_success"] == 1.0


def test_repeater_with_no_whole_output_slot_exits_2_naming_the_samples_needed(capsys):
    rc, out, err = run(["repeater", "--rounds", "2", "--samples", "7"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("error: 7 samples per segment fill no output slot of 256 elementary "
                   "pairs; need at least 64\n")
    rc, out, _err = run(["repeater", "--rounds", "2", "--samples", "64"], capsys)
    assert rc == 0 and json.loads(out)["p_success"] is not None


@pytest.mark.parametrize("rounds,samples", [(2, 3), (3, 7)])
def test_purify_with_no_whole_output_slot_exits_2_naming_the_samples_needed(
        rounds, samples, tmp_path, capsys):
    # stepwise rounds purify the pairs in slots of 2^rounds, as the
    # repeater's stations do
    csv_path = tmp_path / "r.csv"
    argv = ["purify", "--F", "1", "--engine", "mc", "--mode", "stepwise",
            "--rounds", str(rounds), "--csv-out", str(csv_path)]
    rc, out, err = run(argv + ["--samples", str(samples)], capsys)
    assert (rc, out) == (2, "")
    assert err == (f"error: {samples} samples fill no output slot of {1 << rounds} "
                   f"elementary pairs; need at least {1 << rounds}\n")
    assert not csv_path.exists()
    rc, out, _err = run(argv + ["--samples", str(1 << rounds)], capsys)
    assert rc == 0 and json.loads(out)["p_success"] == 1.0


def test_repeater_without_purification_runs(capsys):
    rc, out, _err = run(["repeater", "--rounds", "0", "--samples", "100"], capsys)
    assert rc == 0
    assert json.loads(out)["params"]["rounds"] == 0


# every threshold is exact: threshold has no sampling options at all
@pytest.mark.parametrize("option", [["--samples", "10"], ["--seed", "2"]])
def test_threshold_repeater_rejects_sampling_options(option, capsys):
    rc, out, err = run(["threshold", "--formula", "repeater"] + option, capsys)
    assert rc == 2
    assert out == ""
    assert err == f"mbqcomm: error: unrecognized arguments: {' '.join(option)}\n"


@pytest.mark.parametrize("segments,message", [
    ("0", "need at least one segment"),
    ("-4", "need at least one segment"),
    ("3", "repeater segment count must be a power of two"),
], ids=["0", "-4", "3"])
def test_repeater_and_its_threshold_reject_segments_alike(segments, message, capsys):
    for argv in (["repeater", "--mode", "analytic"], ["threshold", "--formula", "repeater"]):
        rc, out, err = run(argv + ["--segments", segments], capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("code", ["repetition2", "repetition3", "repetition5-phase"])
def test_code_that_never_beats_the_physical_error_is_named(code, capsys):
    message = f"code {code} never beats the physical error"
    rc, out, err = run(["threshold", "--formula", "code", "--code", code], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1


def test_threshold_code_reports_the_exact_crossing_beside_the_bound(capsys):
    rc, out, _err = run(["threshold", "--formula", "code", "--code", "ring5"], capsys)
    details = json.loads(out)["details"]
    assert rc == 0
    assert abs(details["exact_p_tilde"] - 0.81650) < 5e-6
    assert abs(details["exact_p_crit"] - 0.93466) < 5e-6
    assert details["exact_p_tilde"] < details["p_tilde"]


def test_threshold_code_finds_the_exact_crossing(capsys):
    rc, out, _err = run(["threshold", "--formula", "code", "--code", "ring5"], capsys)
    assert rc == 0
    assert abs(json.loads(out)["details"]["exact_p_crit"] - 0.9346553) < 1e-6


PURIFY_ANALYTIC = ["purify", "--engine", "analytic", "--F", "0.8", "--rounds", "2"]


@pytest.mark.parametrize("extra,named", [
    (["--samples", "7"], "--samples"),
    (["--seed", "4"], "--seed"),
    (["--shards", "2"], "--shards"),
    (["--samples", "7", "--seed", "4"], "--samples and --seed"),
])
def test_analytic_purify_rejects_sampling_options(extra, named, capsys):
    rc, out, err = run(PURIFY_ANALYTIC + extra, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(rejection(named))
    assert len(err.strip().splitlines()) == 1


def test_analytic_purify_record_has_no_sampling(capsys):
    rc, out, _err = run(PURIFY_ANALYTIC, capsys)
    record = json.loads(out)
    assert rc == 0
    assert (record["samples"], record["seed"]) == (0, None)


@pytest.mark.parametrize("samples,seed", [(10, 3), (3, 5)])
def test_stabilizer_record_reports_requested_samples(samples, seed, capsys):
    argv = ["purify", "--engine", "stabilizer", "--F", "0.8", "--rounds", "2",
            "--p-resource", "0.97", "--q-meas", "0.97",
            "--samples", str(samples), "--seed", str(seed)]
    rc, out, _err = run(argv, capsys)
    assert rc == 0
    assert json.loads(out)["samples"] == samples


@pytest.mark.parametrize("formula,assume", [
    ("universal-epp", "1.5"),
    ("universal-epp", "50%"),
    ("universal-epp", "banana"),
    ("code", "0.9"),
    ("code", "banana"),
    ("shor-type", "0.9"),
    ("shor-type", "banana"),
    ("hashing", "q=1"),
    ("dephasing-repetition", "q=p"),
])
def test_threshold_bad_assume_exits_2_naming_assume(formula, assume, capsys):
    rc, out, err = run(["threshold", "--formula", formula, "--assume", assume], capsys)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--assume" in err


@pytest.mark.parametrize("formula,assume,shown", [
    ("universal-epp", [], {"q": "p"}),
    ("universal-epp", ["--assume", "q=1"], {"q": 1.0}),
    ("universal-epp", ["--assume", "0.9"], {"q": 0.9}),
    ("code", ["--assume", "q=1"], {"regime": "q=1"}),
    ("shor-type", [], {"regime": "q=p"}),
])
def test_threshold_assume_selects_the_regime(formula, assume, shown, capsys):
    rc, out, _err = run(["threshold", "--formula", formula] + assume, capsys)
    assert rc == 0
    assert json.loads(out)["assumptions"] == shown


# the brackets the grid-and-bisection sweep found for the same boundaries
@pytest.mark.parametrize("formula,key,bracket", [
    ("universal-epp", ("analytic",), (0.7598356119791666, 0.75983642578125)),
    ("code", ("details", "exact_p_crit"), (0.9346550952613472, 0.9346557056129097)),
    ("repeater", ("analytic",), (0.7598779296874999, 0.7598787434895833)),
], ids=["universal-epp", "code", "repeater"])
def test_threshold_lies_in_the_old_sweep_bracket(formula, key, bracket, capsys):
    rc, out, _err = run(["threshold", "--formula", formula], capsys)
    value = json.loads(out)
    for name in key:
        value = value[name]
    assert rc == 0
    assert bracket[0] <= value <= bracket[1]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["repeater", "--mode", "analytic"],
                                  ["threshold", "--formula", "code"]])
def test_closed_stdout_exits_0_silently(argv, buffered):
    # the reader end of the child's stdout is closed before the child starts,
    # as `mbqcomm ... | head -c 1` leaves it once head has exited
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "mbqcomm.cli", *argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE,
                               timeout=60)
    finally:
        os.close(write_end)
    # threshold writes a summary line on stderr; the closed pipe adds nothing to it
    summary = subprocess.run(command, env=env, capture_output=True, timeout=60).stderr
    assert child.returncode == 0
    assert child.stderr in (b"", summary)


def test_importing_the_cli_draws_nothing_and_builds_nothing():
    # set-up work belongs inside `main`, where each run pays for it: the
    # import alone loads no random generator and builds no catalog entry;
    # modules that one subcommand or option alone uses are loaded by it, and
    # the value types are plain classes, so `dataclasses` is never loaded.
    # What the import made lives for the whole run, so it is frozen out of
    # later collections, and the collector stays on
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    check = ("import gc, sys, mbqcomm.cli, mbqcomm.catalog as c; "
             "loaded = [m for m in ('numpy.random', 'csv', 'configparser', "
             "'mbqcomm.thresholds', 'dataclasses') if m in sys.modules]; "
             "assert not loaded, loaded; "
             "assert not c._BUILT, c._BUILT; "
             "assert gc.isenabled() and gc.get_freeze_count() > 0, gc.get_freeze_count()")
    child = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr


def parse(parser, argv, capsys):
    """(exit status, stdout, stderr) of `parser.parse_args(argv)`; status
    None when it parses."""
    try:
        parser.parse_args(argv)
        rc = None
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


# per subcommand: arguments that parse, an option with a bad value, and
# the arguments with a required option missing (None: it has none)
PARSE_CASES = {
    "purify": (["--F", "0.8"], ["--F", "0.8", "--rounds", "x"], []),
    "hashing": (["--F", "0.9"], ["--F", "0.9", "--pairs", "x"], ["--pairs", "4"]),
    "qec": ([], ["--samples", "0"], None),
    "chain": ([], ["--mode", "bad"], None),
    "repeater": ([], ["--rounds", "x"], None),
    "threshold": (["--formula", "hashing"], ["--formula", "bad"], ["--code", "ring5"]),
}


def test_every_subcommand_has_parse_cases():
    assert set(PARSE_CASES) == set(cli.SUBCOMMANDS)


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_one_subcommand_parser_parses_as_the_full_parser(name, monkeypatch, capsys):
    # `main` builds the invoked subcommand's parser alone; what it prints
    # and the status it exits with are those of the full parser
    monkeypatch.setenv("COLUMNS", "80")
    ok, bad_value, missing = PARSE_CASES[name]
    no_value = "--segments" if name == "threshold" else "--samples"
    cases = [["--help"], ok + ["--unknown", "1"], ok + ["stray"], bad_value, ok + [no_value]]
    if missing is not None:
        cases.append(missing)
    for argv in cases:
        full = parse(cli.build_parser(), [name, *argv], capsys)
        alone = parse(cli.build_parser(name), [name, *argv], capsys)
        assert alone == full, argv
        assert full[0] in (0, 2) and (full[1] or full[2]), argv
    assert parse(cli.build_parser(name), [name, *ok], capsys) == (None, "", "")


TOP_LEVEL_HELP = """\
usage: mbqcomm [-h] [--version]
               {purify,hashing,qec,chain,repeater,threshold} ...

measurement-based quantum communication simulator

positional arguments:
  {purify,hashing,qec,chain,repeater,threshold}
    purify              recurrence entanglement purification
    hashing             hashing purification (exact decode)
    qec                 measurement-based error correction
    chain               encoded transmission chain
    repeater            nested repeater chain
    threshold           closed-form threshold solvers and the repeater's exact
                        fidelity-1/2 crossing

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


@pytest.mark.parametrize("argv, expected", [
    ([], (2, "", "mbqcomm: error: the following arguments are required: command\n")),
    (["--help"], (0, TOP_LEVEL_HELP, "")),
    (["--version"], (0, "0.2.0\n", "")),
    (["nope"], (2, "", "mbqcomm: error: argument command: invalid choice: 'nope' (choose "
                       "from 'purify', 'hashing', 'qec', 'chain', 'repeater', 'threshold')\n")),
])
def test_top_level_output_is_kept(argv, expected, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv, capsys) == expected
