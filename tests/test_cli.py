"""Tests for command-line input handling and the reported sample count."""

import json

import pytest

from mbqcomm.cli import main

PURIFY_MC = ["purify", "--engine", "mc", "--F", "0.8", "--rounds", "2",
             "--p-resource", "0.97", "--q-meas", "0.97"]


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
    PURIFY_MC + ["--shards", "0"],
    PURIFY_MC + ["--samples", "100", "--shards", "-1"],
    ["qec", "--samples", "0"],
    ["hashing", "--F", "0.9", "--samples", "0"],
    ["chain", "--samples", "0"],
    ["repeater", "--samples", "0"],
    ["sweep", "--target", "epp", "--samples", "0"],
])
def test_bad_counts_exit_2_with_one_line(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["hashing", "--F", "0.9", "--shards", "2"],
    ["qec", "--shards", "2"],
    ["chain", "--shards", "2"],
    ["repeater", "--shards", "2"],
    ["chain", "--csv-out", "x.csv"],
    ["chain", "--json-out", "x.jsonl"],
    ["repeater", "--csv-out", "x.csv"],
    ["repeater", "--json-out", "x.jsonl"],
])
def test_unread_options_are_rejected(argv, capsys):
    rc, _out, err = run(argv, capsys)
    assert rc == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("mode", ["merged", "stepwise"])
@pytest.mark.parametrize("samples,shards", [(10, 3), (1000, 1), (1001, 4), (3, 5)])
def test_record_reports_requested_samples(mode, samples, shards, capsys):
    argv = PURIFY_MC + ["--mode", mode, "--samples", str(samples),
                        "--shards", str(shards)]
    rc, out, _err = run(argv, capsys)
    assert rc == 0
    assert json.loads(out)["samples"] == samples


def test_one_shard_record_is_reproducible(capsys):
    argv = PURIFY_MC + ["--samples", "5000", "--seed", "4"]
    _rc, first, _ = run(argv, capsys)
    _rc, second, _ = run(argv + ["--shards", "1"], capsys)
    assert first == second
