"""Command-line interface: purify | hashing | qec | chain | repeater |
threshold | sweep | oracle-check.

All noise inputs are probabilities in [0, 1]; percent values are
rejected. Single-shard runs are bitwise reproducible from the seed;
multi-shard aggregates are shard-order independent.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from collections import Counter

from . import __version__
from .belldiag import werner
from .catalog import code_by_name
from .codes import all_single_qubit_errors
from .netsim import ChainConfig, encoded_chain, repeater_chain
from .noise import NoiseModel
from .pauli import PauliString
from .protocols import (
    HashingEnsemble,
    ProtocolStats,
    bd_index_of_pair,
    purify_hashing,
    purify_recurrence,
    qec_correct,
    qec_decode,
    qec_encode,
    stats_from_counts,
    wilson_interval,
)
from .resources import LabeledRegister
from .results import ResultRecord, config_hash, write_csv, write_jsonl, write_plot_csv
from .rng import default_shards, make_rng
from .tableau import StabilizerState
from .thresholds import (
    ThresholdError,
    code_threshold,
    dephasing_repetition_threshold,
    epp_regime_detector,
    hashing_threshold,
    repeater_regime_detector,
    shor_type_threshold,
    sweep,
    universal_epp_threshold,
)


def probability(text: str) -> float:
    """Parse a probability; percent inputs are rejected on purpose."""
    if "%" in text:
        raise argparse.ArgumentTypeError(
            "probabilities only (e.g. 0.95), percent values are ambiguous"
        )
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class OneLineParser(argparse.ArgumentParser):
    """Reports bad input in one line on stderr and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def add_noise_args(p: argparse.ArgumentParser):
    p.add_argument("--p-resource", type=probability, default=1.0,
                   help="per-particle resource noise parameter")
    p.add_argument("--q-meas", type=probability, default=1.0,
                   help="per-qubit Bell measurement noise parameter")
    p.add_argument("--q-channel", type=probability, default=1.0,
                   help="per-transmission/storage noise parameter")
    p.add_argument("--ideal", action="store_true",
                   help="shorthand for all noise parameters = 1")


def noise_from_args(args) -> NoiseModel:
    if args.ideal:
        return NoiseModel()
    return NoiseModel(args.p_resource, args.q_meas, args.q_channel)


def add_run_args(p: argparse.ArgumentParser, outputs: bool = True):
    p.add_argument("--samples", type=positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    if outputs:
        p.add_argument("--csv-out", default=None)
        p.add_argument("--json-out", default=None)


def emit(args, record: ResultRecord):
    print(record.to_json())
    if args.csv_out:
        write_csv(args.csv_out, [record])
    if args.json_out:
        write_jsonl(args.json_out, [record])


def cmd_purify(args) -> int:
    noise = noise_from_args(args)
    state = werner(args.F)
    params = {
        "F": args.F, "rounds": args.rounds, "mode": args.mode,
        "engine": args.engine, "variant": args.variant,
    }
    cfg_hash = config_hash({**params, "noise": [noise.p_resource, noise.q_meas,
                                                noise.q_channel],
                            "samples": args.samples, "seed": args.seed})
    if args.engine == "analytic":
        stats = purify_recurrence(state, args.rounds, noise, mode=args.mode,
                                  engine="analytic", variant=args.variant)
    else:
        shards = args.shards if args.shards is not None else default_shards()
        counts = Counter()
        for shard in range(shards):
            size = args.samples // shards + (shard < args.samples % shards)
            if size:
                part = purify_recurrence(state, args.rounds, noise, mode=args.mode,
                                         samples=size, rng=make_rng(args.seed, shard),
                                         engine=args.engine, variant=args.variant)
                counts.update(part.extra["counts"])
        stats = stats_from_counts(dict(counts), 1 << args.rounds)
    record = ResultRecord.from_stats("purify", params, noise, stats,
                                     args.seed, cfg_hash)
    emit(args, record)
    return 0


def cmd_hashing(args) -> int:
    noise = noise_from_args(args)
    ens = HashingEnsemble(args.pairs, werner(args.F))
    params = {"F": args.F, "pairs": args.pairs, "checks": args.checks}
    cfg_hash = config_hash({**params, "seed": args.seed, "samples": args.samples})
    rng = make_rng(args.seed)
    stats = purify_hashing(ens, args.checks, noise, args.samples, rng)
    record = ResultRecord.from_stats("hashing", params, noise, stats,
                                     args.seed, cfg_hash)
    emit(args, record)
    return 0


def _qec_enumerate(code, noise, rng) -> tuple[int, int]:
    """Inject each correctable basis error; count exact recoveries."""
    if code.name.startswith("repetition"):
        letter = "Z" if code.name.endswith("phase") else "X"
        errors = [PauliString.single(code.n, q, letter) for q in range(code.n)]
        errors = [e for e in errors if e.weight <= code.correctable_weight]
    else:
        errors = all_single_qubit_errors(code.n)
    good = 0
    for err in errors:
        reg = LabeledRegister.from_state(StabilizerState.bell_pair(), ["ref", "in"])
        e = qec_encode(code, reg, "in", noise, rng)
        reg.apply_pauli(err, e.labels)
        c = qec_correct(code, reg, e.labels, noise, rng, frame=e.frame)
        d = qec_decode(code, reg, c.labels, noise, rng, frame=c.frame)
        reg.apply_pauli(d.frame, d.labels)
        if bd_index_of_pair(reg, "ref", d.labels[0]) == 0:
            good += 1
    return good, len(errors)


def cmd_qec(args) -> int:
    noise = noise_from_args(args)
    code = code_by_name(args.code)
    rng = make_rng(args.seed)
    if args.enumerate_errors:
        good, total = _qec_enumerate(code, NoiseModel(), rng)
        print(f"{good}/{total} corrected")
        return 0 if good == total else 1
    good = 0
    for _ in range(args.samples):
        reg = LabeledRegister.from_state(StabilizerState.bell_pair(), ["ref", "in"])
        e = qec_encode(code, reg, "in", noise, rng)
        reg.depolarize(e.labels, noise.q_channel, rng)
        c = qec_correct(code, reg, e.labels, noise, rng, frame=e.frame)
        d = qec_decode(code, reg, c.labels, noise, rng, frame=c.frame)
        reg.apply_pauli(d.frame, d.labels)
        good += bd_index_of_pair(reg, "ref", d.labels[0]) == 0
    fid = good / args.samples
    lo, hi = wilson_interval(good, args.samples)
    params = {"code": args.code}
    stats = ProtocolStats(fid, (lo, hi), 1.0, (1.0, 1.0), 1.0, args.samples,
                          extra={"counts": {"good": good, "kept": args.samples,
                                            "attempts": args.samples}})
    record = ResultRecord.from_stats("qec", params, noise, stats, args.seed,
                                     config_hash({**params, "seed": args.seed}))
    emit(args, record)
    return 0


def parse_chain_config(path: str) -> tuple[ChainConfig, str]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    if "chain" not in parser:
        raise ValueError("config needs a [chain] section")
    sec = parser["chain"]
    for key in ("p_resource", "q_meas", "q_channel"):
        if "%" in sec.get(key, ""):
            raise ValueError(f"{key}: probabilities only, no percent values")
    noise = NoiseModel(
        sec.getfloat("p_resource", 1.0),
        sec.getfloat("q_meas", 1.0),
        sec.getfloat("q_channel", 1.0),
    )
    overrides = {}
    for name in parser.sections():
        if name.startswith("station:"):
            idx = int(name.split(":", 1)[1])
            overrides[idx] = parser[name].getfloat("q_channel")
    cfg = ChainConfig(
        segments=sec.getint("segments", 2),
        noise=noise,
        code=sec.get("code", "ring5"),
        purify_rounds=sec.getint("rounds", 1),
        samples=sec.getint("samples", 1000),
        correction_timing=sec.get("timing", "end"),
        channel_overrides=overrides,
    )
    return cfg, sec.get("type", "encoded")


def cmd_chain(args) -> int:
    if args.config:
        cfg, _kind = parse_chain_config(args.config)
    else:
        cfg = ChainConfig(
            segments=args.segments,
            noise=noise_from_args(args),
            code=args.code,
            samples=args.samples,
            correction_timing=args.timing,
        )
    rng = make_rng(args.seed)
    result = encoded_chain(cfg, rng, mode=args.mode)
    payload = {
        "protocol": "chain",
        "mode": args.mode,
        "segments": cfg.segments,
        "code": cfg.code,
        "fidelity": result.fidelity,
        "ci": list(result.fidelity_ci),
        "resources": result.resources,
        "extra": {k: v for k, v in result.extra.items() if k != "branches"},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_repeater(args) -> int:
    cfg = ChainConfig(
        segments=args.segments,
        noise=noise_from_args(args),
        purify_rounds=args.rounds,
        samples=args.samples,
    )
    rng = make_rng(args.seed)
    result = repeater_chain(cfg, rng, mode=args.mode)
    payload = {
        "protocol": "repeater",
        "mode": args.mode,
        "segments": cfg.segments,
        "rounds": cfg.purify_rounds,
        "fidelity": result.fidelity,
        "ci": list(result.fidelity_ci),
        "p_success": result.p_success,
        "resources": result.resources,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_threshold(args) -> int:
    try:
        if args.formula == "universal-epp":
            if args.assume == "q=p":
                report = universal_epp_threshold("q=p")
            else:
                q = 1.0 if args.assume == "q=1" else probability(args.assume)
                report = universal_epp_threshold("q_fixed", q_value=q)
        elif args.formula == "hashing":
            report = hashing_threshold()
        elif args.formula == "code":
            regime = "q=p" if args.assume == "q=p" else "q=1"
            report = code_threshold(code_by_name(args.code), regime)
        elif args.formula == "shor-type":
            regime = "q=p" if args.assume == "q=p" else "q=1"
            report = shor_type_threshold(regime)
        elif args.formula == "dephasing-repetition":
            report = dephasing_repetition_threshold()
        else:
            print(f"unknown formula {args.formula!r}", file=sys.stderr)
            return 2
    except ThresholdError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(json.dumps(report.to_dict(), sort_keys=True))
    print(f"# {report.name}: p_crit = {report.analytic:.6f} "
          f"({report.noise_percent:.1f}% tolerable noise)", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    rng = make_rng(args.seed)
    if args.target == "epp":
        detector = epp_regime_detector(args.samples, rng)
        lo, hi = args.lo or 0.72, args.hi or 0.80
        analytic = universal_epp_threshold("q=p").analytic
    elif args.target == "repeater":
        detector = repeater_regime_detector(args.segments)
        lo, hi = args.lo or 0.72, args.hi or 0.80
        analytic = universal_epp_threshold("q=p").analytic
    elif args.target == "code":
        code = code_by_name(args.code)
        analytic = code_threshold(code, "q=p").analytic

        def detector(p: float):
            from .thresholds import code_improvement_mc

            return code_improvement_mc(code, p, args.samples, rng)

        lo, hi = args.lo or analytic - 0.03, args.hi or analytic + 0.03
    else:
        print(f"unknown sweep target {args.target!r}", file=sys.stderr)
        return 2
    try:
        result = sweep(detector, lo, hi, steps=args.steps, name=args.target)
    except ThresholdError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    payload = {
        "target": args.target,
        "boundary": result.boundary,
        "bracket": list(result.bracket),
        "analytic": analytic,
        "within": abs(result.boundary - analytic),
    }
    print(json.dumps(payload, sort_keys=True))
    if args.plot_out:
        write_plot_csv(args.plot_out, result.plot_rows())
    return 0


def cmd_oracle_check(args) -> int:
    from .oracle_check import oracle_check

    report = oracle_check(args.scope)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = OneLineParser(
        prog="mbqcomm",
        description="measurement-based quantum communication simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("purify", help="recurrence entanglement purification")
    p.add_argument("--F", type=probability, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--mode", choices=["merged", "stepwise"], default="merged")
    p.add_argument("--variant", choices=["DEJMPS", "BBPSSW"], default="DEJMPS")
    p.add_argument("--engine", choices=["analytic", "mc", "stabilizer"],
                   default="mc")
    add_noise_args(p)
    add_run_args(p)
    p.add_argument("--shards", type=positive_int, default=None,
                   help="defaults to MBQCOMM_SHARDS or 1")
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("hashing", help="hashing purification (exact decode)")
    p.add_argument("--F", type=probability, required=True)
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--checks", type=int, default=8)
    add_noise_args(p)
    add_run_args(p)
    p.set_defaults(func=cmd_hashing)

    p = sub.add_parser("qec", help="measurement-based error correction")
    p.add_argument("--code", default="ring5")
    p.add_argument("--enumerate-errors", action="store_true")
    add_noise_args(p)
    add_run_args(p)
    p.set_defaults(func=cmd_qec)

    p = sub.add_parser("chain", help="encoded transmission chain")
    p.add_argument("--config", default=None, help="INI chain config file")
    p.add_argument("--segments", type=int, default=3)
    p.add_argument("--code", default="ring5")
    p.add_argument("--timing", choices=["end", "station"], default="end")
    p.add_argument("--mode", choices=["trajectory", "analytic", "dense"],
                   default="trajectory")
    add_noise_args(p)
    add_run_args(p, outputs=False)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("repeater", help="nested repeater chain")
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--mode", choices=["analytic", "mc"], default="mc")
    add_noise_args(p)
    add_run_args(p, outputs=False)
    p.set_defaults(func=cmd_repeater)

    p = sub.add_parser("threshold", help="closed-form threshold solvers")
    p.add_argument("--formula", required=True,
                   choices=["universal-epp", "hashing", "code", "shor-type",
                            "dephasing-repetition"])
    p.add_argument("--assume", default="q=p",
                   help="'q=p', 'q=1' or a fixed q value")
    p.add_argument("--code", default="ring5")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", help="empirical threshold sweeps")
    p.add_argument("--target", required=True, choices=["epp", "repeater", "code"])
    p.add_argument("--lo", type=probability, default=None)
    p.add_argument("--hi", type=probability, default=None)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--code", default="ring5")
    p.add_argument("--samples", type=positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--plot-out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", help="regenerate and verify oracles")
    p.add_argument("--scope", default="all")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
