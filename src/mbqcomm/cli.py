"""Command-line interface: purify | hashing | qec | chain | repeater |
threshold.

All noise inputs are probabilities in [0, 1]; percent values are
rejected. A seed is an integer >= 0 of any size. A run is bitwise
reproducible from its seed, its options and the package version. Every
option a subcommand takes, and every key of a chain INI file, changes
what it reports; one it would not read is rejected in one line with
exit status 2.

The five protocol subcommands (purify, hashing, qec, chain, repeater)
each print one `ResultRecord` (schema 2) as one JSON line; what a run
reports beside the fixed columns, such as resource counts, is in its
`report` object. `--csv-out` also writes the record as a one-row CSV
file. `threshold` prints its own report.

`main` builds the parser of the invoked subcommand alone when its
arguments start with a subcommand name; the full parser, with all six,
is built only for help, `--version`, and a missing or unknown
subcommand. Both print the same usage, help and error text. Modules that
one subcommand or option alone uses (the threshold solvers, INI and CSV
handling) are imported by the code that uses them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import __version__
from .belldiag import werner
from .catalog import code_by_name
from .netsim import (
    ChainConfig,
    encoded_chain,
    encoded_trajectories,
    enumerate_single_errors,
    repeater_chain,
)
from .noise import NoiseModel
from .protocols import purify_hashing, purify_recurrence
from .results import ResultRecord, config_hash, write_csv
from .rng import make_rng

# defaults shared by the flags and the chain INI file
SAMPLES, SEED, SEGMENTS, CODE = 10_000, 1, 3, "ring5"
REPEATER_SEGMENTS = 4


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


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class OneLineParser(argparse.ArgumentParser):
    """Reports bad input in one line on stderr and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def add_noise_args(p: argparse.ArgumentParser, channel: bool = True):
    """The noise flags; `channel` False for subcommands that send nothing
    through a channel (their input pairs already carry that noise)."""
    p.add_argument("--p-resource", type=probability, default=None,
                   help="per-particle resource noise parameter (default 1)")
    p.add_argument("--q-meas", type=probability, default=None,
                   help="per-qubit Bell measurement noise parameter (default 1)")
    if channel:
        p.add_argument("--q-channel", type=probability, default=None,
                       help="per-transmission/storage noise parameter (default 1)")


def noise_options(args) -> tuple:
    """The noise flags as (flag, value) pairs, None meaning not given."""
    return (("--p-resource", args.p_resource), ("--q-meas", args.q_meas),
            ("--q-channel", getattr(args, "q_channel", None)))


def noise_from_args(args) -> NoiseModel:
    """The noise model of the given flags; an unset parameter is 1."""
    return NoiseModel(*(1.0 if value is None else value for _, value in noise_options(args)))


def add_run_args(p: argparse.ArgumentParser):
    p.add_argument("--samples", type=positive_int, default=None, help=f"defaults to {SAMPLES}")
    p.add_argument("--seed", type=nonnegative_int, default=None, help=f"defaults to {SEED}")
    p.add_argument("--csv-out", default=None, help="also write the record as a CSV file")


def reject_unread(options, context: str):
    """Reject, in one line, every given option that `context` never
    reads; `options` holds (flag, value) pairs, None meaning not given."""
    unread = [opt for opt, value in options if value is not None]
    if unread:
        verb = "does" if len(unread) == 1 else "do"
        raise ValueError(f"{' and '.join(unread)} {verb} not apply to {context}")


def sampling(args, exact: str | None) -> tuple:
    """(samples, seed, rng) of a run, the flags' defaults filled in; all
    None for an exact run, which rejects --samples and --seed naming
    `exact`, its context."""
    if exact:
        reject_unread((("--samples", args.samples), ("--seed", args.seed)), exact)
        return None, None, None
    seed = SEED if args.seed is None else args.seed
    return SAMPLES if args.samples is None else args.samples, seed, make_rng(seed)


def emit(args, params: dict, noise: NoiseModel, stats, samples: int | None,
         seed: int | None) -> int:
    """Print the record of the run of subcommand `args.command`, after
    writing it to the requested CSV file: a path that cannot be written
    ends the run before anything is printed. Its config hash covers
    params, noise, samples and seed."""
    cfg_hash = config_hash({**params, "noise": [noise.p_resource, noise.q_meas, noise.q_channel],
                            "samples": samples, "seed": seed})
    record = ResultRecord.from_stats(args.command, params, noise, stats, seed, cfg_hash)
    if args.csv_out:
        write_csv(args.csv_out, [record])
    print(record.to_json())
    return 0


def cmd_purify(args) -> int:
    noise = noise_from_args(args)
    params = {
        "F": args.F, "rounds": args.rounds, "mode": args.mode,
        "engine": args.engine, "variant": args.variant,
    }
    samples, seed, rng = sampling(args, "--engine analytic (it is exact)"
                                  if args.engine == "analytic" else None)
    stats = purify_recurrence(werner(args.F), args.rounds, noise, mode=args.mode,
                              samples=samples, rng=rng, engine=args.engine,
                              variant=args.variant)
    return emit(args, params, noise, stats, samples, seed)


def cmd_hashing(args) -> int:
    noise = noise_from_args(args)
    params = {"F": args.F, "pairs": args.pairs, "checks": args.checks}
    samples, seed, rng = sampling(args, None)
    stats = purify_hashing(werner(args.F), args.pairs, args.checks, noise, samples, rng)
    return emit(args, params, noise, stats, samples, seed)


def cmd_qec(args) -> int:
    noise = noise_from_args(args)
    if args.enumerate_errors:
        reject_unread((("--samples", args.samples), ("--seed", args.seed),
                       ("--csv-out", args.csv_out), *noise_options(args)),
                      "--enumerate-errors (it injects each correctable error once, "
                      "without noise or sampling)")
        good, total = enumerate_single_errors(code_by_name(args.code))
        print(f"{good}/{total} corrected")
        return 0 if good == total else 1
    samples, seed, rng = sampling(args, None)
    cfg = ChainConfig(segments=1, noise=noise, code=args.code, samples=samples)
    stats = encoded_trajectories(cfg, rng)
    return emit(args, {"code": args.code}, noise, stats, samples, seed)


CHAIN_KEYS = ("segments", "code", "samples", "p_resource", "q_meas", "q_channel")
STATION_KEYS = ("q_channel",)


def _station_index(section: str) -> int:
    """The segment index of a `[station:<int>]` section name."""
    kind, _, index = section.partition(":")
    if kind != "station":
        raise ValueError(f"config: unknown section [{section}] "
                         "(sections are [chain] and [station:<int>])")
    try:
        return int(index)
    except ValueError:
        raise ValueError(f"config: section [{section}] needs an integer station index") from None


def _config_number(sec, key: str, kind, default):
    """`sec[key]` read as `kind` (int or float), `default` when absent."""
    text = sec.get(key)
    if text is None:
        return default
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config [{sec.name}]: {key} must be {what}, got {text!r}") from None


def parse_chain_config(path: str, exact: str | None) -> ChainConfig:
    """The chain an INI file sets. `exact`, the context of an exact mode,
    rejects the `samples` key, which no exact mode reads."""
    import configparser  # only a chain INI file needs it

    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config {path!r}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    if "chain" not in parser:
        raise ValueError("config needs a [chain] section")
    overrides = {}
    for name in parser.sections():
        index = None if name == "chain" else _station_index(name)
        known = CHAIN_KEYS if index is None else STATION_KEYS
        unknown = [key for key in parser[name] if key not in known]
        if unknown:
            raise ValueError(f"config [{name}]: unknown key {unknown[0]!r} "
                             f"(known: {', '.join(known)})")
        for key in ("p_resource", "q_meas", "q_channel"):
            if "%" in parser[name].get(key, ""):
                raise ValueError(f"config [{name}]: {key!r} takes a probability, "
                                 "not a percent value")
        if index is not None:
            overrides[index] = _config_number(parser[name], "q_channel", float, None)
    sec = parser["chain"]
    if exact:
        reject_unread((("config [chain]: samples", sec.get("samples")),), exact)
    noise = NoiseModel(*(_config_number(sec, key, float, 1.0)
                         for key in ("p_resource", "q_meas", "q_channel")))
    return ChainConfig(
        segments=_config_number(sec, "segments", int, SEGMENTS),
        noise=noise,
        code=sec.get("code", CODE),
        samples=_config_number(sec, "samples", int, SAMPLES),
        channel_overrides=overrides,
    )


def cmd_chain(args) -> int:
    exact = None if args.mode == "trajectory" else f"--mode {args.mode} (it is exact: no sampling)"
    samples, seed, rng = sampling(args, exact)
    if args.config:
        reject_unread((("--segments", args.segments), ("--code", args.code),
                       ("--samples", args.samples), *noise_options(args)),
                      "--config (the INI file sets the chain)")
        cfg = parse_chain_config(args.config, exact)
        samples = None if exact else cfg.samples
    else:
        cfg = ChainConfig(
            segments=SEGMENTS if args.segments is None else args.segments,
            noise=noise_from_args(args),
            code=CODE if args.code is None else args.code,
            samples=samples or SAMPLES,
        )
    stats = encoded_chain(cfg, rng, mode=args.mode)
    params = {"mode": args.mode, "segments": cfg.segments, "code": cfg.code,
              "channel_overrides": {str(seg): q for seg, q in cfg.channel_overrides.items()}}
    return emit(args, params, cfg.noise, stats, samples, seed)


def cmd_repeater(args) -> int:
    samples, seed, rng = sampling(args, "--mode analytic (it is exact)"
                                  if args.mode == "analytic" else None)
    noise = noise_from_args(args)
    cfg = ChainConfig(segments=args.segments, noise=noise, purify_rounds=args.rounds,
                      samples=samples or SAMPLES)
    stats = repeater_chain(cfg, rng, mode=args.mode)
    params = {"mode": args.mode, "segments": args.segments, "rounds": args.rounds}
    return emit(args, params, noise, stats, samples, seed)


def assumption(formula: str, text: str | None):
    """The regime `--assume` selects: 'q=p' (the default) or 'q=1', or a
    fixed q for universal-epp; None for formulas that take no regime."""
    if formula in ("hashing", "repeater", "dephasing-repetition"):
        if text is not None:
            raise ValueError(f"--assume does not apply to --formula {formula}")
        return None
    if text in (None, "q=p", "q=1"):
        return text or "q=p"
    if formula != "universal-epp":
        raise ValueError(f"--assume for --formula {formula} takes 'q=p' or 'q=1', "
                         f"got {text!r}")
    try:
        return probability(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"--assume takes 'q=p', 'q=1' or a probability: {exc}") from None


def cmd_threshold(args) -> int:
    from .thresholds import (  # only this subcommand needs the solvers
        code_threshold,
        dephasing_repetition_threshold,
        hashing_threshold,
        repeater_threshold,
        shor_type_threshold,
        universal_epp_threshold,
    )

    regime = assumption(args.formula, args.assume)
    reject_unread([(flag, value) for flag, value, formula in
                   (("--code", args.code, "code"), ("--segments", args.segments, "repeater"))
                   if formula != args.formula], f"--formula {args.formula}")
    if args.formula == "universal-epp":
        report = universal_epp_threshold({"q=p": None, "q=1": 1.0}.get(regime, regime))
    elif args.formula == "hashing":
        report = hashing_threshold()
    elif args.formula == "code":
        report = code_threshold(code_by_name(CODE if args.code is None else args.code), regime)
    elif args.formula == "shor-type":
        report = shor_type_threshold(regime)
    elif args.formula == "repeater":
        report = repeater_threshold(REPEATER_SEGMENTS if args.segments is None
                                    else args.segments)
    else:
        report = dephasing_repetition_threshold()
    print(json.dumps(report.to_dict(), sort_keys=True))
    print(f"# {report.name}: p_crit = {report.analytic:.6f} "
          f"({report.noise_percent:.1f}% tolerable noise)", file=sys.stderr)
    return 0


def _add_purify(sub):
    p = sub.add_parser("purify", help="recurrence entanglement purification")
    p.add_argument("--F", type=probability, required=True,
                   help="Werner fidelity of the input pairs, channel noise included")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--mode", choices=["merged", "stepwise"], default="merged")
    p.add_argument("--variant", choices=["DEJMPS", "BBPSSW"], default="DEJMPS")
    p.add_argument("--engine", choices=["analytic", "mc", "stabilizer"],
                   default="mc")
    add_noise_args(p, channel=False)
    add_run_args(p)
    p.set_defaults(func=cmd_purify)


def _add_hashing(sub):
    p = sub.add_parser("hashing", help="hashing purification (exact decode)")
    p.add_argument("--F", type=probability, required=True,
                   help="Werner fidelity of the input pairs, channel noise included")
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--checks", type=int, default=8)
    add_noise_args(p, channel=False)
    add_run_args(p)
    p.set_defaults(func=cmd_hashing)


def _add_qec(sub):
    p = sub.add_parser("qec", help="measurement-based error correction")
    p.add_argument("--code", default=CODE)
    p.add_argument("--enumerate-errors", action="store_true")
    add_noise_args(p)
    add_run_args(p)
    p.set_defaults(func=cmd_qec)


def _add_chain(sub):
    p = sub.add_parser("chain", help="encoded transmission chain")
    p.add_argument("--config", default=None, help="INI chain config file")
    p.add_argument("--segments", type=int, default=None, help=f"defaults to {SEGMENTS}")
    p.add_argument("--code", default=None, help=f"defaults to {CODE}")
    p.add_argument("--mode", choices=["trajectory", "analytic", "dense"],
                   default="trajectory",
                   help="trajectory samples the noisy resources shot by shot; dense is "
                        "the exact composed channel of perfect corrections; analytic is "
                        "the paper's closed-form bound on it")
    add_noise_args(p)
    add_run_args(p)
    p.set_defaults(func=cmd_chain)


def _add_repeater(sub):
    p = sub.add_parser("repeater", help="nested repeater chain")
    p.add_argument("--segments", type=int, default=REPEATER_SEGMENTS)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--mode", choices=["analytic", "mc"], default="mc")
    add_noise_args(p)
    add_run_args(p)
    p.set_defaults(func=cmd_repeater)


def _add_threshold(sub):
    p = sub.add_parser("threshold", help="closed-form threshold solvers and the "
                                         "repeater's exact fidelity-1/2 crossing")
    p.add_argument("--formula", required=True,
                   choices=["universal-epp", "hashing", "code", "shor-type", "repeater",
                            "dephasing-repetition"])
    p.add_argument("--assume", default=None,
                   help="'q=p' (default) or 'q=1'; universal-epp also takes a fixed q "
                        "value; hashing, repeater and dephasing-repetition take none")
    p.add_argument("--code", default=None, help=f"--formula code only; defaults to {CODE}")
    p.add_argument("--segments", type=int, default=None,
                   help=f"repeater only; defaults to {REPEATER_SEGMENTS}")
    p.set_defaults(func=cmd_threshold)


# each subcommand's parser, in the order the top-level help lists them
SUBCOMMANDS = {"purify": _add_purify, "hashing": _add_hashing, "qec": _add_qec,
               "chain": _add_chain, "repeater": _add_repeater, "threshold": _add_threshold}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; given a subcommand name, it holds that subcommand's
    parser alone, and it parses that subcommand's arguments as the full
    parser does."""
    parser = OneLineParser(
        prog="mbqcomm",
        description="measurement-based quantum communication simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in SUBCOMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run that names its subcommand first builds that subparser alone;
    # help, --version and a missing or unknown subcommand need them all
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return rc
    except BrokenPipeError:
        # the reader left: later flushes go to devnull, as the `signal` docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the request, e.g. "Unable to allocate 1.25 EiB for an array ..."
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


# what the import made lives as long as the process: no collection re-walks it
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
