"""Result records: the fixed CSV schema and its JSON-lines mirror."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass

from . import __version__

CSV_SCHEMA_VERSION = 1
CSV_HEADER = (
    "schema",
    "protocol",
    "params",
    "p_resource",
    "q_meas",
    "q_channel",
    "fidelity",
    "ci_lo",
    "ci_hi",
    "p_success",
    "yield",
    "samples",
    "seed",
    "config_hash",
    "version",
)


def canonical_config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config_text(config).encode()).hexdigest()[:16]


def _cell(value: float | None) -> str:
    """A number's CSV cell; a value that does not exist is left empty."""
    return "" if value is None else repr(value)


@dataclass(frozen=True)
class ResultRecord:
    protocol: str
    params: dict
    p_resource: float
    q_meas: float
    q_channel: float
    fidelity: float | None
    ci_lo: float | None
    ci_hi: float | None
    p_success: float | None
    protocol_yield: float
    samples: int
    seed: int
    config_hash: str
    version: str = __version__

    @classmethod
    def from_stats(cls, protocol: str, params: dict, noise, stats, seed: int,
                   cfg_hash: str) -> "ResultRecord":
        return cls(
            protocol=protocol,
            params=params,
            p_resource=noise.p_resource,
            q_meas=noise.q_meas,
            q_channel=noise.q_channel,
            fidelity=stats.fidelity,
            ci_lo=stats.fidelity_ci[0],
            ci_hi=stats.fidelity_ci[1],
            p_success=stats.p_success,
            protocol_yield=stats.protocol_yield,
            samples=stats.samples,
            seed=seed,
            config_hash=cfg_hash,
        )

    def to_csv_row(self) -> list:
        return [
            CSV_SCHEMA_VERSION,
            self.protocol,
            canonical_config_text(self.params),
            repr(self.p_resource),
            repr(self.q_meas),
            repr(self.q_channel),
            _cell(self.fidelity),
            _cell(self.ci_lo),
            _cell(self.ci_hi),
            _cell(self.p_success),
            repr(self.protocol_yield),
            self.samples,
            self.seed,
            self.config_hash,
            self.version,
        ]

    def to_json(self) -> str:
        d = asdict(self)
        d["schema"] = CSV_SCHEMA_VERSION
        d["yield"] = d.pop("protocol_yield")
        return json.dumps(d, sort_keys=True)


def write_csv(path: str, records: list[ResultRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_csv_row())


def write_jsonl(path: str, records: list[ResultRecord]):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def write_plot_csv(path: str, rows: list[tuple[float, float, float]]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "y", "err"))
        for row in rows:
            writer.writerow([repr(v) for v in row])
