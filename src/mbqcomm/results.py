"""Result records: one `ResultRecord` per protocol run, printed by
`purify`, `hashing`, `qec`, `chain` and `repeater` as one JSON line and
written by `--csv-out` as one CSV row under the same column names.

The fixed columns are the protocol, its parameters, the noise model,
the reported numbers, the samples run, the seed, a hash over every input
that moves the result, and the version. `report` holds what a run
reports beside them as one flat JSON object: resource counts, the
closed-form quantities of an analytic chain, the runs with an
uncorrectable syndrome, or the ambiguous hashing decodes; `{}` when
there are none. In CSV, `params` and `report` are each one cell of
canonical JSON. Schema 2 added `report`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from . import __version__

CSV_SCHEMA_VERSION = 2


def canonical_config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config_text(config).encode()).hexdigest()[:16]


def _cell(value) -> str:
    """A value's CSV cell: a value that does not exist is left empty and
    an object is canonical JSON."""
    if value is None:
        return ""
    if isinstance(value, dict):
        return canonical_config_text(value)
    return str(value)


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
    p_success: float
    protocol_yield: float = field(metadata={"column": "yield"})  # a Python keyword
    report: dict
    samples: int
    seed: int | None
    config_hash: str
    version: str = __version__

    @classmethod
    def from_stats(cls, protocol: str, params: dict, noise, stats, seed: int | None,
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
            report=stats.extra.get("report", {}),
            samples=stats.samples,
            seed=seed,
            config_hash=cfg_hash,
        )

    def columns(self) -> dict:
        """The record under its output names (`CSV_HEADER`), in CSV order."""
        return dict(zip(CSV_HEADER, (CSV_SCHEMA_VERSION,
                                     *(getattr(self, f.name) for f in fields(self)))))

    def to_csv_row(self) -> list[str]:
        return [_cell(value) for value in self.columns().values()]

    def to_json(self) -> str:
        return json.dumps(self.columns(), sort_keys=True)


# the schema, then each field under its column name
CSV_HEADER = ("schema", *(f.metadata.get("column", f.name) for f in fields(ResultRecord)))


def write_csv(path: str, records: list[ResultRecord]):
    import csv  # only --csv-out needs it

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_csv_row())
