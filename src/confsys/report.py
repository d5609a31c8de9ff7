"""Verification report data model with a versioned JSON form.

Reports are consumed by CI and regression diffing, so the JSON layout (the
dataclass fields below, in order) is frozen behind schema_version and every
value is JSON-native; exact rationals are carried as strings ("-1", "5/2") to
avoid any float round-off.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction as Q

SCHEMA_VERSION = 1


def qstr(x: Q) -> str:
    return str(Q(x))


@dataclass
class CheckResult:
    name: str
    statement: str
    status: str                    # pass | fail | skipped
    witness: dict
    wall_time_s: float


@dataclass
class SpecialValueFindings:
    values: list[str]              # exact rationals as strings
    all_s: bool
    levi_stable_all_s: bool
    failure_mode: str | None       # for runs with no special value
    module_parameter: str | None   # the solver's s*
    bundle_parameter: str | None   # -s*, the line-bundle label


@dataclass
class VerificationReport:
    schema_version: int
    algebra: dict                  # family, rank, dim, roots
    expect_system: bool
    seed: int
    graded_dims: list[int]
    deleted_components: list[list[int]]   # 1-based simple-root labels
    special_values: SpecialValueFindings | None
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "VerificationReport":
        if d["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {d['schema_version']}")
        findings = d["special_values"]
        return cls(**{
            **d,
            "special_values": (None if findings is None
                               else SpecialValueFindings(**findings)),
            "checks": [CheckResult(**c) for c in d["checks"]],
        })

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    @classmethod
    def loads(cls, text: str) -> "VerificationReport":
        return cls.from_json(json.loads(text))
