"""Structured run reports: one JSON object per run, stable field names,
full-precision inputs so any run can be replayed from its own output."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

VOLATILE_FIELDS = ("timestamp", "wall_time")


def encode_complex(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def inputs_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    inputs: str            # digest of the inputs that fed the check
    residual: float
    tolerance: float
    passed: bool
    wall_time: float
    error: str = ""

    def as_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "anchor": self.anchor,
            "inputs": self.inputs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_time": self.wall_time,
        }
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class Report:
    command: str
    seed: int
    version: str
    config: dict = field(default_factory=dict)
    materialized: dict = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)
    timestamp: str = ""

    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "total": len(self.checks),
            "passed": passed,
            "failed": len(self.checks) - passed,
            "status": "pass" if passed == len(self.checks) else "fail",
        }

    def as_dict(self) -> dict:
        ids = [c.check_id for c in self.checks]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate check ids in report")
        return {
            "command": self.command,
            "seed": self.seed,
            "version": self.version,
            "timestamp": self.timestamp,
            "config": self.config,
            "materialized": self.materialized,
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.check_id)],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def report_fingerprint(text: str) -> str:
    """Canonical form of a report with volatile fields (timestamps, wall
    times) removed; byte-identical for identical (config, seed)."""
    obj = json.loads(text)

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in VOLATILE_FIELDS}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(obj), indent=2, sort_keys=True)
