"""Machine-readable reports with a deterministic JSON serialization.

Reports carry no timestamps and are serialized with sorted keys, so identical
inputs produce byte-identical output.  Exact rationals are encoded as
{"num": ..., "den": ...}; weights as arrays of integers.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"


def encode_value(x):
    """Recursively convert payload values into JSON-compatible structures."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, dict):
        return {str(k): encode_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode_value(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    as_json = getattr(x, "as_json", None)
    if callable(as_json):
        return encode_value(as_json())
    raise TypeError(f"cannot encode {type(x).__name__} into a report")


class Report:
    """Aggregated result of one command: per-check records plus a summary."""

    def __init__(self, command: str, input_echo: dict | None = None):
        self.command = command
        self.input_echo = {} if input_echo is None else input_echo
        self.checks = []

    def add(self, check_id: str, status: str, payload=None) -> None:
        if status not in (PASS, FAIL, INFO):
            raise ValueError(f"invalid status {status!r}")
        self.checks.append({
            "id": check_id,
            "status": status,
            "payload": encode_value(payload if payload is not None else {}),
        })

    def add_bool(self, check_id: str, ok: bool, payload=None) -> None:
        self.add(check_id, PASS if ok else FAIL, payload)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if c["status"] == FAIL]

    def as_json(self) -> dict:
        from . import __version__
        counts = {s: sum(1 for c in self.checks if c["status"] == s)
                  for s in (PASS, FAIL, INFO)}
        return {
            "tool": "grflop",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "input": encode_value(self.input_echo),
            "checks": self.checks,
            "summary": counts,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.as_json(), indent=2, sort_keys=True) + "\n"
