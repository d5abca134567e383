"""Machine-readable reports with a deterministic JSON serialization.

Reports carry no timestamps and are serialized with sorted keys, so identical
inputs produce byte-identical output.  Payloads stay the values they were
passed as until the report is written, in one ``json.dumps`` pass: exact
rationals are encoded as {"num": ..., "den": ...}, weights as arrays of
integers, and any other object through its ``as_json()``.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"


def _encode(x):
    """json.dumps' hook for what json cannot write itself.  json calls it for
    no subclass of dict, list, tuple, str or int, so no payload class may
    subclass them."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    as_json = getattr(x, "as_json", None)
    if callable(as_json):
        return as_json()
    raise TypeError(f"cannot encode {type(x).__name__} into a report")


class Report:
    """Aggregated result of one command: per-check records plus a summary."""

    def __init__(self, command: str, input_echo: dict | None = None):
        self.command = command
        self.input_echo = {} if input_echo is None else input_echo
        self.checks = []

    def add(self, check_id: str, status: str, payload=None) -> None:
        """Record one check.  The payload is kept as passed and encoded only
        by to_json_text: dicts, lists, tuples, str, int, bool, None, Fraction
        and objects with an as_json() returning such values.  Dict keys must
        be strings, since json sorts the keys as given."""
        if status not in (PASS, FAIL, INFO):
            raise ValueError(f"invalid status {status!r}")
        self.checks.append({
            "id": check_id,
            "status": status,
            "payload": payload if payload is not None else {},
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
            "input": self.input_echo,
            "checks": self.checks,
            "summary": counts,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.as_json(), indent=2, sort_keys=True, default=_encode) + "\n"
