"""Machine-readable reports with a deterministic JSON serialization.

Reports carry no timestamps and are serialized with sorted keys, so identical
inputs produce byte-identical output.  Payloads stay the values they were
passed as until the report is written, in one pass that streams to its sink
the bytes ``json.dumps(indent=2, sort_keys=True)`` would, without importing
``json`` and without holding the text: weights as arrays of integers, and any
other object, an exact rational included, through its ``as_json()``.
"""

from __future__ import annotations

import io

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INFO = "info"


class _Escapes(dict):
    """json's str.translate table with ensure_ascii, filled on demand: a
    printable ASCII character stays, the named ones take a backslash, any
    other a \\uXXXX, or a surrogate pair of them past U+FFFF."""

    def __missing__(self, c):
        if c > 0xffff:
            out = self[0xd800 | (c - 0x10000) >> 10] + self[0xdc00 | c & 0x3ff]
        else:
            out = chr(c) if 0x20 <= c < 0x7f else "\\u%04x" % c
        self[c] = out
        return out


_ESCAPES = _Escapes({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _write(x, write, pad: str) -> None:
    """Pass to write, in pieces, the text of json.dumps(x, indent=2,
    sort_keys=True), indented by pad, with any other object through its
    as_json()."""
    if isinstance(x, str):
        write('"' + x.translate(_ESCAPES) + '"')
    elif x is None or x is True or x is False:
        write("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        write(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            write("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in sorted(x.items()):
            write(sep + '"' + k.translate(_ESCAPES) + '": ')
            _write(v, write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            write("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in x:
            write(sep)
            _write(v, write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "]")
    elif callable(getattr(x, "as_json", None)):
        _write(x.as_json(), write, pad)
    else:
        raise TypeError(f"cannot encode {type(x).__name__} into a report")


class Report:
    """Aggregated result of one command: per-check records plus a summary."""

    def __init__(self, command: str, input_echo: dict | None = None):
        self.command = command
        self.input_echo = {} if input_echo is None else input_echo
        self.checks = []

    def add(self, check_id: str, status: str, payload=None) -> None:
        """Record one check.  The payload is kept as passed and encoded only
        by write: dicts, lists, tuples, str, int, bool, None and
        objects with an as_json() returning such values.  Dict keys must
        be strings."""
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

    def write(self, fh) -> None:
        """Stream the report into the text file fh, ending with a newline.
        Fragments go out joined 128 at a time (a few KB), so that a sink
        that writes through (python -u, a terminal) makes one system call
        per piece, not per fragment.  If encoding raises, what was encoded
        before it is still written."""
        parts = []

        def write(text):
            parts.append(text)
            if len(parts) == 128:
                fh.write("".join(parts))
                parts.clear()

        try:
            _write(self.as_json(), write, "")
            parts.append("\n")
        finally:
            fh.write("".join(parts))

    def to_json_text(self) -> str:
        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()
