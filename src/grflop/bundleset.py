"""Text format for bundles and named bundle sets.

A bundle literal is one line, e.g.::

    gr(3,5) u=[2,2,1] q=[0,0] mult=1
    fl(2,3;5) b1=[1,1] b2=[1] b3=[0,0] mult=2

``mult`` may be omitted on input and defaults to 1.  A set file groups
literals under ``[name]`` section headers; blank lines and ``#`` comments are
ignored on input.  Each section parses to a canonical sum (terms merged and in
canonical order), and ``HomogeneousBundle.literal()`` prints a term with its
mult, so canonical text is each section's header followed by the literals of
its terms.
"""

from __future__ import annotations

import re

from .homog import BundleSum, FlagVariety, HomogeneousBundle

_SPACE_RE = re.compile(r"^(gr|fl)\(([0-9,;]+)\)$")
_FIELD_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)=(\[[-0-9,]*\]|[0-9]+)$")


def parse_space(token: str) -> FlagVariety:
    m = _SPACE_RE.match(token)
    if not m:
        raise ValueError(f"cannot parse space {token!r}")
    kind, body = m.groups()
    if kind == "gr":
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected gr(k,n), got {token!r}")
        return FlagVariety.grassmannian(int(parts[0]), int(parts[1]))
    if ";" not in body:
        raise ValueError(f"expected fl(d1,...;n), got {token!r}")
    dims_part, n_part = body.split(";")
    dims = tuple(int(x) for x in dims_part.split(","))
    return FlagVariety(int(n_part), dims)


def _parse_vector(text: str) -> tuple[int, ...]:
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(int(x) for x in inner.split(","))


def parse_bundle(line: str) -> HomogeneousBundle:
    """Parse one bundle literal."""
    tokens = line.split()
    if not tokens:
        raise ValueError("empty bundle literal")
    space = parse_space(tokens[0])
    names = list(space.block_names())
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        m = _FIELD_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse field {tok!r}")
        key, value = m.groups()
        if key in fields:
            raise ValueError(f"duplicate field {key!r}")
        fields[key] = value
    mult = int(fields.pop("mult", "1"))
    missing = [n for n in names if n not in fields]
    extra = [k for k in fields if k not in names]
    if missing or extra:
        raise ValueError(f"expected blocks {names}; missing {missing}, unknown {extra}")
    blocks = tuple(_parse_vector(fields[n]) for n in names)
    return HomogeneousBundle(space, blocks, mult)


def parse_sum(lines) -> BundleSum:
    bundles = [parse_bundle(ln) for ln in lines]
    if not bundles:
        raise ValueError("empty bundle sum")
    return BundleSum.of(bundles[0].space, bundles)


def parse_set_file(text: str) -> dict[str, BundleSum]:
    """Parse a set file into named bundle sums, preserving section order."""
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ValueError("empty section name")
            if current in sections:
                raise ValueError(f"duplicate section {current!r}")
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"bundle literal before any [name] section: {line!r}")
        sections[current].append(line)
    out: dict[str, BundleSum] = {}
    for name, lines in sections.items():
        if not lines:
            raise ValueError(f"section {name!r} has no bundles")
        out[name] = parse_sum(lines)
    return out

