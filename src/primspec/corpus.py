"""The built-in ring corpus and the corpus-file format.

A corpus file holds one ring spec per line; ``#`` starts a comment.  A line
may end with ``max_elements=N`` / ``max_ideals=N`` tokens, N of 1 to 18
decimal digits, to override the caps for that ring.  A line is parsed under
the larger of the global element cap and its own, so a lowered cap reaches
``verify-paper``, which reports the ring as skipped.  Duplicate specs (by
canonical rendering) are rejected.
"""

from __future__ import annotations

import re

from .records import record
from .rings import DEFAULT_ELEMENT_CAP, RingSpecError, parse_ring_spec

DEFAULT_CORPUS: list[str] = (
    [f"Zn({n})" for n in range(2, 33)]
    + ["Zn(36)", "Zn(64)", "Zn(72)"]
    + ["GF(2)", "GF(3)", "GF(2^2)", "GF(5)", "GF(7)", "GF(2^3)", "GF(3^2)"]
    + [
        "Quot(GF(2), x^2)",
        "Quot(GF(2), x^3)",
        "Quot(GF(3), x^2)",
        "Quot(Zn(4), x^2+x+1)",
        "Quot(Zn(8), x^2+x+1)",
    ]
    + ["Prod(Zn(2), Zn(3))", "Prod(Zn(4), Zn(9))", "Prod(GF(2), GF(2))"]
)


class CorpusEntry(
    record("CorpusEntry", "spec max_elements max_ideals", defaults=(None, None))
):
    """One corpus ring: its parsed spec and its own caps, None where the
    global cap applies."""

    __slots__ = ()


def parse_corpus_lines(lines, max_elements: int = DEFAULT_ELEMENT_CAP) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        caps: dict[str, int] = {}
        while tokens and "=" in tokens[-1]:
            key, _, value = tokens.pop().partition("=")
            # ASCII digits only (isdigit() also admits "²"), and few enough
            # that int() neither refuses them nor spends time on them
            if key not in ("max_elements", "max_ideals") or not re.fullmatch(r"[0-9]{1,18}", value):
                shown = value if len(value) <= 18 else value[:18] + "..."
                raise RingSpecError(f"line {lineno}: bad cap token {key}={shown}")
            caps[key] = int(value)
        text = " ".join(tokens)
        try:
            expr = parse_ring_spec(text, max(max_elements, caps.get("max_elements", 0)))
        except RingSpecError as exc:
            raise RingSpecError(f"line {lineno}: {exc}") from exc
        canonical = str(expr)
        if canonical in seen:
            raise RingSpecError(f"line {lineno}: duplicate spec {canonical}")
        seen.add(canonical)
        entries.append(CorpusEntry(expr, caps.get("max_elements"), caps.get("max_ideals")))
    return entries


def load_corpus(path: str, max_elements: int = DEFAULT_ELEMENT_CAP) -> list[CorpusEntry]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus_lines(fh, max_elements)


def default_corpus() -> list[CorpusEntry]:
    return parse_corpus_lines(DEFAULT_CORPUS)
