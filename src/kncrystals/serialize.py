"""Text and JSON formats: fillings, DOT graphs, polynomials, reports.

The filling grammar is one line: ``<TYPE><n>; col | col | ...`` with columns
left to right and letters comma-separated in increasing total order, barred
letters as negative integers.  Example:

    C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3

Parsing and serialization are mutually inverse on every valid element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import CartanType, element
from .errors import ParseError
from .kyoto import is_demazure_arrow

REPORT_SCHEMA_VERSION = 1


def serialize_filling(elem):
    cols = " | ".join(",".join(str(x) for x in col) for col in elem.factors)
    return f"{elem.cartan.family}{elem.cartan.n}; {cols}"


def parse_filling(text):
    head, sep, body = text.partition(";")
    if not sep:
        raise ParseError("missing ';' after the type header", position=len(text))
    head = head.strip()
    if not head or head[0] not in ("A", "C"):
        raise ParseError(f"type must start with A or C, got {head!r}", position=0)
    try:
        n = int(head[1:])
    except ValueError:
        raise ParseError(f"bad rank in header {head!r}", position=1) from None
    ct = CartanType(head[0], n)
    cols = []
    offset = len(text) - len(body)
    for chunk in body.split("|"):
        stripped = chunk.strip()
        pos = offset + chunk.index(stripped[0]) if stripped else offset
        if not stripped:
            raise ParseError("empty column", position=offset)
        letters = []
        for tok in stripped.split(","):
            tok = tok.strip()
            try:
                letters.append(int(tok))
            except ValueError:
                raise ParseError(f"bad letter {tok!r}", position=pos) from None
        keys = [ct.key(x) if ct.is_letter(x) else None for x in letters]
        if None not in keys and any(a >= b for a, b in zip(keys, keys[1:])):
            raise ParseError(
                f"column {stripped!r} is not in increasing order", position=pos
            )
        cols.append(tuple(letters))
        offset += len(chunk) + 1
    return element(ct, cols)


def graph_to_dot(graph):
    """Deterministic DOT rendering: 0-edges dashed, non-Demazure ones red."""
    lines = ["digraph crystal {"]
    for v in graph.vertices:
        lines.append(f'  "{serialize_filling(v)}";')
    for u, i, v in graph.edges:
        attrs = [f'label="{i}"']
        if i == 0:
            attrs.append("style=dashed")
            if not is_demazure_arrow(u, 0):
                attrs.append("color=red")
        lines.append(
            f'  "{serialize_filling(u)}" -> "{serialize_filling(v)}" '
            f'[{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class VerifyReport:
    """Result of an exhaustive verification run; JSON and text carry the same data."""

    cartan: str
    heights: tuple
    mu: tuple | None
    element_count: int
    max_discrepancy: int
    elapsed_seconds: float
    suites: dict = field(default_factory=dict)  # name -> {"passed": bool, "checks": int}

    @property
    def passed(self):
        return self.max_discrepancy == 0 and all(
            s["passed"] for s in self.suites.values()
        )

    def to_json(self):
        return json.dumps(
            {
                "schema_version": REPORT_SCHEMA_VERSION,
                "cartan": self.cartan,
                "heights": list(self.heights),
                "mu": list(self.mu) if self.mu is not None else None,
                "element_count": self.element_count,
                "max_abs_D_plus_charge": self.max_discrepancy,
                "elapsed_seconds": round(self.elapsed_seconds, 3),
                "suites": self.suites,
                "passed": self.passed,
            },
            indent=2,
            sort_keys=True,
        )

    def to_text(self):
        lines = [
            f"shape: {self.cartan} heights={list(self.heights)}"
            + (f" mu={list(self.mu)}" if self.mu is not None else ""),
            f"elements: {self.element_count}",
            f"max |D + charge|: {self.max_discrepancy}",
            f"elapsed: {self.elapsed_seconds:.3f}s",
        ]
        for name in sorted(self.suites):
            s = self.suites[name]
            status = "pass" if s["passed"] else "FAIL"
            lines.append(f"suite {name}: {status} ({s['checks']} checks)")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)
