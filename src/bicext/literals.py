"""Text literals for elements and pairs, shared by the CLI and reports.

Grammar per carrier: integer ``-3``; fraction ``3/4`` (normalized on
parse, so ``2/4`` reads as ``1/2``); integer pair ``(1,-2)``; integer
triple ``(1,0,-2)``.  A semigroup pair wraps two payload literals in
brackets with a bar: ``[3|5]``.  Parse errors carry the offset of the
offending character in the original string.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Tuple, Union

from .errors import ParseError
from .ogroups import Element, OrderedGroup
from .pairs import BElement

_INT = re.compile(r"[+-]?\d+")
_FRACTION = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _strip(text: str, offset: int) -> Tuple[str, int]:
    lead = len(text) - len(text.lstrip())
    return text.strip(), offset + lead


def _to_int(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # only the interpreter's str-to-int digit limit gets here
        raise ParseError(
            f"integer literal longer than {sys.get_int_max_str_digits()} digits", at
        ) from None


def _parse_int(body: str, at: int) -> int:
    m = _INT.fullmatch(body)
    if not m:
        partial = _INT.match(body)
        bad = partial.end() if partial else 0
        raise ParseError(f"expected an integer, got {body!r}", at + bad)
    return _to_int(body, at)


def _parse_fraction(body: str, at: int) -> Fraction:
    m = _FRACTION.fullmatch(body)
    if not m:
        partial = _FRACTION.match(body)
        bad = partial.end() if partial else 0
        raise ParseError(f"expected <int> or <int>/<int>, got {body!r}", at + bad)
    num = _to_int(m.group(1), at)
    if m.group(2) is None:
        return Fraction(num)
    den = _to_int(m.group(2), at + m.start(2))
    if den == 0:
        raise ParseError("zero denominator", at + m.start(2))
    return Fraction(num, den)


def _parse_int_tuple(body: str, at: int, arity: int) -> Tuple[int, ...]:
    if not body.startswith("("):
        raise ParseError("expected '('", at)
    if not body.endswith(")"):
        raise ParseError("expected ')'", at + len(body) - 1)
    parts = body[1:-1].split(",")
    if len(parts) != arity:
        raise ParseError(
            f"expected {arity} comma-separated integers, got {len(parts)}", at + 1
        )
    values = []
    pos = at + 1
    for part in parts:
        piece, piece_at = _strip(part, pos)
        values.append(_parse_int(piece, piece_at))
        pos += len(part) + 1
    return tuple(values)


def parse_payload(text: str, group: OrderedGroup, offset: int = 0) -> Element:
    """Parse one group-element literal in the carrier's grammar."""
    body, at = _strip(text, offset)
    if not body:
        raise ParseError("empty element literal", at)
    if group.payload_kind == "integer":
        return _parse_int(body, at)
    if group.payload_kind == "fraction":
        return _parse_fraction(body, at)
    return _parse_int_tuple(body, at, group.payload_arity)


def parse_pair(text: str, group: OrderedGroup, offset: int = 0) -> BElement:
    """Parse a bracketed pair literal like ``[3|5]``."""
    body, at = _strip(text, offset)
    if not body.startswith("["):
        raise ParseError("expected '['", at)
    if not body.endswith("]"):
        raise ParseError("expected ']'", at + len(body) - 1)
    inner = body[1:-1]
    if inner.count("|") != 1:
        raise ParseError("expected exactly one '|' separator", at + 1)
    left_text, right_text = inner.split("|")
    left = parse_payload(left_text, group, at + 1)
    right = parse_payload(right_text, group, at + 2 + len(left_text))
    return BElement(group, left, right)


def parse(text: str, group: OrderedGroup) -> Union[Element, BElement]:
    """Either literal form: a bracketed pair or a bare payload."""
    body, _ = _strip(text, 0)
    if body.startswith("["):
        return parse_pair(text, group)
    return parse_payload(text, group)


def pair_to_json(s: BElement) -> dict:
    g = s.group
    return {"left": g.render(s.left), "right": g.render(s.right)}
