"""Text literals for elements and pairs, shared by the CLI and reports.

Grammar per carrier: integer ``-3``; fraction ``3/4`` (normalized on
parse, so ``2/4`` reads as ``1/2``); integer pair ``(1,-2)``; integer
triple ``(1,0,-2)``.  A semigroup pair wraps two payload literals in
brackets with a bar: ``[3|5]``.  Parse errors carry the offset of the
offending character in the original string.

``parse_pair`` reads a well-formed pair literal by matching it whole
against one pattern per payload kind, compiled on first use.  What the
pattern does not match, a zero denominator and an integer past the
interpreter's digit limit go to the step parser, which strips and splits
the literal piece by piece and so locates the error.  The pattern matches
exactly the literals the step parser accepts, plus those with a zero
denominator or an overlong integer, which the step parser then refuses;
both read an accepted literal to the same value.

A match holds only carrier members (ints, nonzero unsigned denominators,
tuples of the carrier's arity), so ``_match_pair`` builds its pair with
the unchecked ``pairs._make``, and reduces each ``Q`` part with one gcd
into ``ogroups._fraction``, as ``RationalGroup.mul`` builds its results,
instead of paying for ``Fraction()``'s dispatch.  The step parser,
which reads every literal the pattern declines, keeps the checked
``BElement`` constructor.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Tuple

from .errors import ParseError
from .ogroups import Element, OrderedGroup, _fraction
from .pairs import BElement, _make

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


@functools.cache
def _pair_pattern(kind: str, arity: int) -> re.Pattern:
    r"""A whole pair literal of one payload kind, compiled on first use from
    the ``_INT``/``_FRACTION`` token patterns, with ``\s*`` wherever the
    step parser strips (``\s`` is exactly ``str.strip``'s whitespace)."""
    if kind == "integer":
        payload = rf"\s*({_INT.pattern})\s*"
    elif kind == "fraction":
        payload = rf"\s*{_FRACTION.pattern}\s*"
    else:
        coordinate = rf"\s*({_INT.pattern})\s*"
        payload = rf"\s*\({','.join([coordinate] * arity)}\)\s*"
    return re.compile(rf"\s*\[{payload}\|{payload}\]\s*")


def _match_pair(text: str, group: OrderedGroup):
    """The pair ``text`` denotes when its carrier's pattern matches it whole;
    None when it does not match, a denominator is zero or an integer is
    past the digit limit.  Built unchecked: see the module docstring."""
    kind, arity = group.payload_kind, group.payload_arity
    m = _pair_pattern(kind, arity).fullmatch(text)
    if m is None:
        return None
    try:
        values = [int(v or 1) for v in m.groups()]  # an absent denominator is 1
    except ValueError:  # only the interpreter's str-to-int digit limit gets here
        return None
    if kind == "integer":
        left, right = values
    elif kind == "fraction":
        n, d, p, q = values
        if not (d and q):
            return None
        k, j = gcd(n, d), gcd(p, q)
        left, right = _fraction(n // k, d // k), _fraction(p // j, q // j)
    else:
        left, right = tuple(values[:arity]), tuple(values[arity:])
    return _make(group, left, right)


def _step_pair(text: str, group: OrderedGroup, offset: int) -> BElement:
    """The pair parsed piece by piece, raising ``ParseError`` at the
    offending offset; ``parse_pair`` calls it for what ``_match_pair``
    declines."""
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


def parse_pair(text: str, group: OrderedGroup, offset: int = 0) -> BElement:
    """Parse a bracketed pair literal like ``[3|5]``.

    A well-formed literal is read by one whole-literal pattern match; any
    other text goes to the step parser, which locates the error.
    """
    pair = _match_pair(text, group)
    return pair if pair is not None else _step_pair(text, group, offset)
