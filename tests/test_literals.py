import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicext.errors import ParseError
from bicext.literals import _match_pair, _step_pair, parse_pair, parse_payload
from bicext.ogroups import H3, Q, Z, ZXZ
from bicext.pairs import BElement, pair_to_json


def test_parse_examples():
    assert parse_pair("[3|5]", Z) == BElement(Z, 3, 5)
    assert parse_payload("2/4", Q) == Fraction(1, 2)
    assert parse_pair("[(0,1)|(1,0)]", ZXZ) == BElement(ZXZ, (0, 1), (1, 0))
    assert parse_payload("(1,0,-2)", H3) == (1, 0, -2)
    assert parse_payload("-3", Z) == -3
    assert parse_payload("-3/4", Q) == Fraction(-3, 4)


_BIG = 12345678901234567890123456789012345678  # 38 digits, so each part below has 38 or 39


@pytest.mark.parametrize("text, left, right", [
    ("[0/5|-2/4]", (0, 5), (-2, 4)),
    ("[\u0663/\u0666|1]", (3, 6), (1, 1)),  # Arabic-Indic digits 3 and 6
    (f"[{6 * _BIG}/{4 * _BIG + 4}|-{10 * _BIG}/{(_BIG + 1) * 15}]",
     (6 * _BIG, 4 * _BIG + 4), (-10 * _BIG, (_BIG + 1) * 15)),
], ids=["zero-numerator", "unicode-digits", "long-parts"])
def test_matched_fractions_equal_fraction_in_value_type_and_hash(text, left, right):
    # a matched Q literal is reduced by the parser itself, not by Fraction()
    s = parse_pair(text, Q)
    for got, (n, d) in ((s.left, left), (s.right, right)):
        want = Fraction(n, d)
        assert type(got) is Fraction
        assert (got, got.numerator, got.denominator) == (want, want.numerator, want.denominator)
        assert hash(got) == hash(want)


def test_whitespace_tolerated():
    assert parse_pair("[ 3 | 5 ]", Z) == BElement(Z, 3, 5)
    assert parse_payload("  42 ", Z) == 42
    assert parse_pair(" [1|2] ", Z) == BElement(Z, 1, 2)


def test_canonicalization_round_trip():
    v = parse_payload("2/4", Q)
    assert Q.render(v) == "1/2"
    assert parse_payload(Q.render(v), Q) == v


def test_render_canonical_forms():
    assert Z.render(-3) == "-3"
    assert Q.render(Fraction(4, 2)) == "2"
    assert ZXZ.render((1, -2)) == "(1,-2)"
    assert H3.render((1, 0, -2)) == "(1,0,-2)"
    assert str(BElement(Z, 3, 5)) == "[3|5]"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_payload("12x", Z)
    assert exc.value.offset == 2

    with pytest.raises(ParseError) as exc:
        parse_payload("1/0", Q)
    assert exc.value.offset == 2

    with pytest.raises(ParseError) as exc:
        parse_pair("[1|2", Z)
    assert exc.value.offset == 3

    with pytest.raises(ParseError) as exc:
        parse_pair("(1|2)", Z)
    assert exc.value.offset == 0

    with pytest.raises(ParseError) as exc:
        parse_pair("[1|2|3]", Z)
    assert exc.value.offset == 1

    with pytest.raises(ParseError):
        parse_payload("", Z)


def test_overlong_integer_literal_is_a_parse_error():
    # Python refuses str-to-int conversions past its digit limit (4300 by
    # default); the parser reports that as a literal error with an offset
    nines = "9" * 5000
    cases = [
        (f"[{nines}|0]", Z, 1),
        (f"[0|-{nines}]", Z, 3),
        (f"[{nines}/7|0]", Q, 1),
        (f"[1/{nines}|0]", Q, 3),
        (f"[(0, {nines})|(0,0)]", ZXZ, 5),
        (f"[(0,0,0)|(1,2,{nines})]", H3, 14),
    ]
    for text, group, offset in cases:
        with pytest.raises(ParseError) as exc:
            parse_pair(text, group)
        assert exc.value.offset == offset
        assert "digits" in str(exc.value)


def test_rendering_past_the_digit_limit_raises_the_interpreters_value_error():
    # the library does not catch it; only the CLI turns it into a result error
    s = BElement(Z, 10**5000, 0)
    for render in (str, pair_to_json):
        with pytest.raises(ValueError, match="digits"):
            render(s)


def test_wrong_arity():
    with pytest.raises(ParseError):
        parse_payload("(1,2)", H3)
    with pytest.raises(ParseError):
        parse_payload("(1,2,3)", ZXZ)
    with pytest.raises(ParseError):
        parse_payload("(1,2)", Z)


def test_second_coordinate_offset():
    # the offset points inside the right-hand payload of the pair literal
    with pytest.raises(ParseError) as exc:
        parse_pair("[3|x]", Z)
    assert exc.value.offset == 3


@given(st.integers())
def test_integer_round_trip(n):
    assert parse_payload(Z.render(n), Z) == n


@given(st.fractions(max_denominator=10**6))
def test_fraction_round_trip(x):
    assert parse_payload(Q.render(x), Q) == x


@given(st.tuples(st.integers(), st.integers()))
def test_lex_pair_round_trip(t):
    assert parse_payload(ZXZ.render(t), ZXZ) == t


@given(st.tuples(st.integers(), st.integers()), st.tuples(st.integers(), st.integers()))
def test_pair_literal_round_trip(a, b):
    s = BElement(ZXZ, a, b)
    assert parse_pair(str(s), ZXZ) == s


def test_regex_whitespace_is_strip_whitespace():
    # the whole-literal patterns put \s where the step parser strips
    space = re.compile(r"\s")
    assert [c for c in map(chr, range(sys.maxunicode + 1))
            if bool(space.fullmatch(c)) != (not c.strip())] == []


_WS = st.text(" \t\n\x0b\x1c\u00a0\u2003\u3000", max_size=2)
_DIGITS = st.one_of(st.integers(0, 10**30).map(str), st.sampled_from(["0", "007", "\u0663", "9" * 5000]))
_SIGNED = st.tuples(st.sampled_from(["", "+", "-"]), _DIGITS).map("".join)


def _spaced(draw, token):
    return draw(_WS) + token + draw(_WS)


@st.composite
def _well_formed(draw, group):
    """A pair literal the step parser reads, with whitespace wherever it
    strips; its integers may be overlong and its denominators zero."""
    def payload():
        if group.payload_kind == "integer":
            return _spaced(draw, draw(_SIGNED))
        if group.payload_kind == "fraction":
            den = draw(st.one_of(st.just(""), _DIGITS.map("/".__add__)))
            return _spaced(draw, draw(_SIGNED) + den)
        coords = ",".join(_spaced(draw, draw(_SIGNED)) for _ in range(group.payload_arity))
        return _spaced(draw, f"({coords})")
    return _spaced(draw, f"[{payload()}|{payload()}]")


_NOISE = st.text("[]|(),/+-0123456789x \t\u00a0\u3000\u0663", max_size=16)


def _outcome(parse_step, text, group, offset):
    """The pair's repr, which tells a Fraction from an int, or the error."""
    try:
        return repr(parse_step(text, group, offset))
    except ParseError as exc:
        return str(exc), exc.offset


@settings(max_examples=300)
@given(st.sampled_from([Z, Q, ZXZ, H3]).flatmap(
    lambda g: st.tuples(st.just(g), st.one_of(_well_formed(g), _NOISE), st.sampled_from([0, 5]))
))
# whitespace at every strip point of each carrier
@example((Z, "\t[ 3 |\u00a0-5 ]\n", 0))
@example((Q, " [ 1/2 | -3 ] ", 0))
@example((ZXZ, " [ ( 1 , 2 ) | ( 3 , -4 ) ] ", 0))
@example((H3, " [ ( 1 , 2 , 3 ) | ( 0 , 0 , -1 ) ] ", 0))
@example((Z, "[" + "9" * 5000 + "|0]", 0))
@example((Q, "[1/0|1]", 0))
@example((Q, " [ 3/4 | -1/00 ] ", 5))
@example((H3, "[(0,0,0)|(1,2," + "9" * 5000 + ")]", 0))
def test_parse_pair_matches_the_step_parser(case):
    # the pattern reads exactly what the step parser reads, to the same
    # value, and parse_pair answers everything else as the step parser does
    group, text, offset = case
    expected = _outcome(_step_pair, text, group, offset)
    fast = _match_pair(text, group)
    assert (None if fast is None else repr(fast)) == (expected if isinstance(expected, str) else None)
    assert _outcome(parse_pair, text, group, offset) == expected
