import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bicext.errors import NotApplicable
from bicext.ogroups import (
    GROUPS,
    H3,
    Q,
    Z,
    ZXZ,
    ConeVerdict,
    HeisenbergGroup,
    IntegerGroup,
    OrderedGroup,
    check_positive_cone_axioms,
    normalize_bounds,
    successor_check,
)


def test_identities_and_designated_positive(any_group):
    g = any_group
    assert g.mul(g.identity, g.identity) == g.identity
    assert g.lt(g.identity, g.designated_positive)


def test_is_positive_examples():
    assert Z.is_positive(3)
    assert Z.is_positive(0)  # the identity belongs to the cone
    assert not ZXZ.is_positive((0, -5))


def test_groups_equal_by_type():
    from bicext.ogroups import IntegerGroup

    assert IntegerGroup() == Z
    assert Z != Q


def test_elements_windows():
    assert Z.window(2) == [-2, -1, 0, 1, 2]
    assert Z.window((0, 3)) == [0, 1, 2, 3]
    assert len(ZXZ.window(1)) == 9
    assert len(H3.window(1)) == 27
    with pytest.raises(NotApplicable, match="bare is not enumerable"):
        type("Bare", (OrderedGroup,), {"name": "bare"})().window(2)
    with pytest.raises(ValueError):
        normalize_bounds((3, 1))


@pytest.mark.parametrize("bounds", [0, 1, 2, 3, (-1, 2), (0, 3)])
def test_window_ascends_with_the_positive_cone_last(any_group, bounds):
    # "at or below x" and "positive" are index ranges of every window
    g = any_group
    window = g.window(bounds)
    assert all(g.cmp(a, b) < 0 for a, b in zip(window, window[1:]))
    positive = [g.is_positive(x) for x in window]
    assert positive == sorted(positive)


def test_rational_grid():
    grid = Q.window(2)
    assert grid == sorted(grid)
    assert grid == [
        Fraction(-2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
        Fraction(2),
    ]
    # every grid value is reduced with a small denominator
    for v in Q.window(5):
        assert 1 <= v.denominator <= 5 and abs(v.numerator) <= 5


def test_window_is_the_finite_carrier():
    assert Q.window((-1, 2)) == Q.window(2)
    grid = Q.window(3)
    assert grid == sorted(grid) and len(set(grid)) == len(grid)
    # bound 0 is |p| <= 0 with q = 1, as Z's window 0 is [0]
    assert Q.window(0) == Q.window((0, 0)) == [Fraction(0)]
    assert Z.window(0) == [0]
    with pytest.raises(ValueError, match="window radius must be non-negative"):
        Q.window(-1)
    # an empty window is refused on every carrier
    for g in (Z, Q):
        with pytest.raises(ValueError, match="empty window"):
            g.window((3, 1))


@given(st.integers(), st.integers(), st.integers())
def test_integer_group_laws(a, b, c):
    assert Z.mul(Z.mul(a, b), c) == Z.mul(a, Z.mul(b, c))
    assert Z.mul(a, Z.inv(a)) == Z.identity
    assert Z.mul(a, Z.identity) == a


# small and ~40-digit numerators and denominators, either sign
_big = 10**40
fractions_small_and_big = st.builds(
    Fraction,
    st.integers(-_big, _big) | st.integers(-12, 12),
    st.integers(1, _big) | st.integers(1, 12),
)


@given(fractions_small_and_big, fractions_small_and_big)
def test_rational_cmp_agrees_with_fraction_order(a, b):
    assert Q.cmp(a, b) == (a > b) - (a < b)
    assert Q.cmp(b, a) == -Q.cmp(a, b)
    assert Q.cmp(a, a) == 0
    # an equal value reached another way compares equal too
    assert Q.cmp(a, (a + b) - b) == 0
    assert Q.cmp(a, Fraction(a.numerator * 7, a.denominator * 7)) == 0


# Q's ops run on Fraction's private slots: they must give what the public
# operators give, down to the exact type and the hash, or a Python release
# that renamed or added a slot would go unseen.  Hundreds of digits, zero
# and a shared denominator factor (the addition's two gcd branches).
_huge = 10**300
numerators = st.just(0) | st.integers(-12, 12) | st.integers(-_huge, _huge)
denominators = st.integers(1, 12) | st.integers(1, _huge)


@st.composite
def rational_pairs(draw):
    shared = draw(st.sampled_from([1, 6, 10**120 + 7]))
    return tuple(
        Fraction(draw(numerators), shared * draw(denominators)) for _ in range(2)
    )


def _same_fraction(got, want):
    return (
        type(got) is Fraction
        and (got.numerator, got.denominator) == (want.numerator, want.denominator)
        and hash(got) == hash(want)
        and got == want
    )


@given(rational_pairs())
@example((Fraction(1, 6), Fraction(1, 10)))  # gcd 2, sum already reduced
@example((Fraction(1, 6), Fraction(1, 3)))  # gcd 3, sum 3/6 reduced to 1/2
@example((Fraction(-7, 2), Fraction(7, 2)))  # sum 0 is 0/1
@example((Fraction(0), Fraction(-(10**300), 3**500)))
def test_rational_ops_match_fraction_operators(pair):
    a, b = pair
    assert _same_fraction(Q.mul(a, b), a + b)
    assert _same_fraction(Q.inv(a), -a)
    assert _same_fraction(Q.mul(a, Q.inv(a)), Q.identity)
    assert Q.cmp(a, b) == (a > b) - (a < b)
    assert not Q.contains(1) and Q.contains(a)


# carry(x, y, z) is each carrier's closed form of x * y^-1 * z.  Integers
# are small, zero, about 40 digits or past the 4,300-digit str/int limit
# (arithmetic has no such limit, only conversion to and from text).
_carry_ints = (
    st.just(0)
    | st.integers(-12, 12)
    | st.integers(-_big, _big)
    | st.integers(-12, 12).map(lambda k: k * 10**4400 + 7)
)
_carry_elements = {
    "Z": _carry_ints,
    "ZxZ": st.tuples(_carry_ints, _carry_ints),
    "H3": st.tuples(_carry_ints, _carry_ints, _carry_ints),
    "Q": st.builds(Fraction, _carry_ints, st.integers(1, 12) | _carry_ints.filter(lambda d: d > 0)),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
def test_carry_is_mul_of_mul_and_inv(name, data):
    g = GROUPS[name]
    x, y, z = (data.draw(_carry_elements[name]) for _ in range(3))
    got = g.carry(x, y, z)
    assert g.contains(got)
    assert got == g.mul(g.mul(x, g.inv(y)), z)
    if g is Q:
        assert _same_fraction(got, x - y + z)


def _tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_carry_guard_gives_replaced_primitives_the_generic_carry(
    broken_group, leaky_group, counting
):
    # each shipped carrier keeps its own closed form
    for g in GROUPS.values():
        assert type(g).carry is vars(type(g))["carry"] is not OrderedGroup.carry
    # a carrier that replaces mul or inv, directly or through a mixin, sees
    # its own primitives in every carry
    tracing = _tracing()
    for g in GROUPS.values():
        assert type(counting(g)[0]).carry is OrderedGroup.carry
        assert type(tracing.counting(g)).carry is OrderedGroup.carry
    assert type(leaky_group).carry is OrderedGroup.carry
    # carry reads no comparison: a carrier that replaces only cmp keeps Z's
    assert type(broken_group).carry is type(Z).carry
    # defining carry beside the replaced primitives keeps that carry
    class OwnCarry(type(Z)):
        def mul(self, g, h):
            return g + h

        def carry(self, x, y, z):
            return x - y + z

    assert OwnCarry.carry is vars(OwnCarry)["carry"]
    # so the counting twin's carry makes two products and one inverse
    carrier, calls = counting(Z)
    assert carrier.carry(5, 2, 1) == 4 and calls == {"mul": 2, "inv": 1}


# pair_product(a, b, c, d) is the coordinates of [a|b] * [c|d].  The
# generic body compares with cmp and moves one coordinate with carry; the
# carriers named here write it in closed form, the others use the generic
# body.  Window elements and ~40-digit payloads, each product taken with b
# below, above and equal to c.
_closed_products = {"Z", "ZxZ", "H3"}
_product_big = {
    "Z": st.integers(-_big, _big),
    "ZxZ": st.tuples(st.integers(-_big, _big), st.integers(-_big, _big)),
    "H3": st.tuples(*[st.integers(-_big, _big)] * 3),
    "Q": fractions_small_and_big,
}


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
def test_pair_product_closed_form_is_the_generic_one(name, data):
    from bicext.pairs import BElement

    g = GROUPS[name]
    elements = st.sampled_from(g.window(2)) | _product_big[name]
    a, x, y, d = (data.draw(elements) for _ in range(4))
    # b against c: one way, the other, and equal
    for b, c in ((x, y), (y, x), (x, x)):
        got = g.pair_product(a, b, c, d)
        s = BElement(g, a, b) * BElement(g, c, d)
        assert got == OrderedGroup.pair_product(g, a, b, c, d) == (s.left, s.right)
        # the payload types too: an int is never a bool, a fraction is reduced
        assert type(got) is tuple and all(map(g.contains, got))
        if g is Q:
            assert all(_same_fraction(p, Fraction(p.numerator, p.denominator)) for p in got)


@pytest.mark.parametrize("op", ["cmp", "carry", "mul", "inv"])
def test_pair_product_guard_gives_a_replaced_primitive_the_generic_body(op):
    for name, g in GROUPS.items():
        base = type(g)
        closed = base.pair_product is not OrderedGroup.pair_product
        assert closed == (name in _closed_products), name
        # replacing one primitive, even by a call to the same function
        forward = {op: lambda self, *args, real=getattr(base, op): real(self, *args)}
        assert type("Replaced", (base,), forward).pair_product is OrderedGroup.pair_product
        # replacing none keeps the carrier's own body
        plain = type("Plain", (base,), {"name": "plain"})
        assert plain.pair_product is base.pair_product


def test_pair_product_guard_covers_the_counting_and_tampered_carriers(
    broken_group, leaky_group, counting
):
    tracing = _tracing()
    for g in GROUPS.values():
        assert type(counting(g)[0]).pair_product is OrderedGroup.pair_product
        assert type(tracing.counting(g)).pair_product is OrderedGroup.pair_product
    # the tampered carrier replaces only cmp, the leaky one only mul
    assert type(broken_group).pair_product is OrderedGroup.pair_product
    assert type(leaky_group).pair_product is OrderedGroup.pair_product
    # so a counting carrier's product makes one comparison and one carry's calls
    carrier, calls = counting(Z)
    assert carrier.pair_product(0, 2, 1, 5) == (0, 6)
    assert calls == {"cmp": 1, "mul": 2, "inv": 1}

    # defining pair_product beside the replaced primitives keeps that body
    class OwnProduct(type(Z)):
        def cmp(self, g, h):
            return (g > h) - (g < h)

        def pair_product(self, a, b, c, d):
            return OrderedGroup.pair_product(self, a, b, c, d)

    assert OwnProduct.pair_product is vars(OwnProduct)["pair_product"]


def test_rational_constants_are_shared_and_unchanged():
    from bicext.ogroups import RationalGroup

    for _ in range(3):
        Q.power(Q.designated_positive, 5)
        Q.is_positive(Fraction(-1, 3))
    for g in (Q, RationalGroup()):
        assert g.identity == 0 and type(g.identity) is Fraction
        assert g.designated_positive == 1 and type(g.designated_positive) is Fraction
    assert RationalGroup().identity is Q.identity


triples = st.tuples(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)


@given(triples, triples, triples)
def test_heisenberg_group_laws(a, b, c):
    assert H3.mul(H3.mul(a, b), c) == H3.mul(a, H3.mul(b, c))
    assert H3.mul(a, H3.inv(a)) == H3.identity
    assert H3.mul(H3.inv(a), a) == H3.identity


def test_heisenberg_not_commutative():
    found = any(
        H3.mul(a, b) != H3.mul(b, a)
        for a, b in itertools.product(H3.window(1), repeat=2)
    )
    assert found


def test_order_trichotomy_and_transitivity(any_group):
    g = any_group
    elems = g.window(2)
    for a, b in itertools.product(elems, repeat=2):
        v = g.cmp(a, b)
        assert v in (-1, 0, 1)
        assert v == -g.cmp(b, a)
        assert (v == 0) == (a == b)
    for a, b, c in itertools.product(elems, repeat=3):
        if g.leq(a, b) and g.leq(b, c):
            assert g.leq(a, c)


def test_order_bi_invariance(any_group):
    g = any_group
    elems = g.window(2)
    for a, b, t in itertools.product(elems, repeat=3):
        if g.lt(a, b):
            assert g.lt(g.mul(a, t), g.mul(b, t))
            assert g.lt(g.mul(t, a), g.mul(t, b))


def test_cone_axioms_hold_on_instances(any_group):
    g = any_group
    elems = g.window(2)
    assert check_positive_cone_axioms(g, elems).all_ok


def test_cone_axioms_fail_on_broken_instance(broken_group):
    verdict = check_positive_cone_axioms(broken_group, list(range(-2, 3)))
    assert not verdict.axiom1_ok
    assert verdict.counterexample == (1, 1)
    assert not verdict.all_ok


class _AbsoluteOrder(IntegerGroup):
    """Z ordered by |g|, ties broken by sign: every element is positive."""

    def cmp(self, g, h):
        a, b = (abs(g), g), (abs(h), h)
        return (a > b) - (a < b)


class _XZYOrder(HeisenbergGroup):
    """H3 ordered lexicographically by (x, z, y): conjugation shifts the z
    coordinate, which this order ranks above y, so the cone is not stable
    under it."""

    def cmp(self, g, h):
        a, b = (g[0], g[2], g[1]), (h[0], h[2], h[1])
        return (a > b) - (a < b)


def test_cone_axioms_catch_a_cone_meeting_its_inverses():
    verdict = check_positive_cone_axioms(_AbsoluteOrder(), Z.window(3))
    assert verdict == ConeVerdict(True, False, True, (-3, 3))


def test_cone_axioms_catch_a_cone_unstable_under_conjugation():
    verdict = check_positive_cone_axioms(_XZYOrder(), H3.window(1))
    assert verdict == ConeVerdict(True, True, False, ((-1, -1, -1), (0, -1, 1)))


def test_cone_verdict_counterexample_only_on_failure(any_group):
    g = any_group
    elems = g.window(2)
    verdict = check_positive_cone_axioms(g, elems)
    assert verdict.counterexample is None


def test_successor_check_examples():
    assert successor_check(Z, 5)
    assert Z.successor(5) == 6
    assert successor_check(ZXZ, (2, 7))
    assert ZXZ.successor((2, 7)) == (2, 8)
    with pytest.raises(NotApplicable):
        successor_check(Q, Fraction(1))
    with pytest.raises(NotApplicable):
        Q.successor(Fraction(1))


def test_succ_pred_roundtrip():
    for g in (Z, ZXZ, H3):
        for x in g.window(2):
            assert g.predecessor(g.successor(x)) == x
            assert g.successor(g.predecessor(x)) == x
            assert g.lt(x, g.successor(x))


def test_minimal_positive_elements():
    assert Z.successor(Z.identity) == 1
    assert ZXZ.successor(ZXZ.identity) == (0, 1)
    assert H3.successor(H3.identity) == (0, 0, 1)
    # nothing in a window sits strictly between the identity and the successor
    for g in (Z, ZXZ, H3):
        succ = g.successor(g.identity)
        for x in g.window(3):
            assert not (g.lt(g.identity, x) and g.lt(x, succ))


def test_rational_density_witness():
    grid = Q.window(3)
    for a, b in itertools.product(grid, repeat=2):
        if Q.lt(a, b):
            m = Q.between(a, b)
            assert Q.lt(a, m) and Q.lt(m, b)


def test_element_below(any_group):
    g = any_group
    probe = g.designated_positive
    below = g.element_below(probe)
    assert g.lt(below, probe)


def test_power():
    assert Z.power(2, 3) == 6
    assert Z.power(2, -2) == -4
    assert H3.power((1, 1, 0), 2) == H3.mul((1, 1, 0), (1, 1, 0))


def test_heisenberg_product_and_inverse_shapes():
    assert H3.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert H3.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 0)
    x = (3, -2, 5)
    assert H3.mul(x, H3.inv(x)) == (0, 0, 0)


def test_contains_is_strict(any_group):
    g = any_group
    assert g.contains(g.identity)
    assert not g.contains("nope")
    assert not g.contains(True)
    if g.payload_kind == "int-tuple":
        n = g.payload_arity
        assert g.contains((1,) * n)
        assert not g.contains((1,) * (n - 1))
        assert not g.contains((1,) * (n + 1))
        assert not g.contains([1] * n)
        # a non-int in any one coordinate is refused
        for i, bad in itertools.product(range(n), (True, 1.0, "1")):
            assert not g.contains((1,) * i + (bad,) + (1,) * (n - 1 - i)), (i, bad)
