import copy
import importlib
import itertools
import pickle
import pkgutil
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bicext
from bicext.certificates import build_witness_chain, density_probe, escape_certificate
from bicext.errors import InstanceMismatch
from bicext.natorder import (
    SolutionKind,
    SolutionSet,
    nat_leq,
    solve_left,
    solve_right,
    solve_sandwich,
    up_set_window,
)
from bicext.ogroups import GROUPS, H3, Q, Z, ZXZ, ConeVerdict, check_positive_cone_axioms
from bicext.pairs import BElement, idempotent, pairs_in_window
from bicext.shifts import PartialShift
from bicext.suites import CheckResult, SuiteConfig, SuiteReport


def be(group, a, b):
    return BElement(group, a, b)


def test_product_three_cases():
    # middle case collapses to the outer coordinates
    assert be(Z, 0, 1) * be(Z, 1, 0) == be(Z, 0, 0)
    assert be(Z, 5, 2) * be(Z, 2, 2) == be(Z, 5, 2)
    # left coordinate shifts when the inner coordinates are ordered upward
    assert be(Z, 0, 1) * be(Z, 3, 0) == be(Z, 2, 0)
    # right coordinate shifts in the mirrored case
    assert be(Z, 0, 3) * be(Z, 1, 0) == be(Z, 0, 2)


def test_product_lex_example():
    s = be(ZXZ, (0, 0), (0, 1))
    t = be(ZXZ, (1, 0), (2, 3))
    assert s * t == be(ZXZ, (1, -1), (2, 3))


def test_inverse():
    assert be(Z, 3, 5).inverse() == be(Z, 5, 3)
    e = be(Z, 4, 4)
    assert e.inverse() == e
    s = be(Q, Fraction(1, 2), Fraction(2, 3))
    assert s.inverse() == be(Q, Fraction(2, 3), Fraction(1, 2))
    assert s * s.inverse() * s == s


def test_idempotents():
    assert be(Z, 4, 4).is_idempotent()
    assert not be(Z, 4, 5).is_idempotent()
    for s in pairs_in_window(Z, 2):
        assert (s * s.inverse()).is_idempotent()
        assert s * s.inverse() == idempotent(Z, s.left)


def test_in_bplus():
    assert be(Z, 0, 3).in_bplus()
    assert not be(Z, -1, 3).in_bplus()
    plus = pairs_in_window(Z, 2, bplus=True)
    assert all(s.left >= 0 and s.right >= 0 for s in plus)
    for s, t in itertools.product(plus, repeat=2):
        assert (s * t).in_bplus()


def test_instance_mismatch():
    with pytest.raises(InstanceMismatch):
        be(Z, 0, 0) * be(ZXZ, (0, 0), (0, 0))


def test_carrier_validation():
    with pytest.raises(ValueError):
        be(Z, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        be(ZXZ, (1, 2, 3), (0, 0))
    with pytest.raises(ValueError):
        be(Q, 1, 1)  # rationals must be Fraction payloads
    with pytest.raises(ValueError):
        idempotent(H3, (0, 0))


def test_associativity_small_windows():
    # exhaustive over the integers; strided subsets keep the other carriers
    # to ~20k triples while still touching every coordinate region
    for group, w in ((Z, 2), (ZXZ, 1), (H3, 1)):
        pool = pairs_in_window(group, w)
        step = max(1, len(pool) // 27)
        sub = pool[::step]
        for s, t in itertools.product(pool[:: max(1, step // 3)], sub):
            st_ = s * t
            for u in sub:
                assert (st_ * u) == s * (t * u)


@given(st.tuples(*[st.integers(-50, 50)] * 6))
def test_associativity_random_integers(coords):
    a, b, c, d, e, f = coords
    s, t, u = be(Z, a, b), be(Z, c, d), be(Z, e, f)
    assert (s * t) * u == s * (t * u)


def test_inverse_is_unique_in_window():
    pool = pairs_in_window(Z, 2)
    for s in pool:
        mates = [t for t in pool if s * t * s == s and t * s * t == t]
        assert mates == [s.inverse()]


def test_idempotents_commute():
    idems = [idempotent(Z, x) for x in Z.window(3)]
    for e, f in itertools.product(idems, repeat=2):
        assert e * f == f * e


def test_bicyclic_relations_in_positive_part():
    p = be(Z, 0, 1)
    q = be(Z, 1, 0)
    unit = be(Z, 0, 0)
    assert p * q == unit
    assert q * p == be(Z, 1, 1) != unit
    for s in pairs_in_window(Z, 3, bplus=True):
        assert unit * s == s
        assert s * unit == s


def test_full_pair_semigroup_has_no_identity():
    # probes live one step outside the candidate window: the corner
    # idempotent below everything distinguishes would-be identities
    candidates = pairs_in_window(Z, 2)
    probes = pairs_in_window(Z, 3)
    for cand in candidates:
        assert any(
            cand * p != p or p * cand != p for p in probes
        ), f"{cand} acts as an identity"


def test_str_and_repr():
    s = be(ZXZ, (0, 1), (1, 0))
    assert str(s) == "[(0,1)|(1,0)]"
    assert "ZxZ" in repr(s)


def _sample(group):
    """A pair on ``group`` with distinct coordinates."""
    return be(group, group.identity, group.designated_positive)


def _derived(g):
    """Pairs the unchecked builders made: products in each branch of the
    product, an inverse, solver answers and ``up_set_window`` members."""
    one = g.designated_positive
    lo, mid, hi = g.inv(one), g.identity, one
    left = be(g, lo, mid)
    out = [left * be(g, hi, lo), left * be(g, mid, hi), left * be(g, lo, lo), left.inverse()]
    for solve, known, unique, up in (
        (solve_right, be(g, mid, hi), be(g, hi, mid), be(g, mid, lo)),
        (solve_left, be(g, hi, mid), be(g, mid, hi), be(g, lo, mid)),
    ):
        answers = solve(unique, known), solve(up, known)
        assert [a.kind for a in answers] == [SolutionKind.UNIQUE, SolutionKind.UP_SET]
        out += [a.element for a in answers]
    out.append(solve_sandwich(be(g, lo, hi), be(g, lo, mid), be(g, mid, hi)).element)
    if g.enumerable:
        members = up_set_window(be(g, mid, mid), 1)
        assert members
        out += members
    return out


def test_value_semantics(any_group):
    assert BElement.__slots__ == ()
    s = _sample(any_group)
    for v in [s, *_derived(any_group)]:
        assert type(v) is BElement and not hasattr(v, "__dict__")
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is BElement
            assert twin == v and hash(twin) == hash(v)
            assert (twin.left, twin.right) == (v.left, v.right)
        for field in ("group", "left", "right"):
            with pytest.raises(FrozenInstanceError):
                setattr(v, field, v.left)
            with pytest.raises(FrozenInstanceError):
                delattr(v, field)
    assert s != (any_group, s.left, s.right)


_CHAIN = build_witness_chain(BElement(Z, 0, 1), BElement(Z, 2, -1))
_CHECK = CheckResult("axioms", "group-laws", "pass", 3, None, 0.5)
# one value of each frozen record and of the two algebra values, its fields
# in constructor order, and its repr
_RECORDS = [
    (BElement(Z, 0, 1), ("group", "left", "right"), "BElement(Z, 0, 1)"),
    (
        PartialShift(Z, 0, 1),
        ("group", "dom_anchor", "cod_anchor"),
        "PartialShift(group=<ordered group Z>, dom_anchor=0, cod_anchor=1)",
    ),
    (
        check_positive_cone_axioms(Z, [0, 1]),
        ("axiom1_ok", "axiom2_ok", "axiom3_ok", "counterexample"),
        "ConeVerdict(axiom1_ok=True, axiom2_ok=True, axiom3_ok=True, counterexample=None)",
    ),
    (
        solve_right(BElement(Z, 5, 2), BElement(Z, 3, 4)),
        ("kind", "element"),
        "SolutionSet(kind=<SolutionKind.UNIQUE: 'Unique'>, element=BElement(Z, 6, 2))",
    ),
    (
        density_probe(Q, [Fraction(1, 2)]),
        ("densely_ordered", "minimal_positive", "witnesses", "checked"),
        "DensityVerdict(densely_ordered=True, minimal_positive=None, "
        "witnesses=((Fraction(1, 2), Fraction(1, 4)),), checked=1)",
    ),
    (
        _CHAIN,
        ("seed", "target", "right_translator", "intermediate", "left_translator"),
        "WitnessChain(seed=BElement(Z, 0, 1), target=BElement(Z, 2, -1), "
        "right_translator=BElement(Z, -2, 0), intermediate=BElement(Z, 0, -1), "
        "left_translator=BElement(Z, -1, 1))",
    ),
    (
        escape_certificate(idempotent(Z, 1), BElement(Z, 0, 1)),
        ("idempotent", "point", "side", "product", "excluded_region"),
        "EscapeCertificate(idempotent=BElement(Z, 1, 1), point=BElement(Z, 0, 1), "
        "side='left', product=BElement(Z, 1, 2), "
        "excluded_region=<ExcludedRegion.LEFT_IDEAL: 'left-ideal'>)",
    ),
    (
        SuiteConfig("Z", 2, 1, ("axioms",)),
        ("group", "window", "sample_seed", "suites"),
        "SuiteConfig(group='Z', window=2, sample_seed=1, suites=('axioms',))",
    ),
    (
        _CHECK,
        ("suite", "name", "status", "cases", "counterexample", "wall_ms"),
        "CheckResult(suite='axioms', name='group-laws', status='pass', cases=3, "
        "counterexample=None, wall_ms=0.5)",
    ),
    (
        SuiteReport("Z", 2, 0, (_CHECK,)),
        ("group", "window", "sample_seed", "checks"),
        "SuiteReport(group='Z', window=2, sample_seed=0, checks=(CheckResult(suite='axioms', "
        "name='group-laws', status='pass', cases=3, counterexample=None, wall_ms=0.5),))",
    ),
]


@pytest.mark.parametrize(
    "record, fields, text", _RECORDS, ids=[type(r).__name__ for r, _, _ in _RECORDS]
)
def test_record_value_semantics(record, fields, text):
    cls = type(record)
    values = tuple(getattr(record, f) for f in fields)
    assert cls.__match_args__ == fields and not hasattr(record, "__dict__")
    assert repr(record) == text
    # positional and keyword construction give equal values that hash alike
    for twin in (cls(*values), cls(**dict(zip(fields, values))),
                 copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert tuple(getattr(twin, f) for f in fields) == values
    # equality is by class, then fields
    for other, _, _ in _RECORDS:
        if other is not record:
            assert record != other and record.__eq__(other) is NotImplemented
    assert record != values
    for name in (*fields, "unknown"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values


def test_record_alone_defines_the_frozen_protocol():
    # records.Record is the one frozen-value base: no other class in the
    # package refuses stores or says how it is rebuilt
    defined = set()
    for info in pkgutil.iter_modules(bicext.__path__):
        module = importlib.import_module(f"bicext.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                defined |= {(cls.__qualname__, name) for name in vars(cls)
                            if name in ("__setattr__", "__delattr__", "__reduce__")}
    assert defined == {("Record", "__setattr__"), ("Record", "__delattr__"), ("Record", "__reduce__")}


def test_record_defaults():
    assert ConeVerdict(True, True, False).counterexample is None
    assert SolutionSet(SolutionKind.NO_SOLUTION) == SolutionSet(SolutionKind.NO_SOLUTION, None)
    assert SuiteConfig("Z") == SuiteConfig("Z", 4, 0, ())
    with pytest.raises(ValueError, match="window must be >= 1"):
        SuiteConfig("Z", window=0)
    with pytest.raises(ValueError, match="unknown suite name"):
        SuiteConfig("Z", suites=("nonsense",))
    with pytest.raises(ValueError, match="unknown group selector"):
        SuiteConfig("R")


def test_carrier_instances_compare_by_type(any_group):
    # separately constructed carriers of one type are interchangeable
    twin = type(any_group)()
    s, t = _sample(any_group), _sample(twin)
    assert s == t and hash(s) == hash(t)
    assert s * t == t * s == s * s
    assert nat_leq(s, t)
    for other in GROUPS.values():
        if type(other) is not type(any_group):
            with pytest.raises(InstanceMismatch):
                s * _sample(other)
            with pytest.raises(InstanceMismatch):
                nat_leq(s, _sample(other))


def test_products_validate_nothing(any_group, counting):
    # payloads are checked once at the boundary; products and inverses,
    # whose payloads the carrier made itself, check nothing
    g = any_group
    one = g.designated_positive
    lo, mid, hi = g.inv(one), g.identity, one
    carrier, calls = counting(g)
    BElement(carrier, lo, hi)
    assert calls == {"contains": 2}
    left = BElement(carrier, lo, mid)
    for right in (BElement(carrier, hi, lo), BElement(carrier, mid, hi), BElement(carrier, lo, lo)):
        calls.clear()
        product = left * right
        assert calls["contains"] == 0 and calls["cmp"] == 1
        assert g.contains(product.left) and g.contains(product.right)
    calls.clear()
    left.inverse()
    assert not calls
