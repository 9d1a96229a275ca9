import copy
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from bicext import shifts
from bicext.errors import InstanceMismatch, OutOfDomain
from bicext.ogroups import GROUPS, H3, Z, ZXZ
from bicext.pairs import BElement, pairs_in_window
from bicext.shifts import (
    PartialShift,
    compose,
    compose_pointwise_oracle,
    pair_product_matches_shifts,
    pair_to_shift,
)


def test_apply():
    m = PartialShift(Z, 2, 5)
    assert m.apply(3) == 6
    assert Z.leq(5, m.apply(3))
    with pytest.raises(OutOfDomain):
        m.apply(1)


def test_identity_shift_fixes_anchor(any_group):
    g = any_group
    anchor = g.designated_positive
    m = PartialShift(g, anchor, anchor)
    assert m.apply(anchor) == anchor


def test_compose_anchor_examples():
    m = compose(PartialShift(Z, 0, 1), PartialShift(Z, 1, 0))
    assert (m.dom_anchor, m.cod_anchor) == (0, 0)

    e = PartialShift(Z, 4, 4)
    same = compose(e, e)
    assert (same.dom_anchor, same.cod_anchor) == (4, 4)

    m = compose(PartialShift(Z, 0, 2), PartialShift(Z, 1, 3))
    assert (m.dom_anchor, m.cod_anchor) == (0, 4)
    assert compose_pointwise_oracle(
        PartialShift(Z, 0, 2), PartialShift(Z, 1, 3), range(0, 9)
    )


def test_pointwise_oracle_applies_each_shift_once_per_point(counting):
    # compose makes 4 products and 2 inverses; each of the 9 chained points
    # then takes one apply of m1, of m2 and of the composite, at 2 products
    # and 1 inverse each, and the 2 points below dom(m1) take none
    carrier, calls = counting(Z)
    m1, m2 = PartialShift(carrier, 0, 2), PartialShift(carrier, 1, 3)
    calls.clear()
    assert compose_pointwise_oracle(m1, m2, range(-2, 9))
    assert (calls["mul"], calls["inv"]) == (4 + 9 * 6, 2 + 9 * 3)


def test_pointwise_oracle_on_integers():
    samples = list(range(-4, 9))
    anchors = Z.window(3)
    for g1, h1, g2, h2 in itertools.product(anchors[::2], repeat=4):
        m1, m2 = PartialShift(Z, g1, h1), PartialShift(Z, g2, h2)
        assert compose_pointwise_oracle(m1, m2, samples)


def test_pointwise_oracle_identity_shift(any_group):
    g = any_group
    e = PartialShift(g, g.identity, g.identity)
    m = PartialShift(g, g.identity, g.designated_positive)
    pts = [g.power(g.designated_positive, k) for k in range(0, 5)]
    assert compose_pointwise_oracle(e, m, pts)
    assert compose_pointwise_oracle(m, e, pts)


def test_pointwise_oracle_catches_a_composite_with_wrong_values(monkeypatch):
    # the composite keeps its domain, so only the value comparison can see
    # that it sends each point one step past where m2 sends m1's image
    m1, m2 = PartialShift(Z, 0, 2), PartialShift(Z, 1, -1)
    assert compose_pointwise_oracle(m1, m2, range(-3, 4))

    def one_step_past(a, b):
        c = compose(a, b)
        return PartialShift(Z, c.dom_anchor, c.cod_anchor + 1)

    monkeypatch.setattr(shifts, "compose", one_step_past)
    assert not compose_pointwise_oracle(m1, m2, range(-3, 4))


def test_pointwise_oracle_heisenberg_random_anchors():
    rng = random.Random("h3-shift-stress")
    anchors = H3.window(2)
    points = H3.window(1)
    for _ in range(150):
        m1 = PartialShift(H3, rng.choice(anchors), rng.choice(anchors))
        m2 = PartialShift(H3, rng.choice(anchors), rng.choice(anchors))
        assert compose_pointwise_oracle(m1, m2, points)


def test_pair_representation_soundness():
    for pool in (pairs_in_window(Z, 2), pairs_in_window(ZXZ, 1)):
        for s, t in itertools.product(pool, repeat=2):
            assert pair_product_matches_shifts(s, t)


def test_pair_to_shift_orientation():
    s = BElement(Z, 2, 5)
    m = pair_to_shift(s)
    assert (m.dom_anchor, m.cod_anchor) == (2, 5)


def test_bijectivity_on_samples():
    points = Z.window((0, 10))
    for a, b in itertools.product(Z.window(2), repeat=2):
        m = PartialShift(Z, a, b)
        back = m.inverse()
        images = []
        for x in points:
            if not m.in_domain(x):
                continue
            y = m.apply(x)
            assert Z.leq(b, y)
            assert back.apply(y) == x
            images.append(y)
        assert len(images) == len(set(images))


def test_compose_instance_mismatch():
    with pytest.raises(InstanceMismatch):
        compose(PartialShift(Z, 0, 0), PartialShift(ZXZ, (0, 0), (0, 0)))


def _sample(group):
    """A shift on ``group`` with distinct anchors."""
    return PartialShift(group, group.identity, group.designated_positive)


def test_value_semantics(any_group):
    # a slot added to a value class alone would break the unchecked builders
    assert BElement.__slots__ == PartialShift.__slots__ == ()
    g = any_group
    m = _sample(g)
    n = PartialShift(g, g.designated_positive, g.identity)
    derived = [compose(m, n), compose(n, m), m.inverse(),
               pair_to_shift(BElement(g, g.identity, g.designated_positive))]
    for v in [m, *derived]:
        assert type(v) is PartialShift and not hasattr(v, "__dict__")
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is PartialShift
            assert twin == v and hash(twin) == hash(v)
            assert (twin.dom_anchor, twin.cod_anchor) == (v.dom_anchor, v.cod_anchor)
        for field in ("group", "dom_anchor", "cod_anchor"):
            with pytest.raises(FrozenInstanceError):
                setattr(v, field, v.dom_anchor)
            with pytest.raises(FrozenInstanceError):
                delattr(v, field)
    assert m != (any_group, m.dom_anchor, m.cod_anchor)
    # separately constructed carriers of one type are interchangeable
    twin = _sample(type(any_group)())
    assert twin == m and hash(twin) == hash(m)
    assert m.inverse().inverse() == m
    assert repr(m) == (
        f"PartialShift(group={any_group!r}, dom_anchor={m.dom_anchor!r}, "
        f"cod_anchor={m.cod_anchor!r})"
    )
    outside = [other.designated_positive for other in GROUPS.values()
               if not any_group.contains(other.designated_positive)]
    assert outside
    for bad in outside:
        with pytest.raises(ValueError, match=f"anchor outside the {any_group.name} carrier"):
            PartialShift(any_group, bad, any_group.identity)
        with pytest.raises(ValueError, match=f"anchor outside the {any_group.name} carrier"):
            PartialShift(any_group, any_group.identity, bad)


def test_derived_shifts_validate_nothing(any_group, counting):
    # anchors are checked once at the constructor; composites, inverses and
    # the shifts of pairs, whose anchors the carrier made, check nothing
    g = any_group
    one = g.designated_positive
    carrier, calls = counting(g)
    m = PartialShift(carrier, g.inv(one), one)
    assert calls == {"contains": 2}
    others = [m, PartialShift(carrier, one, g.identity)]
    pairs = [BElement(carrier, a, b) for a in (g.inv(one), g.identity) for b in (g.identity, one)]
    calls.clear()
    for n in others:
        compose(m, n)
        compose(n, m)
        n.inverse()
    for s, t in itertools.product(pairs, repeat=2):
        pair_to_shift(s)
        assert pair_product_matches_shifts(s, t)
    assert calls["contains"] == 0
