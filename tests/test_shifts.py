import itertools
import random

import pytest

from bicext.errors import InstanceMismatch, OutOfDomain
from bicext.ogroups import H3, Z, ZXZ
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


def test_pointwise_oracle_on_integers():
    samples = list(range(-4, 9))
    anchors = Z.elements(3)
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


def test_pointwise_oracle_heisenberg_random_anchors():
    rng = random.Random("h3-shift-stress")
    anchors = H3.elements(2)
    points = H3.elements(1)
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
    points = Z.elements((0, 10))
    for a, b in itertools.product(Z.elements(2), repeat=2):
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
