"""Anchored partial shifts between cones and their composition oracle.

A shift maps the cone at its domain anchor bijectively onto the cone at
its codomain anchor by x -> x * dom^-1 * cod.  Domains stay intensional
(anchor plus membership test), never enumerated.  Composition has a
closed form on anchors; the pointwise oracle below cross-checks it on
explicit sample points, which is also how the pair representation is
kept honest.

Anchors are validated at the boundary only, as pair payloads are: the
public ``PartialShift`` constructor checks both with ``contains``.
``compose``, ``PartialShift.inverse`` and ``pair_to_shift`` build their
results unchecked, because their anchors are carrier products or come
from an already checked shift or pair; the ``group-laws`` suite check
guards the closure of ``mul`` and ``inv`` that this relies on.

Shifts are filled as pairs are (see ``pairs``): ``_shift`` stores the
fields on a ``_ShiftSlots`` layout twin, which has no raising
``__setattr__``, and retags the finished object as a ``PartialShift``.
Everything else a frozen value needs (equality, hashing, ``repr``, the
refused stores and the rebuild for copy and pickle) comes from
``records.Record``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InstanceMismatch, OutOfDomain
from .ogroups import Element, OrderedGroup
from .pairs import BElement
from .records import Record


class _ShiftSlots:
    """The storage layout of ``PartialShift``, without its frozen ``__setattr__``."""

    __slots__ = ("group", "dom_anchor", "cod_anchor")


class PartialShift(_ShiftSlots, Record):
    """Bijection from the cone at ``dom_anchor`` onto the cone at ``cod_anchor``.

    An immutable value: equal shifts hash alike, and assigning or deleting
    a field raises ``FrozenInstanceError`` (an ``AttributeError``).
    """

    # a slot added here alone would make the retag in _shift fail
    __slots__ = ()
    __match_args__ = ("group", "dom_anchor", "cod_anchor")

    def __new__(cls, group: OrderedGroup, dom_anchor: Element, cod_anchor: Element):
        if not (group.contains(dom_anchor) and group.contains(cod_anchor)):
            raise ValueError(f"anchor outside the {group.name} carrier")
        return _shift(group, dom_anchor, cod_anchor)

    def in_domain(self, x: Element) -> bool:
        return self.group.leq(self.dom_anchor, x)

    def apply(self, x: Element) -> Element:
        """Evaluate at ``x``; raises OutOfDomain below the domain anchor."""
        g = self.group
        if not self.in_domain(x):
            raise OutOfDomain(
                f"{g.render(x)} is below the domain anchor {g.render(self.dom_anchor)}"
            )
        return g.mul(g.mul(x, g.inv(self.dom_anchor)), self.cod_anchor)

    def inverse(self) -> "PartialShift":
        return _shift(self.group, self.cod_anchor, self.dom_anchor)

    def __str__(self):
        g = self.group
        return f"shift {g.render(self.dom_anchor)} -> {g.render(self.cod_anchor)}"


def _shift(group: OrderedGroup, dom_anchor: Element, cod_anchor: Element) -> PartialShift:
    """Unchecked constructor for anchors the carrier produced itself."""
    m = _ShiftSlots()
    m.group = group
    m.dom_anchor = dom_anchor
    m.cod_anchor = cod_anchor
    m.__class__ = PartialShift
    return m


def compose(m1: PartialShift, m2: PartialShift) -> PartialShift:
    """Closed-form composite of two shifts, ``m1`` applied first.

    Writing m1: cone(p) -> cone(q) and m2: cone(r) -> cone(s), the
    composite runs cone((q v r) * q^-1 * p) -> cone((q v r) * r^-1 * s),
    where v is the order maximum.
    """
    if m1.group != m2.group:
        raise InstanceMismatch(
            f"cannot compose a {m1.group.name} shift with a {m2.group.name} shift"
        )
    g = m1.group
    join = g.maximum(m1.cod_anchor, m2.dom_anchor)
    dom = g.mul(g.mul(join, g.inv(m1.cod_anchor)), m1.dom_anchor)
    cod = g.mul(g.mul(join, g.inv(m2.dom_anchor)), m2.cod_anchor)
    return _shift(g, dom, cod)


def compose_pointwise_oracle(
    m1: PartialShift, m2: PartialShift, samples: Iterable[Element]
) -> bool:
    """Check the closed-form composite against pointwise evaluation.

    True when, for every sample, membership in the composite's domain
    coincides with chained membership (inside dom(m1) with image inside
    dom(m2)), and the two evaluation routes agree wherever defined.
    """
    composite = compose(m1, m2)
    for x in samples:
        image = m1.apply(x) if m1.in_domain(x) else None
        chained = image is not None and m2.in_domain(image)
        if composite.in_domain(x) != chained:
            return False
        if chained and composite.apply(x) != m2.apply(image):
            return False
    return True


def pair_to_shift(s: BElement) -> PartialShift:
    """The shift a pair denotes: left coordinate is the domain anchor."""
    return _shift(s.group, s.left, s.right)


def pair_product_matches_shifts(s: BElement, t: BElement) -> bool:
    """Soundness of the pair representation for one concrete product."""
    composite = compose(pair_to_shift(s), pair_to_shift(t))
    prod = s * t
    return composite.dom_anchor == prod.left and composite.cod_anchor == prod.right
