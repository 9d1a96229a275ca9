"""Pairs of group elements under the three-case anchored product.

A pair (a, b) stands for the shift carrying the cone at ``a`` onto the
cone at ``b``; composing two shifts collapses to the closed formula of
the carrier's ``pair_product``, which ``__mul__`` calls once.  One type
serves both the full pair semigroup and its positive-coordinate
subsemigroup: membership in the latter is a predicate, not a separate
class.

Payloads are validated at the boundary only: the public constructor,
``idempotent`` and the literal step parser check them with ``contains``.
Products, inverses and solver results are built unchecked, because a
carrier is closed under its own ``mul``, ``inv`` and ``carry``; the
``group-laws`` suite check guards that closure on every carrier it runs
over.  A pair literal matched whole is built unchecked too: the
literal pattern admits only carrier members (see ``literals``).

Every value, checked or not, is filled the same way, by ``_make`` or
its inline copy in ``__mul__``: plain attribute stores on a
``_PairSlots`` object, which is then retagged as a ``BElement``.  The
raising ``__setattr__`` that ``BElement`` inherits from
``records.Record``, the one frozen-value base, would refuse those
stores, so they go to the layout twin, which has the same slots and no
``__setattr__``; CPython allows the ``__class__`` assignment because
the two layouts are identical.
"""

from __future__ import annotations

from typing import List, Sequence

from .errors import InstanceMismatch
from .ogroups import Bounds, Element, OrderedGroup
from .records import Record


class _PairSlots:
    """The storage layout of ``BElement``, without its frozen ``__setattr__``."""

    __slots__ = ("group", "left", "right")


class BElement(_PairSlots, Record):
    """One element of the pair semigroup over a fixed ordered group.

    An immutable value: equal pairs hash alike, and assigning or deleting
    a field raises ``FrozenInstanceError`` (an ``AttributeError``).
    """

    # a slot added here alone would make the retag in _make fail
    __slots__ = ()
    __match_args__ = ("group", "left", "right")

    def __new__(cls, group: OrderedGroup, left: Element, right: Element):
        if not (group.contains(left) and group.contains(right)):
            raise ValueError(
                f"payload outside the {group.name} carrier: {left!r}, {right!r}"
            )
        return _make(group, left, right)

    # Record's __eq__ and __hash__ would give the same answers through a
    # generic field walk; these spell the three fields out, because the
    # suites compare and hash pairs on their hot path.  __repr__ below is
    # the README's short form, BElement(Z, 0, 0), not Record's
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.left, self.right) == (other.group, other.left, other.right)

    def __hash__(self):
        return hash((self.group, self.left, self.right))

    def __mul__(self, other: "BElement") -> "BElement":
        if not isinstance(other, BElement):
            return NotImplemented
        g = self.group
        if other.group is not g and other.group != g:
            raise InstanceMismatch(
                f"cannot multiply a {g.name} pair with a {other.group.name} pair"
            )
        # built inline as _make does, one call frame cheaper per product
        s = _PairSlots()
        s.group = g
        s.left, s.right = g.pair_product(self.left, self.right, other.left, other.right)
        s.__class__ = BElement
        return s

    def inverse(self) -> "BElement":
        """Swap coordinates; the unique semigroup inverse."""
        return _make(self.group, self.right, self.left)

    def is_idempotent(self) -> bool:
        return self.left == self.right

    def in_bplus(self) -> bool:
        """Both coordinates in the positive cone."""
        return self.group.is_positive(self.left) and self.group.is_positive(self.right)

    def __str__(self):
        g = self.group
        return f"[{g.render(self.left)}|{g.render(self.right)}]"

    def __repr__(self):
        return f"BElement({self.group.name}, {self.left!r}, {self.right!r})"


def pair_to_json(s: BElement) -> dict:
    g = s.group
    return {"left": g.render(s.left), "right": g.render(s.right)}


def _make(group: OrderedGroup, left: Element, right: Element) -> BElement:
    """Unchecked constructor for payloads the carrier produced itself."""
    s = _PairSlots()
    s.group = group
    s.left = left
    s.right = right
    s.__class__ = BElement
    return s


def idempotent(group: OrderedGroup, x: Element) -> BElement:
    return BElement(group, x, x)


def pairs_over(group: OrderedGroup, elems: Sequence[Element], bplus: bool = False) -> List[BElement]:
    """Every pair of entries of ``elems``, left coordinate first; with
    ``bplus``, only the pairs whose coordinates are both positive."""
    if bplus:
        elems = [x for x in elems if group.is_positive(x)]
    return [BElement(group, a, b) for a in elems for b in elems]


def pairs_in_window(group: OrderedGroup, bounds: Bounds, bplus: bool = False) -> List[BElement]:
    """Every pair over the carrier's ``window(bounds)`` (on Q, its grid),
    in window order, left coordinate first, so repeated calls list pairs
    identically."""
    return pairs_over(group, group.window(bounds), bplus)
