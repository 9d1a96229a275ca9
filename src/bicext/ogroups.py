"""Linearly ordered groups with exact arithmetic.

The abstraction is small on purpose: a carrier with identity,
multiplication, inversion, a total order invariant under translation on
both sides, and an optional successor/predecessor when the order is not
dense.  Four concrete carriers ship: integers, rationals, integer pairs
under the lexicographic order, and the discrete Heisenberg group ordered
lexicographically.  Each writes ``carry(x, y, z) = x * y^-1 * z``, which
every pair product, the natural order and the solvers reduce to, in
closed form.  The Heisenberg order is validated by the cone
checker at the bottom of this module rather than taken on faith.

Element payloads are plain Python values (int, Fraction, tuple of ints),
so equality is structural and all arithmetic is exact; integers never
wrap because Python's are unbounded.

The rational carrier reads and stores the private ``_numerator`` and
``_denominator`` slots of CPython's ``fractions.Fraction``; a test against
the public operators fails if a Python release renames them or makes
hashing or equality read a slot these stores leave unset.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

from .errors import NotApplicable
from .records import Record, _store

Element = Union[int, Fraction, Tuple[int, ...]]
Bounds = Union[int, Tuple[int, int]]


def normalize_bounds(bounds: Bounds) -> Tuple[int, int]:
    """Accept either a symmetric radius or an explicit (lo, hi) pair."""
    if isinstance(bounds, int):
        if bounds < 0:
            raise ValueError("window radius must be non-negative")
        return -bounds, bounds
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"empty window {bounds!r}")
    return lo, hi


class OrderedGroup:
    """A linearly ordered group over exact immutable payloads.

    Subclasses provide the carrier operations; this base class derives
    the comparison helpers from ``cmp`` and adds the utilities the
    semigroup layers need.  Instances are stateless and compare equal by
    type, so separately constructed copies are interchangeable.
    """

    name = "?"
    densely_ordered = False
    enumerable = True
    abelian = True
    # parse_pair builds a pair from a literal its pattern matches without
    # contains, so contains must accept every value the kind's grammar reads
    payload_kind = "integer"  # integer | fraction | int-tuple
    payload_arity = 1

    # carrier operations ------------------------------------------------

    @property
    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def inv(self, g: Element) -> Element:
        raise NotImplementedError

    def carry(self, x: Element, y: Element, z: Element) -> Element:
        """x * y^-1 * z, where the shift carrying y onto z sends x."""
        return self.mul(self.mul(x, self.inv(y)), z)

    def __init_subclass__(cls, **kwargs):
        # a subclass or mixin replacing mul or inv, not carry, gets this carry
        super().__init_subclass__(**kwargs)
        home = next(k for k in cls.__mro__ if "carry" in vars(k))
        if cls.mul is not home.mul or cls.inv is not home.inv:
            cls.carry = OrderedGroup.carry

    def cmp(self, g: Element, h: Element) -> int:
        """Total-order verdict: -1 (less), 0 (equal) or 1 (greater)."""
        return (g > h) - (g < h)

    def contains(self, x) -> bool:
        raise NotImplementedError

    def successor(self, g: Element) -> Element:
        """Least element strictly above ``g``; undefined on dense carriers."""
        raise NotApplicable(f"{self.name} declares no successor")

    def predecessor(self, g: Element) -> Element:
        raise NotApplicable(f"{self.name} declares no predecessor")

    @property
    def designated_positive(self) -> Element:
        """A fixed element strictly above the identity.

        Present on every carrier so constructions that merely need "some
        element strictly below x" work even without a predecessor.
        """
        raise NotImplementedError

    def between(self, g: Element, h: Element) -> Element:
        """Strictly intermediate element; only dense carriers provide one."""
        raise NotApplicable(f"{self.name} provides no midpoint witness")

    def window(self, bounds: Bounds) -> List[Element]:
        """The finite stand-in for the carrier that windowed work runs on.

        On an enumerable carrier, every element whose integer coordinates
        lie in the window; on Q, a grid of fractions.  Either way the list
        ascends strictly under ``cmp``, so the positive cone is a suffix of
        it.  A carrier that defines no window is not enumerable.
        """
        raise NotApplicable(f"{self.name} is not enumerable")

    def render(self, x: Element) -> str:
        """Canonical literal; ``str`` of the payload unless overridden."""
        return str(x)

    # derived helpers ----------------------------------------------------

    def lt(self, g, h) -> bool:
        return self.cmp(g, h) < 0

    def leq(self, g, h) -> bool:
        return self.cmp(g, h) <= 0

    def geq(self, g, h) -> bool:
        return self.cmp(g, h) >= 0

    def is_positive(self, g) -> bool:
        """Positive-cone membership: identity <= g (the identity counts)."""
        return self.cmp(self.identity, g) <= 0

    def maximum(self, g, h):
        return g if self.cmp(g, h) >= 0 else h

    def power(self, g, k: int):
        out = self.identity
        step = g if k >= 0 else self.inv(g)
        for _ in range(abs(k)):
            out = self.mul(out, step)
        return out

    def element_below(self, g):
        """A deterministic element strictly below ``g``.

        The predecessor when the carrier has one, else one
        designated-positive step down.
        """
        if self.densely_ordered:
            return self.mul(g, self.inv(self.designated_positive))
        return self.predecessor(g)

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"<ordered group {self.name}>"


class IntegerGroup(OrderedGroup):
    """Integers under addition with the usual order."""

    name = "Z"
    identity = 0
    designated_positive = 1

    def mul(self, g, h):
        return g + h

    def inv(self, g):
        return -g

    def carry(self, x, y, z):
        return x - y + z

    def contains(self, x) -> bool:
        return type(x) is int

    def successor(self, g):
        return g + 1

    def predecessor(self, g):
        return g - 1

    def window(self, bounds: Bounds) -> List[int]:
        lo, hi = normalize_bounds(bounds)
        return list(range(lo, hi + 1))


class RationalGroup(OrderedGroup):
    """Rationals under addition: the densely ordered carrier.

    Payloads are ``fractions.Fraction`` values, which are always reduced
    with a positive denominator, so structural equality is canonical.
    The carrier is not enumerable; its ``window`` is a deterministic grid
    of fractions instead.

    ``mul``, ``inv``, ``carry`` and ``cmp`` take ``Fraction`` payloads
    only, as ``contains`` enforces, and work on its ``_numerator``/
    ``_denominator`` slots; results equal those of ``+`` and ``-`` in
    type and hash too.
    """

    name = "Q"
    densely_ordered = True
    enumerable = False
    payload_kind = "fraction"
    # one shared instance each is safe: fractions are immutable
    identity = Fraction(0)
    designated_positive = Fraction(1)

    def mul(self, g, h):
        # fractions.Fraction._add's gcd steps: each result is reduced
        na, da = g._numerator, g._denominator
        nb, db = h._numerator, h._denominator
        k = gcd(da, db)
        if k == 1:
            return _fraction(na * db + da * nb, da * db)
        s = da // k
        t = na * (db // k) + nb * s
        k2 = gcd(t, k)
        if k2 == 1:
            return _fraction(t, s * db)
        return _fraction(t // k2, s * (db // k2))

    def inv(self, g):
        return _fraction(-g._numerator, g._denominator)

    def carry(self, x, y, z):
        b, d, f = x._denominator, y._denominator, z._denominator
        n, m = (x._numerator * d - y._numerator * b) * f + z._numerator * b * d, b * d * f
        k = gcd(n, m)
        return _fraction(n // k, m // k)

    def cmp(self, g, h):
        # denominators are positive, so cross-multiplying keeps the order;
        # one integer comparison instead of two Fraction ones
        a = g._numerator * h._denominator
        b = h._numerator * g._denominator
        return (a > b) - (a < b)

    def contains(self, x) -> bool:
        return isinstance(x, Fraction)

    def between(self, g, h):
        return (g + h) / 2

    def window(self, bounds: Bounds) -> List[Fraction]:
        """Reduced fractions p/q with |p| <= bound and 1 <= q <= max(bound, 1),
        sorted, so bound 0 is just [0]; a (lo, hi) window reads as the bound
        max(-lo, hi)."""
        lo, hi = normalize_bounds(bounds)
        bound = max(-lo, hi)
        vals = {
            Fraction(p, q)
            for q in range(1, max(bound, 1) + 1)
            for p in range(-bound, bound + 1)
        }
        return sorted(vals)


def _fraction(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, without ``Fraction()``'s dispatch and gcd."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


class LexTupleGroup(OrderedGroup):
    """Integer tuples of a fixed arity, ordered lexicographically.

    The order, identity, successor and window depend on the arity
    alone, so they live here.  Each subclass keeps its own ``mul``,
    ``inv``, ``contains`` and ``render`` written out for its arity: these
    sit on the hot path, and generic tuple loops cost about twice as much.
    """

    payload_kind = "int-tuple"

    # cached: is_positive reads the identity on every call
    @cached_property
    def identity(self) -> Tuple[int, ...]:
        return (0,) * self.payload_arity

    def successor(self, g):
        # right-multiplying by (0, ..., 0, 1) bumps only the last coordinate
        return g[:-1] + (g[-1] + 1,)

    def predecessor(self, g):
        return g[:-1] + (g[-1] - 1,)

    @cached_property
    def designated_positive(self) -> Tuple[int, ...]:
        return (0,) * (self.payload_arity - 1) + (1,)

    def window(self, bounds: Bounds) -> List[Tuple[int, ...]]:
        lo, hi = normalize_bounds(bounds)
        return list(itertools.product(range(lo, hi + 1), repeat=self.payload_arity))


class LexPairGroup(LexTupleGroup):
    """Pairs of integers with componentwise addition, ordered lexicographically.

    Non-archimedean: (1, 0) exceeds every (0, n).
    """

    name = "ZxZ"
    payload_arity = 2

    def mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1])

    def inv(self, g):
        return (-g[0], -g[1])

    def carry(self, x, y, z):
        return (x[0] - y[0] + z[0], x[1] - y[1] + z[1])

    def contains(self, x) -> bool:
        return (
            type(x) is tuple
            and len(x) == 2
            and type(x[0]) is int
            and type(x[1]) is int
        )

    def render(self, x) -> str:
        return f"({x[0]},{x[1]})"


class HeisenbergGroup(LexTupleGroup):
    """Discrete Heisenberg group on integer triples, ordered lexicographically.

    Product: (x, y, z) * (p, q, r) = (x + p, y + q, z + r + x*q), the
    upper-triangular 3x3 matrix multiplication in coordinates.  The group
    is non-abelian; the lexicographic order on (x, y, z) is nonetheless
    invariant under translation on both sides, which the cone checker
    verifies on windows instead of assuming.
    """

    name = "H3"
    abelian = False
    payload_arity = 3

    def mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def inv(self, g):
        return (-g[0], -g[1], g[0] * g[1] - g[2])

    def carry(self, x, y, z):
        s = x[0] - y[0]
        return (s + z[0], x[1] - y[1] + z[1], x[2] - y[2] + z[2] + s * (z[1] - y[1]))

    def contains(self, x) -> bool:
        return (
            type(x) is tuple
            and len(x) == 3
            and type(x[0]) is int
            and type(x[1]) is int
            and type(x[2]) is int
        )

    def render(self, x) -> str:
        return f"({x[0]},{x[1]},{x[2]})"


Z = IntegerGroup()
Q = RationalGroup()
ZXZ = LexPairGroup()
H3 = HeisenbergGroup()

GROUPS = {"Z": Z, "Q": Q, "ZxZ": ZXZ, "H3": H3}


class ConeVerdict(Record):
    """Outcome of brute-checking the three positive-cone axioms.

    A counterexample pair is present exactly when some axiom flag is
    false; it is the first offender found, in axiom order.
    """

    __slots__ = __match_args__ = ("axiom1_ok", "axiom2_ok", "axiom3_ok", "counterexample")

    def __init__(
        self,
        axiom1_ok: bool,  # cone closed under multiplication
        axiom2_ok: bool,  # cone meets its own inverses only at the identity
        axiom3_ok: bool,  # cone stable under conjugation
        counterexample: Optional[Tuple[Element, Element]] = None,
    ):
        _store(self, "axiom1_ok", axiom1_ok)
        _store(self, "axiom2_ok", axiom2_ok)
        _store(self, "axiom3_ok", axiom3_ok)
        _store(self, "counterexample", counterexample)

    @property
    def all_ok(self) -> bool:
        return self.axiom1_ok and self.axiom2_ok and self.axiom3_ok


def check_positive_cone_axioms(
    group: OrderedGroup, samples: Sequence[Element]
) -> ConeVerdict:
    """Verify the cone axioms over the sample set.

    Closure and conjugation stability run over sample pairs, the
    antisymmetry condition over single samples.  A failed axiom is a
    verdict, never an exception.
    """
    cone = [g for g in samples if group.is_positive(g)]
    counter = None

    ax1 = True
    for x, y in itertools.product(cone, cone):
        if not group.is_positive(group.mul(x, y)):
            ax1, counter = False, (x, y)
            break

    ax2 = True
    for x in cone:
        if group.is_positive(group.inv(x)) and x != group.identity:
            ax2 = False
            if counter is None:
                counter = (x, group.inv(x))
            break

    ax3 = True
    for x, g in itertools.product(samples, cone):
        conj = group.mul(group.mul(group.inv(x), g), x)
        if not group.is_positive(conj):
            ax3 = False
            if counter is None:
                counter = (x, g)
            break

    return ConeVerdict(ax1, ax2, ax3, counter)


def successor_check(group: OrderedGroup, g: Element, radius: int = 4) -> bool:
    """Verify the successor is the least element above ``g`` on a finite window.

    Among the right translates of ``g`` by the window at ``radius``, the
    cone at ``g`` minus the cone at ``successor(g)`` must be exactly
    ``{g}``.  Raises NotApplicable on densely ordered carriers, which
    declare no successor.
    """
    succ = group.successor(g)
    for x in (group.mul(g, d) for d in group.window(radius)):
        in_gap = group.leq(g, x) and not group.leq(succ, x)
        if in_gap != (x == g):
            return False
    return True
