"""Natural partial order on the pair semigroup, plus equation solvers.

The order has a coordinate test: s <= t exactly when s.left >= t.left
and s.right = s.left * t.left^-1 * t.right, one comparison and one
``carry``.  Proof of the equation: multiplying the equal left-to-right
quotients s.left^-1 * s.right = t.left^-1 * t.right on the left by
s.left gives it, and multiplying it by s.left^-1 gives them back.  The
oracle re-derives the verdict three independent ways and insists they
agree.  Each one-unknown equation resolves, by a single comparison, into
no solution, one closed-form solution, or an upward-closed solution set
returned symbolically through its least element.

The existential characterizations need no search, because each has one
canonical witness.  s <= t exactly when s = e * t for some idempotent e,
and then [s.left|s.left] * t = s: if s = [x|x] * t, either x <= t.left
and s = t, or x > t.left and s.left = x.  For an idempotent e, s lies in
e * S exactly when e * s = s (if s = e * t, then e * s = e * e * t = s),
and in S * e exactly when s * e = s.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Literal, Optional

from .errors import (
    InstanceMismatch,
    InternalDisagreement,
    InternalError,
    MalformedEquation,
    NotApplicable,
    PreconditionViolated,
)
from .ogroups import Bounds, Element
from .pairs import BElement, _make, pair_to_json
from .records import Record, _store

Side = Literal["left", "right"]


def _same_instance(s: BElement, t: BElement):
    g = s.group
    if t.group is not g and t.group != g:
        raise InstanceMismatch(
            f"{g.name} pair mixed with {t.group.name} pair"
        )
    return g


def nat_leq(s: BElement, t: BElement) -> bool:
    """Coordinate test: s <= t iff s.left >= t.left and s.right =
    s.left * t.left^-1 * t.right, which is the equal left-to-right
    quotients s.left^-1 * s.right = t.left^-1 * t.right multiplied on the
    left by s.left.  One ``cmp``; no ``mul`` or ``inv`` if s.left < t.left."""
    g = _same_instance(s, t)
    return g.cmp(s.left, t.left) >= 0 and g.carry(s.left, t.left, t.right) == s.right


def nat_leq_dual(s: BElement, t: BElement) -> bool:
    """Mirror coordinate test (right-to-left quotients, right coordinates).

    Provably equivalent to ``nat_leq``; kept separate so harnesses can
    evaluate both clauses independently.
    """
    g = _same_instance(s, t)
    quot_s = g.mul(g.inv(s.right), s.left)
    quot_t = g.mul(g.inv(t.right), t.left)
    return quot_s == quot_t and g.geq(s.right, t.right)


def nat_leq_oracle(s: BElement, t: BElement) -> bool:
    """Re-derive the order verdict three independent ways and cross-check.

    Evaluates both multiplication characterizations (s == s * s^-1 * t
    and s == t * s^-1 * s) plus the idempotent one, s == e * t for some
    idempotent e, through its canonical witness e = [s.left|s.left].
    That witness is exact: if s = [x|x] * t, then either x <= t.left and
    s = t, or x > t.left and s.left = x, and in both cases
    [s.left|s.left] * t = s.  All three must agree, else
    InternalDisagreement (an arithmetic bug).
    """
    g = _same_instance(s, t)
    via_left = (s * s.inverse()) * t == s
    via_right = (t * s.inverse()) * s == s
    via_idem = _make(g, s.left, s.left) * t == s
    if via_left == via_right == via_idem:
        return via_left
    raise InternalDisagreement(
        f"order characterizations disagree on {s} vs {t}: "
        f"{via_left}/{via_right}/{via_idem}"
    )


class SolutionKind(Enum):
    NO_SOLUTION = "NoSolution"
    UNIQUE = "Unique"
    UP_SET = "UpSet"


class SolutionSet(Record):
    """Solution set of a one-unknown pair equation.

    ``element`` is the unique solution for UNIQUE and the least element
    of the upward-closed solution set for UP_SET; ``contains`` gives the
    member test, so up-sets are never enumerated here.
    """

    __slots__ = __match_args__ = ("kind", "element")

    def __init__(self, kind: SolutionKind, element: Optional[BElement] = None):
        _store(self, "kind", kind)
        _store(self, "element", element)

    def contains(self, candidate: BElement) -> bool:
        if self.kind is SolutionKind.NO_SOLUTION:
            return False
        if self.kind is SolutionKind.UNIQUE:
            return candidate == self.element
        return nat_leq(self.element, candidate)

    def to_json(self) -> dict:
        payload = None if self.element is None else pair_to_json(self.element)
        return {"kind": self.kind.value, "element": payload}


def _require_bplus(*elts: BElement):
    for p in elts:
        if not p.in_bplus():
            raise PreconditionViolated(
                f"{p} has a coordinate outside the positive cone"
            )


def solve_right(target: BElement, known: BElement, bplus: bool = False) -> SolutionSet:
    """Solve target = known * (unknown).

    Trichotomy on the left coordinates decides everything: target
    strictly smaller means no solution, strictly larger means one
    closed-form solution (verified by multiplying back), equal means the
    up-set above (known.right, target.right).  With ``bplus`` both
    inputs must be positive-coordinate eligible and the up-set is read
    inside that subsemigroup.
    """
    g = _same_instance(target, known)
    if bplus:
        _require_bplus(target, known)
    a, b = target.left, target.right
    c, d = known.left, known.right
    verdict = g.cmp(a, c)
    if verdict < 0:
        return SolutionSet(SolutionKind.NO_SOLUTION)
    if verdict > 0:
        w = _make(g, g.carry(a, c, d), b)
        if known * w != target or (bplus and not w.in_bplus()):
            raise InternalError(f"solve_right produced a bad solution {w}")
        return SolutionSet(SolutionKind.UNIQUE, w)
    return SolutionSet(SolutionKind.UP_SET, _make(g, d, b))


def solve_left(target: BElement, known: BElement, bplus: bool = False) -> SolutionSet:
    """Solve target = (unknown) * known; dual of ``solve_right`` on the
    right coordinates."""
    g = _same_instance(target, known)
    if bplus:
        _require_bplus(target, known)
    a, b = target.left, target.right
    c, d = known.left, known.right
    verdict = g.cmp(b, d)
    if verdict < 0:
        return SolutionSet(SolutionKind.NO_SOLUTION)
    if verdict > 0:
        w = _make(g, a, g.carry(b, d, c))
        if w * known != target or (bplus and not w.in_bplus()):
            raise InternalError(f"solve_left produced a bad solution {w}")
        return SolutionSet(SolutionKind.UNIQUE, w)
    return SolutionSet(SolutionKind.UP_SET, _make(g, a, c))


def solve_sandwich(
    target: BElement,
    leftk: BElement,
    rightk: BElement,
    bplus: bool = False,
) -> SolutionSet:
    """Solve target = leftk * (unknown) * rightk.

    Only the shape where the known factors share the target's outer
    coordinates is accepted: leftk = (target.left, c) and
    rightk = (d, target.right).  The solution set is always the up-set
    above (c, d).
    """
    g = _same_instance(target, leftk)
    _same_instance(target, rightk)
    if leftk.left != target.left or rightk.right != target.right:
        raise MalformedEquation(
            "known factors must share the target's outer coordinates: "
            f"target {target}, left factor {leftk}, right factor {rightk}"
        )
    if bplus:
        _require_bplus(target, leftk, rightk)
    return SolutionSet(SolutionKind.UP_SET, _make(g, leftk.right, rightk.left))


def ideal_member(
    s: BElement, anchor: Element, side: Side, bplus: bool = False
) -> bool:
    """Membership of ``s`` in the principal ideal of the anchor idempotent.

    side="right" asks about (anchor, anchor) * everything, answered by
    s.left >= anchor; side="left" asks about everything * (anchor, anchor),
    answered by s.right >= anchor.  With ``bplus``, membership also
    requires ``s`` to be positive-coordinate eligible.
    """
    g = s.group
    if not g.contains(anchor):
        raise InstanceMismatch(f"anchor {anchor!r} is not a {g.name} element")
    if side == "right":
        member = g.geq(s.left, anchor)
    elif side == "left":
        member = g.geq(s.right, anchor)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if bplus:
        member = member and s.in_bplus()
    return member


def up_set_window(base: BElement, bounds: Bounds, bplus: bool = False) -> List[BElement]:
    """Finite view of the up-set above ``base``: every window pair it sits below.

    Closed form: t lies above base exactly when t.left <= base.left and
    t.right = t.left * base.left^-1 * base.right.  So the members are the
    pairs (x, carry(x, base.left, base.right)) for window elements
    x <= base.left whose carry is in the window, listed in window order
    of x; with ``bplus``, only those with both coordinates positive.
    That is the order ``pairs_in_window`` lists them in, at O(n) carrier
    work for an n-element window instead of a scan of its n^2 pairs.

    Raises NotApplicable when the carrier is not enumerable.
    """
    g = base.group
    if not g.enumerable:
        raise NotApplicable(f"{g.name} is not enumerable")
    elems = g.window(bounds)
    in_window = set(elems)
    top = base.left
    members = []
    for x in elems:
        if g.cmp(x, top) <= 0:
            y = g.carry(x, top, base.right)
            if y in in_window:
                members.append(_make(g, x, y))
    if bplus:
        members = [p for p in members if p.in_bplus()]
    return members
