"""Constructive records behind the discreteness arguments.

Three kinds of executable evidence live here: the dense-versus-discrete
classification of a carrier's order, two-step translation chains that
carry isolation from one pair to any other, and escape certificates
showing that translating a near-diagonal point by an idempotent lands it
in a principal ideal it was supposed to avoid.  Every record is verified
eagerly at construction; an unverifiable record raises InternalError
instead of being returned.
"""

from __future__ import annotations

from collections import abc
from enum import Enum
from typing import Optional, Sequence, Tuple

from .errors import (
    InstanceMismatch,
    InternalError,
    NotApplicable,
    PreconditionViolated,
)
from .ogroups import Bounds, Element, OrderedGroup, successor_check
from .pairs import BElement, idempotent
from .natorder import SolutionKind, ideal_member, solve_left, solve_right
from .records import Record, _store


class DensityVerdict(Record):
    """Evidence-backed classification of a carrier's order.

    Discrete carriers report the minimal positive element; dense carriers
    report, for each strictly positive sample, a strictly smaller
    positive witness.
    """

    __slots__ = __match_args__ = ("densely_ordered", "minimal_positive", "witnesses", "checked")

    def __init__(
        self,
        densely_ordered: bool,
        minimal_positive: Optional[Element],
        witnesses: Tuple[Tuple[Element, Element], ...],
        checked: int,
    ):
        _store(self, "densely_ordered", densely_ordered)
        _store(self, "minimal_positive", minimal_positive)
        _store(self, "witnesses", witnesses)
        _store(self, "checked", checked)


def density_probe(group: OrderedGroup, samples: Sequence[Element]) -> DensityVerdict:
    """Classify the order as dense or discrete, with per-sample evidence.

    On a discrete carrier, successor minimality is re-verified around
    every sample and the minimal positive element is the identity's
    successor.  On a dense carrier, every strictly positive sample gets a
    midpoint witness strictly between the identity and itself.
    """
    if group.densely_ordered:
        witnesses = []
        for g in samples:
            if group.lt(group.identity, g):
                h = group.between(group.identity, g)
                if not (group.lt(group.identity, h) and group.lt(h, g)):
                    raise InternalError(
                        f"midpoint witness {group.render(h)} out of range"
                    )
                witnesses.append((g, h))
        return DensityVerdict(True, None, tuple(witnesses), len(witnesses))

    minimal = group.successor(group.identity)
    checked = 0
    for g in samples:
        if not successor_check(group, g):
            raise InternalError(
                f"successor minimality failed near {group.render(g)}"
            )
        checked += 1
    return DensityVerdict(False, minimal, (), checked)


class WitnessChain(Record):
    """Two verified one-unknown equations linking a seed pair to a target.

    The right translator pulls the seed back to the intermediate, which
    shares its left coordinate with the seed and its right coordinate
    with the target; the left translator then pulls the intermediate to
    the target.  Both steps have unique solutions, so whatever holds
    pointwise at the seed transfers along translations to the target.
    """

    __slots__ = __match_args__ = (
        "seed", "target", "right_translator", "intermediate", "left_translator"
    )

    def __init__(
        self,
        seed: BElement,
        target: BElement,
        right_translator: BElement,
        intermediate: BElement,
        left_translator: BElement,
    ):
        _store(self, "seed", seed)
        _store(self, "target", target)
        _store(self, "right_translator", right_translator)
        _store(self, "intermediate", intermediate)
        _store(self, "left_translator", left_translator)


def build_witness_chain(seed: BElement, target: BElement) -> WitnessChain:
    """Construct and fully verify the two-step chain from seed to target.

    Below-anchor elements are chosen deterministically (predecessor when
    the carrier has one, else one designated-positive step down); the
    translators then come out in closed form.  Verification multiplies
    both equations back and re-derives both unique solutions through the
    solvers; any failure raises InternalError.
    """
    g = seed.group
    if target.group != g:
        raise InstanceMismatch(
            f"{g.name} seed mixed with {target.group.name} target"
        )
    a, b = seed.left, seed.right
    v, u = target.left, target.right

    c = g.element_below(u)
    d = g.carry(c, u, b)
    right_translator = BElement(g, c, d)
    intermediate = BElement(g, a, u)

    d2 = g.element_below(v)
    c2 = g.carry(d2, v, a)
    left_translator = BElement(g, c2, d2)

    if intermediate * right_translator != seed:
        raise InternalError("chain step one does not multiply back to the seed")
    first = solve_left(seed, right_translator)
    if first.kind is not SolutionKind.UNIQUE or first.element != intermediate:
        raise InternalError("chain step one is not the unique solution")
    if left_translator * target != intermediate:
        raise InternalError("chain step two does not multiply back")
    second = solve_right(intermediate, left_translator)
    if second.kind is not SolutionKind.UNIQUE or second.element != target:
        raise InternalError("chain step two is not the unique solution")

    return WitnessChain(seed, target, right_translator, intermediate, left_translator)


class ExcludedRegion(Enum):
    """Which avoided set a translated point lands in.

    The diagonal set (idempotents at or below the anchor) is part of the
    avoided region by construction, so certificates only ever land in one
    of the two principal ideals.
    """

    RIGHT_IDEAL = "right-ideal"  # first coordinate at least the anchor's successor
    LEFT_IDEAL = "left-ideal"  # second coordinate at least the anchor's successor


class EscapeCertificate(Record):
    """A translation that expels a region point from any candidate neighbourhood."""

    __slots__ = __match_args__ = ("idempotent", "point", "side", "product", "excluded_region")

    def __init__(
        self,
        idempotent: BElement,
        point: BElement,
        side: str,  # which translation expels: "left" or "right"
        product: BElement,
        excluded_region: ExcludedRegion,
    ):
        _store(self, "idempotent", idempotent)
        _store(self, "point", point)
        _store(self, "side", side)
        _store(self, "product", product)
        _store(self, "excluded_region", excluded_region)


class _OffDiagonal(abc.Sequence):
    """The pairs (x, y) of distinct entries of ``below``, row by row.

    A sized, indexable view: index i decodes to row i // (m-1) and the
    (i % (m-1))-th entry of that row with the diagonal skipped, so a
    sampler can draw points without the m*(m-1) list being built.
    """

    def __init__(self, below: Sequence[Element]):
        self._below = below
        self._row = len(below) - 1  # entries per row: the diagonal is skipped

    def __len__(self) -> int:
        return len(self._below) * self._row

    def __getitem__(self, i: int) -> Tuple[Element, Element]:
        if not 0 <= i < len(self):
            raise IndexError(i)
        row, j = divmod(i, self._row)
        return self._below[row], self._below[j if j < row else j + 1]


def escape_region(
    group: OrderedGroup, anchor: Element, bounds: Bounds
) -> Sequence[Tuple[Element, Element]]:
    """Coordinates of the escape-region points in the window, in window order.

    These are exactly the points ``escape_certificate`` accepts for the
    anchor: both coordinates at or below it, off the diagonal.  The result
    is a lazy view, so its length and any one point cost O(1) once the
    window elements at or below the anchor are listed.  Raises
    NotApplicable when the carrier cannot be enumerated.
    """
    if not group.enumerable:
        raise NotApplicable(f"{group.name} is not enumerable")
    return _OffDiagonal([x for x in group.window(bounds) if group.leq(x, anchor)])


def escape_certificate(idem_pair: BElement, point: BElement) -> EscapeCertificate:
    """Translate a region point by the anchor idempotent and certify the exit.

    Region points have both coordinates at or below the anchor and sit
    off the diagonal.  Left-translating a point with left < right lands
    in the left principal ideal anchored at the successor; the mirrored
    case right-translates into the right ideal.  Raises NotApplicable on
    densely ordered carriers (no successor to anchor the ideals at) and
    PreconditionViolated off the region or on the diagonal.
    """
    g = idem_pair.group
    if point.group != g:
        raise InstanceMismatch(
            f"{g.name} idempotent mixed with {point.group.name} point"
        )
    if g.densely_ordered:
        raise NotApplicable(
            f"{g.name} is densely ordered; no successor anchors the ideals"
        )
    if not idem_pair.is_idempotent():
        raise PreconditionViolated(f"{idem_pair} is not an idempotent")
    anchor = idem_pair.left
    x, y = point.left, point.right
    if not (g.leq(x, anchor) and g.leq(y, anchor)):
        raise PreconditionViolated(f"{point} lies outside the escape region")
    verdict = g.cmp(x, y)
    if verdict == 0:
        raise PreconditionViolated(
            f"{point} is diagonal; it already sits in the avoided idempotent set"
        )
    succ = g.successor(anchor)
    if verdict < 0:
        side, region = "left", ExcludedRegion.LEFT_IDEAL
        product = idem_pair * point
        landed = product.left == anchor and ideal_member(product, succ, "left")
    else:
        side, region = "right", ExcludedRegion.RIGHT_IDEAL
        product = point * idem_pair
        landed = product.right == anchor and ideal_member(product, succ, "right")
    if not landed:
        raise InternalError(f"escape product {product} missed the predicted ideal")
    return EscapeCertificate(idem_pair, point, side, product, region)


def dl_set_member(s: BElement, anchor: Element) -> bool:
    """True when right-multiplying the anchor idempotent leaves it fixed.

    Equivalently (checked by the harness): ``s`` is an idempotent whose
    coordinate is at or below the anchor.
    """
    e = idempotent(s.group, anchor)
    return s * e == e
