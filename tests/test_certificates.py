import itertools
import random
from fractions import Fraction

import pytest

from bicext import certificates
from bicext.certificates import (
    ExcludedRegion,
    build_witness_chain,
    density_probe,
    dl_set_member,
    escape_certificate,
    escape_region,
)
from bicext.errors import InstanceMismatch, InternalError, NotApplicable, PreconditionViolated
from bicext.natorder import (
    SolutionKind,
    SolutionSet,
    ideal_member,
    nat_leq,
    solve_left,
    solve_right,
)
from bicext.ogroups import H3, Q, Z, ZXZ, IntegerGroup, RationalGroup
from bicext.pairs import BElement, idempotent, pairs_in_window


def be(group, a, b):
    return BElement(group, a, b)


# --- density probe -----------------------------------------------------------


def test_probe_integers():
    verdict = density_probe(Z, Z.window(3))
    assert not verdict.densely_ordered
    assert verdict.minimal_positive == 1
    assert verdict.checked == 7


def test_probe_rationals():
    grid = Q.window(4)
    verdict = density_probe(Q, grid)
    assert verdict.densely_ordered
    assert verdict.minimal_positive is None
    positives = [g for g in grid if Q.lt(Q.identity, g)]
    assert len(verdict.witnesses) == len(positives)
    for g, h in verdict.witnesses:
        assert h == g / 2
        assert Q.lt(Q.identity, h) and Q.lt(h, g)


def test_probe_lex_and_heisenberg():
    assert density_probe(ZXZ, ZXZ.window(1)).minimal_positive == (0, 1)
    assert density_probe(H3, H3.window(1)).minimal_positive == (0, 0, 1)


# --- witness chains -----------------------------------------------------------


def test_chain_integers_worked_example():
    chain = build_witness_chain(be(Z, 0, 0), be(Z, -3, 7))
    assert chain.right_translator == be(Z, 6, -1)
    assert chain.intermediate == be(Z, 0, 7)
    assert chain.left_translator == be(Z, -1, -4)
    # both equations multiply back
    assert chain.intermediate * chain.right_translator == chain.seed
    assert chain.left_translator * chain.target == chain.intermediate


def test_chain_degenerate():
    chain = build_witness_chain(be(Z, 2, -1), be(Z, 2, -1))
    assert chain.intermediate == be(Z, 2, -1)


def test_chain_rationals_uses_designated_step():
    chain = build_witness_chain(
        be(Q, Fraction(0), Fraction(0)), be(Q, Fraction(1, 2), Fraction(1, 3))
    )
    # no predecessor on a dense carrier: one whole step below 1/3
    assert chain.right_translator.left == Fraction(1, 3) - 1
    assert chain.intermediate == be(Q, Fraction(0), Fraction(1, 3))


def test_chain_coordinate_sharing(any_group):
    g = any_group
    coords = g.window(2)
    rng = random.Random(f"chain:{g.name}")
    for _ in range(20):
        seed = be(g, rng.choice(coords), rng.choice(coords))
        target = be(g, rng.choice(coords), rng.choice(coords))
        chain = build_witness_chain(seed, target)
        assert chain.intermediate.left == seed.left
        assert chain.intermediate.right == target.right
        # re-derive both unique verdicts through the solvers
        first = solve_left(seed, chain.right_translator)
        assert first.kind is SolutionKind.UNIQUE and first.element == chain.intermediate
        second = solve_right(chain.intermediate, chain.left_translator)
        assert second.kind is SolutionKind.UNIQUE and second.element == target


def test_chain_instance_mismatch():
    with pytest.raises(InstanceMismatch):
        build_witness_chain(be(Z, 0, 0), be(ZXZ, (0, 0), (0, 0)))


# --- escape certificates --------------------------------------------------------


def test_escape_left_example():
    cert = escape_certificate(be(Z, 0, 0), be(Z, -2, -1))
    assert cert.side == "left"
    assert cert.product == be(Z, 0, 1)
    assert cert.excluded_region is ExcludedRegion.LEFT_IDEAL
    assert ideal_member(cert.product, 1, "left")


def test_escape_right_example():
    cert = escape_certificate(be(Z, 0, 0), be(Z, -1, -2))
    assert cert.side == "right"
    assert cert.product == be(Z, 1, 0)
    assert cert.excluded_region is ExcludedRegion.RIGHT_IDEAL
    assert ideal_member(cert.product, 1, "right")


def test_escape_lex_example():
    cert = escape_certificate(
        be(ZXZ, (0, 0), (0, 0)), be(ZXZ, (0, -2), (0, -1))
    )
    assert cert.side == "left"
    assert cert.product == be(ZXZ, (0, 0), (0, 1))
    assert ideal_member(cert.product, (0, 1), "left")


def test_escape_preconditions():
    anchor = be(Z, 0, 0)
    with pytest.raises(PreconditionViolated):
        escape_certificate(anchor, be(Z, -1, -1))  # diagonal
    with pytest.raises(PreconditionViolated):
        escape_certificate(anchor, be(Z, 1, -1))  # outside the region
    with pytest.raises(PreconditionViolated):
        escape_certificate(be(Z, 0, 1), be(Z, -1, -2))  # anchor not idempotent
    with pytest.raises(NotApplicable):
        escape_certificate(
            be(Q, Fraction(0), Fraction(0)), be(Q, Fraction(-1), Fraction(-2))
        )


def test_escape_region_sweep_complete():
    # every off-diagonal region point is expelled into the predicted ideal
    anchor = 1
    idem_pair = idempotent(Z, anchor)
    succ = Z.successor(anchor)
    elems = Z.window(3)
    points = [
        (x, y)
        for x, y in itertools.product(elems, repeat=2)
        if x != y and Z.leq(x, anchor) and Z.leq(y, anchor)
    ]
    assert points
    for x, y in points:
        cert = escape_certificate(idem_pair, be(Z, x, y))
        if x < y:
            assert cert.product == idem_pair * be(Z, x, y)
            assert Z.geq(cert.product.right, succ)
        else:
            assert cert.product == be(Z, x, y) * idem_pair
            assert Z.geq(cert.product.left, succ)


@pytest.mark.parametrize("group, window", [(Z, 3), (ZXZ, 2), (H3, 1)])
def test_escape_region_is_the_certificate_domain(group, window):
    # the region lists, in window order, exactly the points a certificate
    # accepts; the anchors include the window's least and greatest elements
    elems = group.window(window)
    for anchor in (elems[0], group.identity, elems[-2], elems[-1]):
        idem_pair = idempotent(group, anchor)
        accepted = []
        for x, y in itertools.product(elems, repeat=2):
            try:
                escape_certificate(idem_pair, be(group, x, y))
            except PreconditionViolated:
                continue
            accepted.append((x, y))
        region = escape_region(group, anchor, window)
        assert list(region) == accepted
        assert [region[i] for i in range(len(region))] == accepted


def test_escape_region_not_applicable_on_rationals():
    with pytest.raises(NotApplicable):
        list(escape_region(Q, Fraction(0), 2))


# --- diagonal stabilizer ----------------------------------------------------------


def test_dl_set_examples():
    assert dl_set_member(be(Z, 1, 1), 3)
    assert not dl_set_member(be(Z, 4, 4), 3)
    assert not dl_set_member(be(Z, 1, 2), 3)


def test_dl_set_equals_idempotents_below_anchor():
    for anchor in Z.window(2):
        for s in pairs_in_window(Z, 3):
            expected = s.is_idempotent() and s.left <= anchor
            assert dl_set_member(s, anchor) == expected
            # the stabilizer is exactly the up-set of the anchor idempotent
            assert dl_set_member(s, anchor) == nat_leq(idempotent(Z, anchor), s)


# --- eager verification -----------------------------------------------------------


class _OvershootingRationalGroup(RationalGroup):
    """Rationals whose midpoint witness is the upper end itself."""

    def between(self, g, h):
        return h


def test_probe_rejects_a_midpoint_out_of_range():
    with pytest.raises(InternalError, match="^midpoint witness 1 out of range$"):
        density_probe(_OvershootingRationalGroup(), [Fraction(-1), Fraction(1)])


class _StepAboveIntegerGroup(IntegerGroup):
    """Integers whose element below 5 is 6."""

    def element_below(self, g):
        return g + 1 if g == 5 else g - 1


@pytest.mark.parametrize(
    "seed, target, message",
    [
        # the right translator is built below target.right, the left one
        # below target.left
        ((0, 0), (1, 5), "chain step one does not multiply back to the seed"),
        ((0, 0), (5, 1), "chain step two does not multiply back"),
    ],
)
def test_chain_rejects_a_step_that_does_not_multiply_back(seed, target, message):
    g = _StepAboveIntegerGroup()
    with pytest.raises(InternalError, match=f"^{message}$"):
        build_witness_chain(be(g, *seed), be(g, *target))


@pytest.mark.parametrize("solver, step", [("solve_left", "one"), ("solve_right", "two")])
def test_chain_rejects_a_step_that_is_not_unique(monkeypatch, solver, step):
    monkeypatch.setattr(
        certificates, solver, lambda *args, **kwargs: SolutionSet(SolutionKind.NO_SOLUTION)
    )
    with pytest.raises(InternalError, match=f"^chain step {step} is not the unique solution$"):
        build_witness_chain(be(Z, 0, 0), be(Z, -3, 7))


def test_escape_instance_mismatch():
    with pytest.raises(InstanceMismatch, match="^Z idempotent mixed with ZxZ point$"):
        escape_certificate(be(Z, 0, 0), be(ZXZ, (-1, 0), (0, 0)))
