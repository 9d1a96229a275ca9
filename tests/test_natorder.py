import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicext.errors import (
    InstanceMismatch,
    InternalDisagreement,
    MalformedEquation,
    NotApplicable,
    PreconditionViolated,
)
from bicext.natorder import (
    SolutionKind,
    SolutionSet,
    ideal_member,
    nat_leq,
    nat_leq_dual,
    nat_leq_oracle,
    solve_left,
    solve_right,
    solve_sandwich,
    up_set_window,
)
from bicext.ogroups import H3, Q, Z, ZXZ
from bicext.pairs import BElement, idempotent, pairs_in_window, pairs_over


def be(group, a, b):
    return BElement(group, a, b)


def test_nat_leq_examples():
    s, t = be(Z, 3, 5), be(Z, 1, 3)
    assert nat_leq(s, t)
    assert s * s.inverse() * t == s  # multiplication route agrees
    assert not nat_leq(be(Z, 2, 5), be(Z, 1, 3))
    assert nat_leq(s, s)


def test_nat_leq_antisymmetry_direction():
    assert not nat_leq(be(Z, 1, 3), be(Z, 3, 5))


def test_nat_leq_costs_one_comparison(any_group, counting):
    # s <= t iff s.left >= t.left and s.right = s.left * t.left^-1 * t.right:
    # one cmp, then the carry only when the comparison allows it
    g = any_group
    carrier, calls = counting(g)
    pool = [be(carrier, s.left, s.right) for s in pairs_over(g, g.window(1))]
    for s, t in itertools.product(pool, repeat=2):
        calls.clear()
        verdict = nat_leq(s, t)
        below = g.cmp(s.left, t.left) < 0
        assert calls["cmp"] == 1 and not calls["contains"]
        # the counting twin's carry is the generic one: two mul, one inv
        assert (calls["mul"], calls["inv"]) == ((0, 0) if below else (2, 1))
        quotients = g.mul(g.inv(s.left), s.right) == g.mul(g.inv(t.left), t.right)
        assert verdict == (not below and quotients)


def test_oracle_agreement_window():
    pool = pairs_in_window(Z, 2)
    for s, t in itertools.product(pool, repeat=2):
        assert nat_leq(s, t) == nat_leq_oracle(s, t) == nat_leq_dual(s, t)


def _idempotent_products(counting, g, s, t):
    """Idempotent products ``nat_leq_oracle(s, t)`` makes, read off its
    ``cmp`` calls: every pair product makes exactly one, and the two
    multiplication characterizations make four products."""
    carrier, calls = counting(g)
    s, t = be(carrier, s.left, s.right), be(carrier, t.left, t.right)
    verdict = nat_leq_oracle(s, t)
    return verdict, calls["cmp"] - 4


def test_oracle_stops_at_the_first_anchor_that_works(any_group, counting):
    # the first anchor is the canonical witness [s.left|s.left]
    g = any_group
    p = g.designated_positive
    for t in (be(g, g.identity, p), be(g, p, g.inv(p)), be(g, g.power(p, 3), g.power(p, 3))):
        x = g.mul(t.left, p)  # s sits below t: same quotient, larger left
        s = be(g, x, g.mul(x, g.mul(g.inv(t.left), t.right)))
        assert nat_leq(s, t)
        assert _idempotent_products(counting, g, s, t) == (True, 1)
        assert _idempotent_products(counting, g, t, t) == (True, 1)


def test_oracle_tries_every_distinct_anchor_on_false(any_group, counting):
    # [s.left|s.left] is the only anchor that can witness s <= t, so a
    # false verdict also costs one idempotent product, not one per anchor
    g = any_group
    p, e = g.designated_positive, g.identity
    cases = [
        (be(g, e, e), be(g, e, p)),  # coordinates overlap
        (be(g, g.inv(p), e), be(g, e, p)),  # same quotient, left too low
        (be(g, g.power(p, 7), g.power(p, -7)), be(g, g.power(p, -30), g.power(p, 20))),
    ]
    for s, t in cases:
        assert not nat_leq(s, t)
        assert _idempotent_products(counting, g, s, t) == (False, 1)


def test_oracle_reports_split_characterizations(broken_group):
    # the misordered 2 sends products down different branches, so the
    # two multiplication routes and the idempotent search disagree
    s, t = be(broken_group, -3, -2), be(broken_group, -3, 2)
    with pytest.raises(InternalDisagreement, match="False/True/False"):
        nat_leq_oracle(s, t)


@pytest.mark.parametrize(
    "g, bounds", [(Z, 3), (ZXZ, 1), (H3, 1), (Q, 2)], ids=["Z", "ZxZ", "H3", "Q"]
)
def test_canonical_witnesses_over_every_idempotent(g, bounds):
    # the oracles test one witness each; this loop is the search over
    # every window idempotent e that they replace: s = e * t sits below t
    # through [s.left|s.left], and e fixes s (and t * e) from its side
    elems = g.window(bounds)
    for t in pairs_over(g, elems):
        for x in elems:
            e = idempotent(g, x)
            s = e * t
            assert idempotent(g, s.left) * t == s
            assert e * s == s
            assert (t * e) * e == t * e


def test_idempotent_order_reverses_coordinates():
    for a, c in itertools.product(Z.window(3), repeat=2):
        assert nat_leq(idempotent(Z, a), idempotent(Z, c)) == (a >= c)


def test_partial_order_laws():
    pool = pairs_in_window(Z, 2)
    for s in pool:
        assert nat_leq(s, s)
    for s, t in itertools.product(pool, repeat=2):
        if nat_leq(s, t) and nat_leq(t, s):
            assert s == t
    comp = [(s, t) for s, t in itertools.product(pool, repeat=2) if nat_leq(s, t)]
    for (s, t), (t2, u) in itertools.product(comp, comp):
        if t == t2:
            assert nat_leq(s, u)


def test_order_compatible_with_multiplication():
    pool = pairs_in_window(Z, 2)
    comparable = [
        (s, t) for s, t in itertools.product(pool, repeat=2) if nat_leq(s, t)
    ]
    for (s, t), u in itertools.product(comparable, pool[::3]):
        assert nat_leq(s * u, t * u)
        assert nat_leq(u * s, u * t)


# --- solvers ---------------------------------------------------------------


def test_solve_right_unique():
    sol = solve_right(be(Z, 5, 2), be(Z, 3, 4))
    assert sol.kind is SolutionKind.UNIQUE
    assert sol.element == be(Z, 6, 2)
    assert be(Z, 3, 4) * sol.element == be(Z, 5, 2)


def test_solve_right_no_solution():
    assert solve_right(be(Z, 1, 2), be(Z, 3, 4)).kind is SolutionKind.NO_SOLUTION


def test_solve_right_upset():
    sol = solve_right(be(Z, 5, 7), be(Z, 5, 6))
    assert sol.kind is SolutionKind.UP_SET
    assert sol.element == be(Z, 6, 7)
    # window brute force: solutions are exactly the up-set members
    pool = pairs_in_window(Z, 8)
    solved = [w for w in pool if be(Z, 5, 6) * w == be(Z, 5, 7)]
    upset = [w for w in pool if nat_leq(sol.element, w)]
    assert solved == upset and solved


def test_solve_left_unique():
    sol = solve_left(be(Z, 0, 0), be(Z, 6, -1))
    assert sol.kind is SolutionKind.UNIQUE
    assert sol.element == be(Z, 0, 7)
    assert sol.element * be(Z, 6, -1) == be(Z, 0, 0)


def test_solve_left_no_solution():
    assert solve_left(be(Z, 1, 2), be(Z, 3, 4)).kind is SolutionKind.NO_SOLUTION


def test_solve_left_upset():
    sol = solve_left(be(Z, 4, 6), be(Z, 9, 6))
    assert sol.kind is SolutionKind.UP_SET
    assert sol.element == be(Z, 4, 9)
    pool = pairs_in_window(Z, 10)
    solved = [w for w in pool if w * be(Z, 9, 6) == be(Z, 4, 6)]
    upset = [w for w in pool if nat_leq(sol.element, w)]
    assert solved == upset and solved


@given(st.tuples(*[st.integers(-30, 30)] * 4))
def test_solvers_multiply_back(coords):
    a, b, c, d = coords
    target, known = be(Z, a, b), be(Z, c, d)
    sol = solve_right(target, known)
    if sol.kind is SolutionKind.UNIQUE:
        assert known * sol.element == target
    sol = solve_left(target, known)
    if sol.kind is SolutionKind.UNIQUE:
        assert sol.element * known == target


def test_solve_sandwich():
    sol = solve_sandwich(be(Z, 1, 2), be(Z, 1, 5), be(Z, 7, 2))
    assert sol.kind is SolutionKind.UP_SET
    assert sol.element == be(Z, 5, 7)
    pool = pairs_in_window(Z, 8)
    solved = [w for w in pool if be(Z, 1, 5) * w * be(Z, 7, 2) == be(Z, 1, 2)]
    upset = [w for w in pool if nat_leq(sol.element, w)]
    assert solved == upset and solved


def test_solve_sandwich_degenerate():
    sol = solve_sandwich(be(Z, 2, 3), be(Z, 2, 3), be(Z, 3, 3))
    assert sol.kind is SolutionKind.UP_SET
    assert sol.element == be(Z, 3, 3)


def test_solve_sandwich_malformed():
    with pytest.raises(MalformedEquation):
        solve_sandwich(be(Z, 1, 2), be(Z, 3, 5), be(Z, 7, 2))
    with pytest.raises(MalformedEquation):
        solve_sandwich(be(Z, 1, 2), be(Z, 1, 5), be(Z, 7, 3))


def test_factorization_identity():
    for a, b, c, d in itertools.product(Z.window(2), repeat=4):
        assert be(Z, a, c) * be(Z, c, d) * be(Z, d, b) == be(Z, a, b)


# --- positive-part variants --------------------------------------------------


def test_bplus_preconditions():
    with pytest.raises(PreconditionViolated):
        solve_right(be(Z, -1, 2), be(Z, 0, 1), bplus=True)
    with pytest.raises(PreconditionViolated):
        solve_left(be(Z, 1, 2), be(Z, 0, -1), bplus=True)
    with pytest.raises(PreconditionViolated):
        solve_sandwich(be(Z, 1, 2), be(Z, 1, -5), be(Z, 2, 2), bplus=True)


def test_bplus_solutions_stay_eligible():
    pool = pairs_in_window(Z, 3, bplus=True)
    for target, known in itertools.product(pool, repeat=2):
        sol = solve_right(target, known, bplus=True)
        if sol.kind is SolutionKind.UNIQUE:
            assert sol.element.in_bplus()
        sol = solve_left(target, known, bplus=True)
        if sol.kind is SolutionKind.UNIQUE:
            assert sol.element.in_bplus()


def test_bplus_upset_brute_force():
    target, known = be(Z, 2, 5), be(Z, 2, 3)
    sol = solve_right(target, known, bplus=True)
    assert sol.kind is SolutionKind.UP_SET
    pool = pairs_in_window(Z, 6, bplus=True)
    solved = [w for w in pool if known * w == target]
    upset = [w for w in pool if nat_leq(sol.element, w)]
    assert solved == upset and solved


# --- ideals -------------------------------------------------------------------


def test_ideal_member_examples():
    assert ideal_member(be(Z, 3, 1), 2, "right")
    assert not ideal_member(be(Z, 1, 3), 2, "right")
    assert ideal_member(be(Z, 1, 3), 2, "left")
    # the witness for the left case is the element itself
    assert be(Z, 1, 3) * idempotent(Z, 2) == be(Z, 1, 3)
    # and no window witness exists for the failed right case
    assert all(
        idempotent(Z, 2) * t != be(Z, 1, 3) for t in pairs_in_window(Z, 5)
    )


def test_ideal_member_bplus():
    assert ideal_member(be(Z, 3, 1), 2, "right", bplus=True)
    assert not ideal_member(be(Z, 3, -1), 2, "right", bplus=True)


def test_ideal_member_bad_side_and_anchor():
    with pytest.raises(ValueError):
        ideal_member(be(Z, 1, 1), 0, "up")
    with pytest.raises(InstanceMismatch):
        ideal_member(be(Z, 1, 1), Fraction(1, 2), "left")


# --- up-set windows -------------------------------------------------------------


def test_up_set_window_examples():
    members = up_set_window(be(Z, 2, 3), (0, 4))
    assert members == [be(Z, 0, 1), be(Z, 1, 2), be(Z, 2, 3)]

    only_base = up_set_window(be(Z, 2, 3), (2, 3))
    assert only_base == [be(Z, 2, 3)]

    assert up_set_window(be(Z, 0, 5), (1, 9)) == []


def test_up_set_window_bplus_filters():
    full = up_set_window(be(Z, 2, 1), 4)
    plus = up_set_window(be(Z, 2, 1), 4, bplus=True)
    assert plus == [s for s in full if s.in_bplus()]
    assert len(plus) < len(full)


@pytest.mark.parametrize(
    "g, bounds",
    [(Z, 3), (Z, (-2, 5)), (ZXZ, 2), (ZXZ, (-1, 2)), (H3, 1), (H3, (0, 2))],
)
def test_up_set_window_matches_the_scan(g, bounds):
    # half the bases come from a wider window, so some lie outside it;
    # a base inside the window is a member of its own up-set
    rng = random.Random(f"upset:{g.name}:{bounds}")
    window = g.window(bounds)
    wider = g.window(4 if g is Z else 3)
    bases = [be(g, rng.choice(pool), rng.choice(pool)) for pool in (window, wider) for _ in range(20)]
    window = set(window)
    outside = inside = found = 0
    for base in bases:
        for bplus in (False, True):
            scan = [p for p in pairs_in_window(g, bounds, bplus) if nat_leq(base, p)]
            assert up_set_window(base, bounds, bplus) == scan
            found += bool(scan)
        if base.left in window and base.right in window:
            inside += 1
        else:
            outside += 1
    assert inside and outside and found


def test_up_set_window_carrier_work_is_linear(counting):
    # a walk of the n window elements, not a scan of their n**2 pairs
    for g in (Z, ZXZ, H3):
        for w in (1, 2, 3):
            n = (2 * w + 1) ** g.payload_arity
            carrier, calls = counting(g)
            base = be(carrier, g.identity, g.designated_positive)
            calls.clear()
            members = up_set_window(base, w, bplus=True)
            assert members
            assert sum(calls.values()) <= 4 * n + 2


def test_up_set_window_not_enumerable():
    with pytest.raises(NotApplicable):
        up_set_window(be(Q, Fraction(0), Fraction(1)), 2)


def test_solution_set_contains():
    none = SolutionSet(SolutionKind.NO_SOLUTION)
    assert not none.contains(be(Z, 0, 0))
    uniq = SolutionSet(SolutionKind.UNIQUE, be(Z, 1, 2))
    assert uniq.contains(be(Z, 1, 2)) and not uniq.contains(be(Z, 0, 1))
    ups = SolutionSet(SolutionKind.UP_SET, be(Z, 1, 2))
    assert ups.contains(be(Z, 0, 1)) and not ups.contains(be(Z, 2, 4))


def test_solution_set_json():
    assert solve_right(be(Z, 5, 2), be(Z, 3, 4)).to_json() == {
        "kind": "Unique",
        "element": {"left": "6", "right": "2"},
    }
    assert SolutionSet(SolutionKind.NO_SOLUTION).to_json() == {"kind": "NoSolution", "element": None}


def test_nat_leq_instance_mismatch():
    with pytest.raises(InstanceMismatch):
        nat_leq(be(Z, 0, 0), be(ZXZ, (0, 0), (0, 0)))
