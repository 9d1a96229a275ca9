"""End-to-end acceptance: every structural guarantee at its stated scale.

Each numbered test prints one PASS line after its assertions hold.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines; any
assertion failure is the corresponding FAIL.  All comparisons are exact,
zero tolerance: the library computes in exact arithmetic, so nothing is
approximate.
"""

import itertools
import random
import time
from fractions import Fraction

from bicext.certificates import build_witness_chain, density_probe, escape_certificate
from bicext.errors import NotApplicable
from bicext.natorder import (
    SolutionKind,
    ideal_member,
    nat_leq,
    nat_leq_dual,
    nat_leq_oracle,
    solve_left,
    solve_right,
    solve_sandwich,
)
from bicext.ogroups import H3, Q, Z, ZXZ, check_positive_cone_axioms
from bicext.pairs import BElement, idempotent, pairs_in_window
from bicext.shifts import (
    compose_pointwise_oracle,
    pair_product_matches_shifts,
    pair_to_shift,
)
from bicext.suites import SuiteConfig, run_suites

WINDOW = 3  # the integer coordinate window [-3, 3]


def report(number, label, detail):
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({detail})")


def test_01_exhaustive_associativity():
    """All triples over the [-3,3] pair window associate.

    The window holds 49 pairs, so the complete triple space has
    49^3 = 117,649 members, which exceeds the 10^5 floor; every triple is
    evaluated, none sampled.
    """
    t0 = time.perf_counter()
    pool = pairs_in_window(Z, WINDOW)
    assert len(pool) == 49
    products = [[s * t for t in pool] for s in pool]
    checked = 0
    n = len(pool)
    for i in range(n):
        row_i = products[i]
        for j in range(n):
            st = row_i[j]
            row_j = products[j]
            for k in range(n):
                assert st * pool[k] == pool[i] * row_j[k]
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 49**3 and checked >= 10**5
    assert elapsed < 30.0
    report(1, "exhaustive-associativity", f"{checked} triples in {elapsed:.1f}s")


def test_02_representation_soundness_integers():
    """Every pair product over the window matches both the anchor formula
    and pointwise composition of the matching shifts on {-3..6}."""
    pool = pairs_in_window(Z, WINDOW)
    points = list(range(-WINDOW, 2 * WINDOW + 1))
    checked = 0
    for s in pool:
        ms = pair_to_shift(s)
        for t in pool:
            assert pair_product_matches_shifts(s, t)
            assert compose_pointwise_oracle(ms, pair_to_shift(t), points)
            checked += 1
    assert checked == 49 * 49
    report(2, "representation-soundness (integers)", f"{checked} pair products")


def test_02b_representation_soundness_heisenberg():
    """Non-commutative stress at window 2.

    The full pair space would be 15625^2 products, so a deterministic
    seeded sample of 8000 anchor quadruples is used, with 12 seeded
    sample points per composite; zero mismatches tolerated.
    """
    rng = random.Random("acceptance-02-h3")
    anchors = H3.window(2)
    assert len(anchors) == 125
    points_pool = H3.window((-2, 4))
    points = [rng.choice(points_pool) for _ in range(12)]
    checked = 0
    for _ in range(8000):
        s = BElement(H3, rng.choice(anchors), rng.choice(anchors))
        t = BElement(H3, rng.choice(anchors), rng.choice(anchors))
        assert pair_product_matches_shifts(s, t)
        assert compose_pointwise_oracle(pair_to_shift(s), pair_to_shift(t), points)
        checked += 1
    report(2, "representation-soundness (heisenberg)", f"{checked} sampled products")


def test_03_order_characterizations_agree():
    """The three order characterizations coincide on every window pair,
    in the full semigroup and in the positive part."""
    full = pairs_in_window(Z, WINDOW)
    plus = pairs_in_window(Z, WINDOW, bplus=True)
    checked = 0
    for pool in (full, plus):
        for s, t in itertools.product(pool, repeat=2):
            direct = nat_leq(s, t)
            assert direct == ((s * s.inverse()) * t == s)
            assert direct == nat_leq_dual(s, t)
            assert direct == nat_leq_oracle(s, t)
            checked += 1
    assert checked == 49 * 49 + 16 * 16
    report(3, "order-characterizations", f"{checked} pairs, zero disagreements")


def _check_solution_against_window(sol, brute, pool, pool_members):
    if sol.kind is SolutionKind.NO_SOLUTION:
        assert brute == []
    elif sol.kind is SolutionKind.UNIQUE:
        expected = [sol.element] if sol.element in pool_members else []
        assert brute == expected
    else:
        assert brute == [w for w in pool if nat_leq(sol.element, w)]


def test_04_solver_completeness():
    """For every (target, known) window pair, both solvers describe exactly
    the brute-forced window solution set, in both semigroups."""
    checked = 0
    for bplus in (False, True):
        pool = pairs_in_window(Z, WINDOW, bplus=bplus)
        members = set(pool)
        for target, known in itertools.product(pool, repeat=2):
            sol = solve_right(target, known, bplus=bplus)
            brute = [w for w in pool if known * w == target]
            _check_solution_against_window(sol, brute, pool, members)
            sol = solve_left(target, known, bplus=bplus)
            brute = [w for w in pool if w * known == target]
            _check_solution_against_window(sol, brute, pool, members)
            checked += 2
    assert checked == 2 * (49 * 49 + 16 * 16)
    report(4, "solver-completeness", f"{checked} equations brute-checked")


def test_05_sandwich_equation():
    """For all window quadruples, the middle-unknown equation's solution set
    is exactly the up-set of the inner coordinates, and the three-factor
    identity holds."""
    coords = Z.window(WINDOW)
    pool = pairs_in_window(Z, WINDOW)
    checked = 0
    for a, b, c, d in itertools.product(coords, repeat=4):
        target = BElement(Z, a, b)
        leftk = BElement(Z, a, c)
        rightk = BElement(Z, d, b)
        assert leftk * BElement(Z, c, d) * rightk == target
        sol = solve_sandwich(target, leftk, rightk)
        assert sol.kind is SolutionKind.UP_SET
        assert sol.element == BElement(Z, c, d)
        brute = [w for w in pool if leftk * w * rightk == target]
        assert brute == [w for w in pool if nat_leq(sol.element, w)]
        checked += 1
    assert checked == 7**4
    report(5, "sandwich-equation", f"{checked} quadruples")


def test_06_ideal_membership():
    """Coordinate criteria for principal ideals match existential brute
    force over the window, both sides, both semigroups."""
    full = pairs_in_window(Z, WINDOW)
    plus = pairs_in_window(Z, WINDOW, bplus=True)
    checked = 0
    for anchor in Z.window(WINDOW):
        e = idempotent(Z, anchor)
        for bplus, pool in ((False, full), (True, plus)):
            if bplus and not Z.is_positive(anchor):
                continue
            for s in full:
                right_brute = any(e * t == s for t in pool)
                left_brute = any(t * e == s for t in pool)
                assert ideal_member(s, anchor, "right", bplus=bplus) == right_brute
                assert ideal_member(s, anchor, "left", bplus=bplus) == left_brute
                checked += 2
    report(6, "ideal-membership", f"{checked} membership queries")


def test_07_bicyclic_specialization():
    """The positive part over the integers realizes the two-generator
    presentation with a two-sided unit; the full semigroup has none."""
    p = BElement(Z, 0, 1)
    q = BElement(Z, 1, 0)
    unit = BElement(Z, 0, 0)
    assert p * q == unit
    assert q * p == BElement(Z, 1, 1)
    assert q * p != unit
    plus = pairs_in_window(Z, WINDOW, bplus=True)
    for s in plus:
        assert unit * s == s and s * unit == s
    # no identity in the full pair semigroup: probes one step wider than
    # the candidate window defeat every candidate
    candidates = pairs_in_window(Z, WINDOW)
    probes = pairs_in_window(Z, WINDOW + 1)
    for cand in candidates:
        assert any(cand * x != x or x * cand != x for x in probes)
    report(7, "bicyclic-specialization", f"unit verified on {len(plus)} elements")


def test_08_witness_chains():
    """100 deterministic chains per carrier; every chain's two equations
    multiply back and are the only window solutions."""
    t0 = time.perf_counter()
    setups = (
        (Z, Z.window(3)),
        (ZXZ, ZXZ.window(2)),
        (H3, H3.window(1)),
        (Q, Q.window(3)),
    )
    total = 0
    for group, coords in setups:
        rng = random.Random(f"acceptance-08:{group.name}")
        candidates = [
            BElement(group, a, b) for a, b in itertools.product(coords, repeat=2)
        ]
        for _ in range(100):
            seed = BElement(group, rng.choice(coords), rng.choice(coords))
            target = BElement(group, rng.choice(coords), rng.choice(coords))
            chain = build_witness_chain(seed, target)  # verified eagerly inside
            first = [t for t in candidates if t * chain.right_translator == seed]
            assert first == [chain.intermediate]
            second = [
                t for t in candidates if chain.left_translator * t == chain.intermediate
            ]
            assert second == [target]
            total += 1
    elapsed = time.perf_counter() - t0
    assert total == 400
    assert elapsed < 5.0
    report(8, "witness-chains", f"{total} chains in {elapsed:.1f}s")


def test_09_escape_certificates():
    """Every off-diagonal region point below each anchor is expelled into
    the predicted principal ideal on the three discrete carriers; the
    dense carrier is not applicable and yields density witnesses instead."""
    total = 0
    for group, window, anchors in (
        (Z, 3, [0, 2]),
        (ZXZ, 3, [(0, 0)]),
        (H3, 2, [(0, 0, 0)]),
    ):
        elems = group.window(window)
        for anchor in anchors:
            idem_pair = idempotent(group, anchor)
            succ = group.successor(anchor)
            region = [
                (x, y)
                for x, y in itertools.product(elems, repeat=2)
                if x != y and group.leq(x, anchor) and group.leq(y, anchor)
            ]
            assert region
            for x, y in region:
                point = BElement(group, x, y)
                cert = escape_certificate(idem_pair, point)
                if group.lt(x, y):
                    assert cert.side == "left"
                    assert cert.product == idem_pair * point
                    assert ideal_member(cert.product, succ, "left")
                    assert cert.excluded_region.value == "left-ideal"
                else:
                    assert cert.side == "right"
                    assert cert.product == point * idem_pair
                    assert ideal_member(cert.product, succ, "right")
                    assert cert.excluded_region.value == "right-ideal"
                total += 1

    try:
        escape_certificate(
            BElement(Q, Fraction(0), Fraction(0)),
            BElement(Q, Fraction(-1), Fraction(-2)),
        )
        assert False, "dense carrier must refuse escape certificates"
    except NotApplicable:
        pass
    grid = Q.window(9)
    verdict = density_probe(Q, grid)
    positives = [g for g in grid if Q.lt(Q.identity, g)]
    assert len(positives) >= 50
    assert len(verdict.witnesses) == len(positives)
    for g, h in verdict.witnesses:
        assert Q.lt(Q.identity, h) and Q.lt(h, g)
    report(
        9,
        "escape-certificates",
        f"{total} region points, {len(positives)} density witnesses",
    )


def test_10_axiom_suites(broken_group):
    """The ordered-group axiom suite passes on all four carriers and fails
    with a counterexample on the deliberately broken fixture."""
    for name, window in (("Z", 3), ("Q", 3), ("ZxZ", 3), ("H3", 2)):
        rep = run_suites(SuiteConfig(group=name, window=window, suites=("axioms",)))
        assert rep.ok, f"axioms failed on {name}"
    verdict = check_positive_cone_axioms(broken_group, list(range(-2, 3)))
    assert not verdict.axiom1_ok
    assert verdict.counterexample == (1, 1)
    rep = run_suites(SuiteConfig(group=broken_group, window=3, suites=("axioms",)))
    assert not rep.ok
    failing = [c for c in rep.checks if c.status == "fail"]
    assert failing and all(c.counterexample for c in failing)
    report(10, "axiom-suites", f"4 carriers pass, fixture fails {len(failing)} checks")
