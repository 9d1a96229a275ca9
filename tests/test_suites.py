import json
import marshal
import os
import random
import threading
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from bicext import certificates, suites
from bicext.certificates import DensityVerdict, WitnessChain
from bicext.natorder import SolutionKind, SolutionSet
from bicext.ogroups import GROUPS, IntegerGroup, RationalGroup
from bicext.pairs import BElement, idempotent
from bicext.shifts import PartialShift
from bicext.suites import SUITES, SuiteConfig, run_suites

Z = GROUPS["Z"]


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def test_all_suites_pass_on_integers():
    report = run_suites(SuiteConfig(group="Z", window=2))
    assert report.ok
    assert all(c.status in ("pass", "not-applicable") for c in report.checks)
    # every registered check shows up exactly once
    expected = [(s, n) for s, checks in SUITES.items() for n, _ in checks]
    assert [(c.suite, c.name) for c in report.checks] == expected


def test_totals_add_up():
    report = run_suites(SuiteConfig(group="Z", window=2))
    t = report.totals()
    assert t["pass"] + t["fail"] + t["not-applicable"] == len(report.checks)
    assert t["cases"] == sum(c.cases for c in report.checks)


def test_escapes_not_applicable_on_rationals():
    report = run_suites(SuiteConfig(group="Q", window=3, suites=("escapes",)))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["escape-region-sweep"].status == "not-applicable"
    assert by_name["density-probe"].status == "pass"


def test_broken_group_fails_axioms_with_counterexample(broken_group):
    report = run_suites(
        SuiteConfig(group=broken_group, window=3, suites=("axioms",))
    )
    assert not report.ok
    failures = [c for c in report.checks if c.status == "fail"]
    assert failures
    assert all(c.counterexample for c in failures)
    by_name = {c.name: c for c in report.checks}
    assert by_name["cone-axioms"].status == "fail"
    assert "1" in by_name["cone-axioms"].counterexample


def test_group_laws_catch_a_product_leaving_the_carrier(leaky_group):
    # every suite runs: the checked constructors reject the leaked payloads
    # in later checks, and that must become a failure, not abort the run;
    # the compatibility check counts its cases through the raising one
    for window, cases, payload in ((2, 21, "-2, 1.0"), (3, 4, "-3, 0.0"), (4, 21, "-2, 3.0")):
        report = run_suites(SuiteConfig(group=leaky_group, window=window))
        by_name = {c.name: c for c in report.checks}
        laws = by_name["group-laws"]
        assert laws.status == "fail"
        assert "left the carrier" in laws.counterexample
        compat = by_name["natorder-compatibility"]
        assert (compat.status, compat.cases, compat.counterexample) == (
            "fail",
            cases,
            f"ValueError: payload outside the Zleaky carrier: {payload}",
        )


class _MiscarryingIntegerGroup(IntegerGroup):
    """Integer carrier whose closed-form carry drops y's sign at y = 2."""

    name = "Zmiscarry"

    def carry(self, x, y, z):
        return x + y + z if y == 2 else x - y + z


def test_group_laws_catch_a_wrong_carry():
    # products, nat_leq and the solvers run on carry, so the law that ties
    # it to mul and inv fails first, and the shift oracle disagrees too
    report = run_suites(SuiteConfig(group=_MiscarryingIntegerGroup(), window=3))
    by_name = {c.name: c for c in report.checks}
    laws = by_name["group-laws"]
    assert (laws.status, laws.cases, laws.counterexample) == (
        "fail", 36, "carry law broke at -3, 2, -3"
    )
    assert by_name["rep-soundness"].status == "fail"


def test_reports_are_deterministic():
    cfg = SuiteConfig(group="ZxZ", window=2, sample_seed=7)
    a = json.dumps(_strip_wall(run_suites(cfg).to_json()), sort_keys=True)
    b = json.dumps(_strip_wall(run_suites(cfg).to_json()), sort_keys=True)
    assert a == b


def test_seed_changes_sampled_cases(broken_group):
    # passing reports read alike under every seed, so compare where a
    # sampled check first fails
    check = _check("pair-associativity")
    base = check(suites._Ctx(broken_group, 3, 0))
    other = check(suites._Ctx(broken_group, 3, 1))
    assert base[0] == other[0] == "fail"
    assert base[1] != other[1] and base[2] != other[2]


@pytest.mark.parametrize("group, window", [("Z", 2), ("Q", 1), ("ZxZ", 1), ("H3", 1)])
def test_report_matches_golden(group, window):
    # recorded reports: apart from wall times, a changed byte means a
    # verdict, a case count or the seeded sampling changed
    report = run_suites(SuiteConfig(group=group, window=window, sample_seed=0))
    text = json.dumps(_strip_wall(report.to_json()), sort_keys=True, indent=2) + "\n"
    golden = Path(__file__).parent / "golden" / f"report-{group}-w{window}-s0.json"
    assert text == golden.read_text()


# The golden reports pin passing runs only.  These are the full results of
# the universal checks on the tampered carrier, so a change to the case
# count or to which counterexample is reported first shows up here.  A
# check that raises counts its cases through the raising tuple.
TAMPERED_W3_S0 = {
    "group-laws": ("pass", 350, None),
    "order-trichotomy": ("fail", 13, "cmp inconsistent at -2, 2"),
    "order-transitivity": ("pass", 343, None),
    "order-bi-invariance": ("fail", 21, "translation broke -3 < -1 by 3"),
    "successor-minimality": ("fail", 5, "successor not minimal above 1"),
    "succ-pred-roundtrip": ("fail", 5, "successor not above 1"),
    "pair-associativity": ("fail", 32, "associativity broke at [-3|-1], [0|-3], [-1|1]"),
    "idempotents-commute": ("fail", 13, "idempotents [-2|-2] and [2|2] do not commute"),
    "bplus-closure": ("fail", 11, "product [0|1] * [0|1] left the positive part"),
    "natleq-vs-oracle": (
        "fail",
        23,
        "InternalDisagreement: order characterizations disagree on [2|-1] vs [1|-2]: "
        "False/True/False",
    ),
    "natleq-clause-duality": ("fail", 83, "coordinate clauses disagree on [-3|-2], [1|2]"),
    "natorder-partial-order": ("fail", 432, "antisymmetry broke at [-2|-3], [2|1]"),
    "triple-factorization": ("pass", 2401, None),
    "solve-right-complete": ("fail", 4, "InternalError: solve_right produced a bad solution [2|2]"),
    "solve-left-complete": (
        "fail",
        1,
        "window solutions of target [-2|-2], known [2|0] (left) do not match NoSolution",
    ),
    "sandwich-complete": (
        "fail",
        1,
        "sandwich solutions for target [-1|-1] via [-1|-1], [0|-1] do not match the up-set of [-1|0]",
    ),
    "solve-right-bplus": ("fail", 29, "InternalError: solve_right produced a bad solution [2|0]"),
    "solve-left-bplus": ("fail", 13, "InternalError: solve_left produced a bad solution [0|2]"),
    "sandwich-bplus": ("pass", 81, None),
    "pair-inverse-unique": ("fail", 2, "second inverse [2|-3] found for [-3|-2]"),
    "rep-soundness": ("fail", 85, "pair product and shift composite split on [-3|-2], [2|-3]"),
    "pointwise-composition": (
        "fail",
        5,
        "pointwise composition broke for shift -2 -> 2 then shift -1 -> 0",
    ),
    "shift-bijectivity": ("fail", 3, "shift -3 -> -1 left its codomain cone at 0"),
    "witness-chains": (
        "fail",
        5,
        "InternalError: chain step one does not multiply back to the seed",
    ),
    "escape-region-sweep": (
        "fail",
        2,
        "InternalError: escape product [0|2] missed the predicted ideal",
    ),
    "dl-set-equivalence": ("fail", 62, "stabilizer test splits at [-2|-2], anchor 2"),
}


def test_failure_paths_on_tampered_carrier(broken_group):
    report = run_suites(SuiteConfig(group=broken_group, window=3, sample_seed=0))
    got = {c.name: (c.status, c.cases, c.counterexample) for c in report.checks}
    assert {name: got[name] for name in TAMPERED_W3_S0} == TAMPERED_W3_S0


# Existential, or one library verdict over a whole sample set: the only
# checks that count their own cases.
OFF_FORALL = {"noncommutative-witness", "cone-axioms", "density-probe"}


@pytest.mark.parametrize("group, window", [("Z", 2), ("Q", 1), ("ZxZ", 1), ("H3", 1)])
def test_sampled_checks_run_on_forall(monkeypatch, group, window):
    # every other applicable check must hand back the outcome _forall
    # returned, so no hand-rolled case counter can creep back in; and each
    # clause is (tuples, fault), one callable per claim
    real, returned = suites._forall, []

    def recording(*clauses):
        assert all(len(clause) == 2 for clause in clauses)
        returned.append(real(*clauses))
        return returned[-1]

    monkeypatch.setattr(suites, "_forall", recording)
    ctx = suites._Ctx(GROUPS[group], window, 0)
    for name, check in (entry for checks in SUITES.values() for entry in checks):
        returned.clear()
        outcome = check(ctx)
        if outcome[0] != "not-applicable" and name not in OFF_FORALL:
            assert len(returned) == 1 and outcome is returned[0], name


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(group="Z", window=0)
    with pytest.raises(ValueError):
        SuiteConfig(group="Z", suites=("nope",))
    with pytest.raises(ValueError):
        SuiteConfig(group="Zillion")
    # an unhashable selector is refused too, not failed in the lookup
    with pytest.raises(ValueError, match="unknown group selector"):
        SuiteConfig(group=["Z"], window=1)


@pytest.mark.parametrize("window", [2.5, "3", True], ids=["float", "str", "bool"])
def test_config_refuses_a_window_that_is_not_an_int(window):
    # refused at construction, so run_suites never meets it
    with pytest.raises(ValueError, match="window must be an int"):
        SuiteConfig(group="Z", window=window, suites=("axioms",))


@pytest.mark.parametrize("seed", [None, "3", 2.5, True], ids=["none", "str", "float", "bool"])
def test_config_refuses_a_sample_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match="sample_seed must be an int"):
        SuiteConfig(group="Z", window=1, sample_seed=seed, suites=("axioms",))


@pytest.mark.parametrize(
    "suites", ["axioms", ["axioms"], ("axioms", 3), (b"axioms",)],
    ids=["str", "list", "int-name", "bytes-name"],
)
def test_config_refuses_suites_that_are_not_a_tuple_of_str(suites):
    # a bare string is refused as a whole, not read as one-letter suite names
    with pytest.raises(ValueError, match="suites must be a tuple of str"):
        SuiteConfig(group="Z", window=1, suites=suites)


def test_suite_subset_keeps_registry_order():
    cfg = SuiteConfig(group="Z", suites=("order", "axioms"))
    assert cfg.suite_names() == ("axioms", "order")


def test_text_report_mentions_failures(broken_group):
    report = run_suites(SuiteConfig(group=broken_group, window=2, suites=("axioms",)))
    text = report.to_text()
    assert "fail" in text and "counterexample" in text


def _check(name):
    return dict(entry for checks in SUITES.values() for entry in checks)[name]


def _wrong_at(real, chosen, answer):
    """``real``, except that the call with positional arguments ``chosen``
    and ``bplus=False`` answers ``answer``."""

    def patched(*args, bplus=False):
        if args == chosen and not bplus:
            return answer
        return real(*args, bplus=bplus)

    return patched


# Negative controls for the oracles: one wrong solver answer, at a sample
# whose product row an earlier sample already built, must fail the check
# at the same case, with the same counterexample, as the per-sample scan
# did.  At Z window 2 every solver sample space is enumerated, so each
# row is shared by 25 samples.  The ideal oracle is the probe's own
# product test, and one wrong membership verdict must fail it too.


def test_solver_rows_catch_a_wrong_right_solution(monkeypatch):
    target, known = BElement(Z, 2, 0), BElement(Z, 1, 1)  # unique solution [2|0]
    no_solution = SolutionSet(SolutionKind.NO_SOLUTION)
    monkeypatch.setattr(
        suites, "solve_right", _wrong_at(suites.solve_right, (target, known), no_solution)
    )
    status, cases, counter = _check("solve-right-complete")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 569)
    assert counter == (
        "window solutions of target [2|0], known [1|1] (right) do not match NoSolution"
    )


def test_sandwich_rows_catch_a_wrong_sandwich_solution(monkeypatch):
    # the solutions are the up-set above [0|-1], which meets the window in
    # [-1|-2] and [0|-1]; the up-set above [1|0] adds [1|0] to those
    chosen = (BElement(Z, 1, 2), BElement(Z, 1, 0), BElement(Z, -1, 2))
    too_wide = SolutionSet(SolutionKind.UP_SET, BElement(Z, 1, 0))
    monkeypatch.setattr(
        suites, "solve_sandwich", _wrong_at(suites.solve_sandwich, chosen, too_wide)
    )
    status, cases, counter = _check("sandwich-complete")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 487)
    assert counter == (
        "sandwich solutions for target [1|2] via [1|0], [-1|2] do not match the up-set of [1|0]"
    )


def test_up_sets_catch_a_wrong_sandwich_solution(monkeypatch):
    # the solutions are the up-set above [-2|0]; the answer given instead,
    # the up-set above [-2|-1], is sample 201's own answer (counting from
    # 0), so its up-set was already listed when sample 202 reads it
    chosen = (BElement(Z, -1, 1), BElement(Z, -1, -2), BElement(Z, 0, 1))
    listed = SolutionSet(SolutionKind.UP_SET, BElement(Z, -2, -1))
    assert suites.solve_sandwich(BElement(Z, -1, 1), BElement(Z, -1, -2), BElement(Z, -1, 1)) == listed
    monkeypatch.setattr(
        suites, "solve_sandwich", _wrong_at(suites.solve_sandwich, chosen, listed)
    )
    status, cases, counter = _check("sandwich-complete")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 203)
    assert counter == (
        "sandwich solutions for target [-1|1] via [-1|-2], [0|1] do not match the up-set of [-2|-1]"
    )


def test_ideal_product_sets_catch_a_wrong_membership(monkeypatch):
    chosen = (BElement(Z, 1, -1), 0, "right")  # [1|-1] = [0|0] * [1|-1]
    monkeypatch.setattr(
        suites, "ideal_member", _wrong_at(suites.ideal_member, chosen, False)
    )
    status, cases, counter = _check("ideal-membership")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 261)
    assert counter == "ideal test disagrees with brute force: [1|-1], anchor 0, right, bplus=False"


def test_dl_set_equivalence_catches_a_wrong_order_test(monkeypatch):
    # the third characterization, [a|a] below s in the natural order, must
    # agree with the other two: a negated nat_leq splits them at once
    real = suites.nat_leq
    monkeypatch.setattr(suites, "nat_leq", lambda s, t: not real(s, t))
    status, cases, counter = _check("dl-set-equivalence")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 1)
    assert counter == "stabilizer test splits at [-2|-2], anchor -2"


def test_solver_rows_cut_carrier_comparisons(counting):
    # Z window 4, seed 0: 625 samples over a 25-pair pool.  One product
    # per (known, w) instead of one per (target, known, w) brings the
    # check from 19,925 comparisons to 4,925; the pool is built first so
    # that only the check's own work is counted.
    carrier, calls = counting(Z)
    ctx = suites._Ctx(carrier, 4, 0)
    ctx.pairs(bplus=True)
    calls.clear()
    assert _check("solve-right-bplus")(ctx) == ("pass", 625, None)
    assert calls["cmp"] <= 6000


def test_rows_once_builds_each_key_once_and_keeps_a_row_only_until_its_last_use():
    # caching every row for the whole check gives the same reports, but
    # keeps every row alive until the check ends and so raises its peak memory
    class Row:
        pass

    built = []

    def build(key):
        built.append(key)
        return Row()

    rows = suites._rows_once(["a", "b", "a", "c"], build)
    a, b = weakref.ref(next(rows)), weakref.ref(next(rows))
    assert a() is not None  # read again below
    assert next(rows) is a()
    assert b() is None  # the consumer moved past its last use
    next(rows)
    assert built == ["a", "b", "c"]


def test_idempotents_commute_builds_only_the_idempotents_it_draws(monkeypatch):
    # H3 window 4 holds 729 elements, of which the check draws 6,000 pairs;
    # it builds the two idempotents of each pair and none for the others
    built = []

    def counting(g, x):
        built.append(x)
        return idempotent(g, x)

    monkeypatch.setattr(suites, "idempotent", counting)
    ctx = suites._Ctx(GROUPS["H3"], 4, 0)
    assert _check("idempotents-commute")(ctx) == ("pass", 6000, None)
    drawn = suites._tuples(ctx.window(), 2, 6000, ctx.rng("idem-commute"))
    assert built == [x for pair in drawn for x in pair]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 81, 4096, 5000])
def test_tuples_draw_as_randrange(n):
    # checks reuse their RNG after _tuples, so its state afterwards matters
    # as much as the tuples drawn
    pool = list(range(n))
    for k in (2, 3, 4):
        cap = min(n**k - 1, 300)
        for seed in (0, 1, 2):
            rng, old = random.Random(seed), random.Random(seed)
            drawn = list(suites._tuples(pool, k, cap, rng))
            draws = (pool[old.randrange(n)] for _ in range(cap * k))
            assert drawn == list(zip(*[draws] * k))
            assert rng.getstate() == old.getstate()
            assert rng.random() == old.random()
    # n = 1 enumerates its single tuple at every cap, so draw directly too
    rng, old = random.Random(n), random.Random(n)
    assert list(suites._draws(pool, 200, rng)) == [pool[old.randrange(n)] for _ in range(200)]
    assert rng.getstate() == old.getstate()


class _SkippingIntegerGroup(IntegerGroup):
    """Integer carrier whose successor skips a value: region points one
    step off the diagonal then land below the ideal at the successor."""

    name = "Zskip"

    def successor(self, g):
        return g + 2


def test_escape_sweep_tests_the_landed_ideal_itself(monkeypatch):
    # with the certificate's own ideal test answering yes, only the sweep's
    # product test sees that [0|0] * [-2|-1] = [0|1] is not fixed by [2|2]
    monkeypatch.setattr(certificates, "ideal_member", lambda *args, **kwargs: True)
    status, cases, counter = _check("escape-region-sweep")(
        suites._Ctx(_SkippingIntegerGroup(), 2, 0)
    )
    assert (status, cases) == ("fail", 1)
    assert counter == "bad escape certificate for [-2|-1] at [0|0]"


def test_natorder_compatibility_catches_a_product_breaking_the_order(broken_group):
    # [1|2] <= [-3|-2] holds, but the tampered cmp misorders 2, so
    # [3|2] * [1|2] = [2|2] is not below [3|2] * [-3|-2] = [3|3]
    status, cases, counter = _check("natorder-compatibility")(
        suites._Ctx(broken_group, 3, 0)
    )
    assert (status, cases) == ("fail", 1)
    assert counter == "multiplication broke [1|2] below [-3|-2] via [3|2]"


class _Unit:
    """A stand-in candidate that fixes every pair on both sides."""

    def __mul__(self, other):
        return other

    __rmul__ = __mul__

    def __str__(self):
        return "unit"


class _UnitCtx(suites._Ctx):
    """Puts a unit second among the no-identity candidates."""

    def pairs(self, bplus=False, margin=0):
        pool = super().pairs(bplus, margin)
        return pool if margin else pool[:1] + [_Unit()] + pool[1:]


def test_no_identity_counts_every_probe_a_unit_fixes():
    # one case per probe tried: the first candidate moves the first corner,
    # and the unit then fixes both corners and all 49 probe pairs
    status, cases, counter = _check("no-identity")(_UnitCtx(Z, 2, 0))
    assert (status, cases) == ("fail", 1 + 2 + 49)
    assert counter == "unit fixed every probe (identity-like)"


@pytest.mark.parametrize(
    "field, cases, counter",
    [
        ("right_translator", 1, "step one of [1|1] -> [1|2] is not unique in the window"),
        ("left_translator", 2, "step two of [-2|0] -> [1|1] is not unique in the window"),
    ],
)
def test_witness_chains_test_each_step_in_the_window(monkeypatch, field, cases, counter):
    # a translator swapped for the window's lowest idempotent fixes a whole
    # up-set, so the step's window solutions are no longer the chain's own;
    # the first chain's target is its intermediate, so step two passes there
    real = suites.build_witness_chain

    def swapped(seed, target):
        chain = real(seed, target)
        fields = {name: getattr(chain, name) for name in WitnessChain.__match_args__}
        return WitnessChain(**{**fields, field: idempotent(Z, -2)})

    monkeypatch.setattr(suites, "build_witness_chain", swapped)
    assert _check("witness-chains")(suites._Ctx(Z, 2, 0)) == ("fail", cases, counter)


# Negative controls for the fault branches the reports above never reach:
# each faulty carrier or patched library call fails its check at a pinned
# case with a pinned counterexample.


class _NonAssociativeIntegerGroup(IntegerGroup):
    """Integer carrier whose product adds one more when the left factor is 2."""

    def mul(self, g, h):
        return g + h + (1 if g == 2 else 0)


class _LeakyInverseIntegerGroup(IntegerGroup):
    """Integer carrier whose inverse of 2 is a float; carry stays closed-form."""

    carry = IntegerGroup.carry

    def inv(self, g):
        return float(-g) if g == 2 else -g


class _OffsetIdentityIntegerGroup(IntegerGroup):
    identity = 5


class _OffsetInverseIntegerGroup(IntegerGroup):
    def inv(self, g):
        return -g + 1


@pytest.mark.parametrize(
    "carrier, cases, counter",
    [
        (_NonAssociativeIntegerGroup, 21, "associativity broke at -2, 2, -2"),
        # the 125 triples pass, and the fifth element is 2
        (_LeakyInverseIntegerGroup, 130, "an inverse or product left the carrier at 2"),
        (_OffsetIdentityIntegerGroup, 126, "identity law broke at -2"),
        (_OffsetInverseIntegerGroup, 126, "inverse law broke at -2"),
    ],
)
def test_group_laws_fault_branches(carrier, cases, counter):
    assert _check("group-laws")(suites._Ctx(carrier(), 2, 0)) == ("fail", cases, counter)


class _LongPredecessorIntegerGroup(IntegerGroup):
    def predecessor(self, g):
        return g - 2


class _DeclaredNonAbelianIntegerGroup(IntegerGroup):
    abelian = False


def test_succ_pred_and_noncommutative_fault_branches():
    ctx = suites._Ctx(_LongPredecessorIntegerGroup(), 2, 0)
    assert _check("succ-pred-roundtrip")(ctx) == (
        "fail", 1, "succ/pred not mutually inverse at -2"
    )
    # all 25 pairs commute
    ctx = suites._Ctx(_DeclaredNonAbelianIntegerGroup(), 2, 0)
    assert _check("noncommutative-witness")(ctx) == (
        "fail", 25, "no non-commuting sample pair found"
    )


def test_pair_inverse_unique_catches_a_wrong_inverse(monkeypatch):
    # the first probe [-2|-2] is idempotent, so it is its own inverse
    monkeypatch.setattr(BElement, "inverse", lambda s: s)
    assert _check("pair-inverse-unique")(suites._Ctx(Z, 2, 0)) == (
        "fail", 2, "inverse law broke at [-2|-1]"
    )


def test_shift_bijectivity_fault_branches(monkeypatch):
    # an apply that rounds each point down to an even offset from the domain
    # anchor sends -1 where -2 went under the first shift, -2 -> -2
    real_apply = PartialShift.apply
    with monkeypatch.context() as m:
        m.setattr(PartialShift, "apply", lambda s, x: real_apply(s, x - (x - s.dom_anchor) % 2))
        assert _check("shift-bijectivity")(suites._Ctx(Z, 2, 0)) == (
            "fail", 1, "shift -2 -> -2 is not injective at -1"
        )
    # a shift standing in for its own inverse inverts only the identity shift
    monkeypatch.setattr(PartialShift, "inverse", lambda s: s)
    assert _check("shift-bijectivity")(suites._Ctx(Z, 2, 0)) == (
        "fail", 2, "shift -2 -> -1 does not invert at -2"
    )


@pytest.mark.parametrize(
    "carrier, verdict, outcome",
    [
        (Z, DensityVerdict(True, None, (), 0), (1, "probe disagrees with the declared density")),
        (Z, DensityVerdict(False, 2, (), 7), (7, "probe reported a wrong minimal positive element")),
        # the carrier's successor of 0 is 2, so the window's 1 undercuts it
        (
            _SkippingIntegerGroup(),
            DensityVerdict(False, 2, (), 7),
            (7, "1 undercuts the minimal positive element"),
        ),
        (
            GROUPS["Q"],
            DensityVerdict(True, None, ((Fraction(1), Fraction(2)),), 1),
            (1, "bad density witness 2"),
        ),
    ],
)
def test_density_probe_fault_branches(monkeypatch, carrier, verdict, outcome):
    monkeypatch.setattr(suites, "density_probe", lambda group, samples: verdict)
    assert _check("density-probe")(suites._Ctx(carrier, 2, 0)) == ("fail", *outcome)


class _CyclicOrderIntegerGroup(IntegerGroup):
    """Integer carrier whose order runs round a circle of five: g is at or
    below h when h is at most two steps ahead of g, counted mod 5."""

    def leq(self, g, h):
        return (h - g) % 5 < 3


def test_order_transitivity_catches_a_cyclic_order():
    assert _check("order-transitivity")(suites._Ctx(_CyclicOrderIntegerGroup(), 2, 0)) == (
        "fail", 9, "transitivity broke at -2, -1, 1"
    )


class _NoMidpointRationalGroup(RationalGroup):
    def between(self, g, h):
        return g


def test_density_witness_catches_a_midpoint_on_the_bound():
    assert _check("density-witness")(suites._Ctx(_NoMidpointRationalGroup(), 1, 0)) == (
        "fail", 1, "no midpoint between -1 and 0"
    )


def test_bicyclic_presentation_catches_q_p_not_collapsing(monkeypatch):
    # p*q still gives the unit, so only the second relation can fail
    p, q, real = BElement(Z, 0, 1), BElement(Z, 1, 0), BElement.__mul__
    monkeypatch.setattr(
        BElement, "__mul__", lambda s, t: BElement(Z, 0, 0) if (s, t) == (q, p) else real(s, t)
    )
    assert _check("bicyclic-presentation")(suites._Ctx(Z, 2, 0)) == (
        "fail", 2, "q*p did not collapse to the (1,1) idempotent"
    )


def test_natleq_vs_oracle_catches_a_wrong_order_test(monkeypatch):
    real = suites.nat_leq
    monkeypatch.setattr(suites, "nat_leq", lambda s, t: not real(s, t))
    assert _check("natleq-vs-oracle")(suites._Ctx(Z, 2, 0)) == (
        "fail", 1, "order test and oracle disagree on [-2|-2], [-2|-2]"
    )


def test_natorder_partial_order_catches_a_relation_that_is_not_transitive(monkeypatch):
    # keeping only the comparisons one step apart keeps the relation
    # reflexive and antisymmetric, so only the transitivity clause fails
    real = suites.nat_leq
    monkeypatch.setattr(suites, "nat_leq", lambda s, t: real(s, t) and abs(s.left - t.left) <= 1)
    assert _check("natorder-partial-order")(suites._Ctx(Z, 2, 0)) == (
        "fail", 1980, "transitivity broke at [0|0], [-1|-1], [-2|-2]"
    )


def test_triple_factorization_catches_a_reversed_product(monkeypatch):
    # the check multiplies coordinates through the carrier, building no pair
    real = IntegerGroup.pair_product
    monkeypatch.setattr(IntegerGroup, "pair_product", lambda g, a, b, c, d: real(g, c, d, a, b))
    assert _check("triple-factorization")(suites._Ctx(Z, 2, 0)) == (
        "fail", 2, "factorization broke at -2,-2,-2,-1"
    )


def _keep_right_above(monkeypatch):
    """Make Z's [a|b] * [c|d] with b > c keep d instead of carrying it to
    b - c + d; every other product stays right."""
    real = IntegerGroup.pair_product
    monkeypatch.setattr(
        IntegerGroup, "pair_product",
        lambda g, a, b, c, d: (a, d) if b > c else real(g, a, b, c, d),
    )


def test_a_product_wrong_only_above_fails_the_solver_rows_and_rep_soundness(monkeypatch):
    # the solver rows read the wrong product, and rep-soundness holds it to
    # the shift composite, which multiplies nothing
    _keep_right_above(monkeypatch)
    ctx = suites._Ctx(Z, 2, 0)
    assert _check("solve-right-complete")(ctx) == (
        "fail", 2,
        "window solutions of target [-2|-2], known [-2|-1] (right) do not match UpSet",
    )
    assert _check("rep-soundness")(ctx) == (
        "fail", 26, "pair product and shift composite split on [-2|-1], [-2|-2]"
    )


@pytest.mark.parametrize(
    "name, cases, counter",
    [
        ("pair-associativity", 6, "associativity broke at [-2|0], [-1|0], [1|0]"),
        ("pair-inverse-unique", 1, "second inverse [-2|-1] found for [-2|-2]"),
    ],
)
def test_a_product_wrong_only_above_fails_the_pair_law_checks(monkeypatch, name, cases, counter):
    # both checks multiply coordinates through the carrier's own product
    _keep_right_above(monkeypatch)
    assert _check(name)(suites._Ctx(Z, 2, 0)) == ("fail", cases, counter)


@pytest.mark.parametrize(
    "name, ops",
    [
        ("pair-associativity", {"cmp": 26_664, "inv": 21_842, "mul": 43_684}),
        ("pair-inverse-unique", {"cmp": 1_360, "inv": 1_080, "mul": 2_160}),
        ("witness-chains", {"cmp": 1_400, "contains": 250, "inv": 1_220, "mul": 2_440}),
    ],
)
def test_the_pair_law_checks_make_the_carrier_calls_of_pair_products(counting, name, ops):
    # each check reads coordinates, and calls the carrier exactly as
    # multiplying the pairs would; the pools are built first, so only the
    # check's own calls count
    carrier, calls = counting(Z)
    ctx = suites._Ctx(carrier, 2, 0)
    ctx.pairs()
    ctx.pool_elements()
    calls.clear()
    assert _check(name)(ctx)[0] == "pass"
    assert dict(calls) == ops


# --- checks shared with one forked child ----------------------------------
#
# ``run_suites`` splits its checks with a forked child only where at least
# two CPUs are usable; these tests patch that probe, so they split, or
# not, on any host.


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes from here on, one entry each."""
    real, made = os.fork, []

    def spy():
        made.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return made


def _cpus(monkeypatch, n):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: n, raising=False)


def _wrap_checks(monkeypatch, wrap):
    """Register ``wrap(name, fn)`` in place of every check ``fn``."""
    for suite, checks in SUITES.items():
        monkeypatch.setitem(SUITES, suite, tuple((name, wrap(name, fn)) for name, fn in checks))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_split_report_equals_the_in_process_report(monkeypatch, group, window, seed):
    cfg = SuiteConfig(group=group, window=window, sample_seed=seed)
    _cpus(monkeypatch, 2)
    split = run_suites(cfg)
    _cpus(monkeypatch, 1)
    alone = run_suites(cfg)
    assert _strip_wall(split.to_json()) == _strip_wall(alone.to_json())


def test_a_shipped_carrier_forks_once(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    report = run_suites(SuiteConfig(group="Z", window=1))
    assert len(forks) == 1 and report.ok
    _no_child_left()


class _PlainIntegerGroup(IntegerGroup):
    pass


@pytest.mark.parametrize("case", ["subclass", "one-cpu", "second-thread", "one-check"])
def test_no_fork_where_a_child_could_not_help(monkeypatch, forks, case):
    _cpus(monkeypatch, 1 if case == "one-cpu" else 2)
    cfg = SuiteConfig(
        group=_PlainIntegerGroup() if case == "subclass" else "Z",
        window=1,
        suites=("ideals",) if case == "one-check" else (),
    )
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "second-thread":
        thread.start()
    try:
        report = run_suites(cfg)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert forks == [] and report.ok


def test_a_counting_carrier_sees_every_call_through_run_suites(monkeypatch, counting):
    # a subclass may hold state, so its calls all stay in the caller
    _cpus(monkeypatch, 2)
    carrier, calls = counting(Z)
    run_suites(SuiteConfig(group=carrier, window=1))
    through_runner = dict(calls)
    calls.clear()
    ctx = suites._Ctx(carrier, 1, 0)
    for _, check in (entry for checks in SUITES.values() for entry in checks):
        check(ctx)
    assert through_runner == dict(calls) and calls["mul"] > 0


def test_a_child_that_exits_early_still_gives_the_in_process_report(monkeypatch):
    # the child dies at the first check it takes; the caller sleeps in
    # each of its own so the child takes one, then runs that one again
    cfg = SuiteConfig(group="Z", window=2, suites=("axioms", "order"))
    _cpus(monkeypatch, 1)
    alone = run_suites(cfg)
    caller, ran = os.getpid(), []

    def wrap(name, check):
        def exiting(ctx):
            if os.getpid() != caller:
                os._exit(0)
            time.sleep(0.01)
            ran.append(name)
            return check(ctx)

        return exiting

    _wrap_checks(monkeypatch, wrap)
    _cpus(monkeypatch, 2)
    split = run_suites(cfg)
    assert _strip_wall(split.to_json()) == _strip_wall(alone.to_json())
    assert sorted(ran) == sorted(c.name for c in alone.checks)
    _no_child_left()


def test_an_unexpected_error_reaches_the_caller_with_its_type(monkeypatch):
    # a TypeError is no verdict: whichever process takes the check, it is
    # raised to the caller, as the in-process loop raises it
    def wrap(name, check):
        if name != "natleq-vs-oracle":
            return check

        def raising(ctx):
            raise TypeError("not a verdict")

        return raising

    _wrap_checks(monkeypatch, wrap)
    _cpus(monkeypatch, 2)
    with pytest.raises(TypeError, match="not a verdict"):
        run_suites(SuiteConfig(group="Z", window=1))
    _no_child_left()


def test_a_caller_that_raises_kills_its_child(monkeypatch):
    caller = os.getpid()

    def wrap(name, check):
        def stalling(ctx):
            if os.getpid() != caller:
                time.sleep(5)
            raise TypeError("not a verdict")

        return stalling

    _wrap_checks(monkeypatch, wrap)
    _cpus(monkeypatch, 2)
    t0 = time.monotonic()
    with pytest.raises(TypeError):
        run_suites(SuiteConfig(group="Z", window=1, suites=("ideals", "witnesses")))
    assert time.monotonic() - t0 < 2.5  # not waiting for the stalled child
    _no_child_left()


class _Exited(BaseException):
    """What ``os._exit`` raises in the tests below, so the child's code runs in-process."""


def _exits(monkeypatch):
    """The codes ``os._exit`` is called with from here on; each call raises ``_Exited``."""
    codes = []

    def exit_(code):
        codes.append(code)
        raise _Exited

    monkeypatch.setattr(os, "_exit", exit_)
    return codes


@pytest.mark.parametrize("raises", [False, True])
def test_the_child_sends_the_rows_it_took_and_exits_with_0(monkeypatch, raises):
    # the child takes indices 0, 2 and 5; a check that raises ends its run
    # there, and the rows finished before it are still sent
    codes = _exits(monkeypatch)
    queue, feed = os.pipe()
    os.write(feed, bytes([0, 2, 5]))
    os.close(feed)
    inbox, outbox = os.pipe()

    def run(index):
        if raises and index == 2:
            raise TypeError("not a verdict")
        return "suite", f"check-{index}", "pass", index, None, 0.5

    try:
        with pytest.raises(_Exited):
            suites._child(queue, outbox, run)
    finally:
        os.close(queue)
        os.close(outbox)
    data = os.read(inbox, 1 << 16)
    os.close(inbox)
    taken = [0] if raises else [0, 2, 5]
    assert data == marshal.dumps({index: run(index) for index in taken})
    assert codes == [0]


def test_a_forked_split_runs_only_the_child(monkeypatch):
    # in the child, fork returned 0: it takes every check, sends the rows
    # and leaves, never reaching the caller's side of the split
    codes = _exits(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: 0)
    real, fds = os.pipe, []

    def pipe():
        fds.extend(ends := real())
        return ends

    monkeypatch.setattr(os, "pipe", pipe)
    try:
        with pytest.raises(_Exited):
            suites._split(lambda index: ("row", index), 3)
    finally:
        # the queue and the outbox; the split closed the feed itself
        os.close(fds[0])
        os.close(fds[3])
    data = os.read(fds[2], 1 << 16)
    os.close(fds[2])
    assert marshal.loads(data) == {0: ("row", 0), 1: ("row", 1), 2: ("row", 2)}
    assert codes == [0]


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # hosts without an affinity call (macOS) count every CPU as usable
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert suites._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert suites._usable_cpus() == 2


def test_a_failed_fork_runs_every_check_in_the_caller(monkeypatch):
    cfg = SuiteConfig(group="Z", window=1)
    _cpus(monkeypatch, 1)
    alone = run_suites(cfg)

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    _cpus(monkeypatch, 2)
    assert _strip_wall(run_suites(cfg).to_json()) == _strip_wall(alone.to_json())
