import json
import random
from pathlib import Path

import pytest

from bicext import suites
from bicext.natorder import SolutionKind, SolutionSet
from bicext.ogroups import GROUPS
from bicext.pairs import BElement
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
    report = run_suites(
        SuiteConfig(group=leaky_group, window=2, suites=("axioms",))
    )
    by_name = {c.name: c for c in report.checks}
    laws = by_name["group-laws"]
    assert laws.status == "fail"
    assert "left the carrier" in laws.counterexample


def test_reports_are_deterministic():
    cfg = SuiteConfig(group="ZxZ", window=2, sample_seed=7)
    a = json.dumps(_strip_wall(run_suites(cfg).to_json()), sort_keys=True)
    b = json.dumps(_strip_wall(run_suites(cfg).to_json()), sort_keys=True)
    assert a == b


def test_seed_changes_sampled_cases():
    base = run_suites(SuiteConfig(group="ZxZ", window=3, suites=("semigroup",)))
    other = run_suites(
        SuiteConfig(group="ZxZ", window=3, sample_seed=1, suites=("semigroup",))
    )
    assert base.ok and other.ok


@pytest.mark.parametrize("group, window", [("Z", 2), ("Q", 1), ("ZxZ", 1), ("H3", 1)])
def test_report_matches_golden(group, window):
    # recorded reports: apart from wall times, a changed byte means a
    # verdict, a case count or the seeded sampling changed
    report = run_suites(SuiteConfig(group=group, window=window, sample_seed=0))
    text = json.dumps(_strip_wall(report.to_json()), sort_keys=True, indent=2) + "\n"
    golden = Path(__file__).parent / "golden" / f"report-{group}-w{window}-s0.json"
    assert text == golden.read_text()


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(group="Z", window=0)
    with pytest.raises(ValueError):
        SuiteConfig(group="Z", suites=("nope",))
    with pytest.raises(ValueError):
        SuiteConfig(group="Zillion")


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


# Negative controls for the memoized oracles: one wrong solver answer, at a
# sample whose product row or product set an earlier sample already built,
# must fail the check at the same case, with the same counterexample, as
# the per-sample scan did.  At Z window 2 every solver sample space is
# enumerated, so each row is shared by 25 samples.


def test_solver_rows_catch_a_wrong_right_solution(monkeypatch):
    target, known = BElement(Z, 2, 0), BElement(Z, 1, 1)  # unique solution [2|0]
    no_solution = SolutionSet(SolutionKind.NO_SOLUTION)
    monkeypatch.setattr(
        suites, "solve_right", _wrong_at(suites.solve_right, (target, known), no_solution)
    )
    status, cases, counter = _check("solve-right-complete")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 14225)
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
    assert (status, cases) == ("fail", 12175)
    assert counter == (
        "sandwich solutions for target [1|2] via [1|0], [-1|2] do not match the up-set of [1|0]"
    )


def test_ideal_product_sets_catch_a_wrong_membership(monkeypatch):
    chosen = (BElement(Z, 1, -1), 0, "right")  # [1|-1] = [0|0] * [1|-1]
    monkeypatch.setattr(
        suites, "ideal_member", _wrong_at(suites.ideal_member, chosen, False)
    )
    status, cases, counter = _check("ideal-membership")(suites._Ctx(Z, 2, 0))
    assert (status, cases) == ("fail", 261)
    assert counter == "ideal test disagrees with brute force: [1|-1], anchor 0, right, bplus=False"


def test_solver_rows_cut_carrier_comparisons(counting):
    # Z window 4, seed 0: 625 samples over a 25-pair pool.  One product
    # per (known, w) instead of one per (target, known, w) brings the
    # check from 19,925 comparisons to 4,925; the pool is built first so
    # that only the check's own work is counted.
    carrier, calls = counting(Z)
    ctx = suites._Ctx(carrier, 4, 0)
    ctx.pairs(bplus=True)
    calls.clear()
    assert _check("solve-right-bplus")(ctx) == ("pass", 15625, None)
    assert calls["cmp"] <= 6000


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
