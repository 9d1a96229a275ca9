import json
from pathlib import Path

import pytest

from bicext.suites import SUITES, SuiteConfig, run_suites


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
