import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarise_counts_wins_and_applies_the_gain_rule():
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    row = bench_pairs.summarise(base, [9.0, 10.0, 12.0, 14.0, 8.0], "lower", 0.25)
    # pair 3 is a tie and counts for neither side
    assert (row["change_wins"], row["change_losses"]) == (3, 1)
    assert (row["base"]["q1"], row["base"]["median"], row["base"]["q3"]) == (11.0, 12.0, 13.0)
    assert row["base_iqr"] == 2.0
    assert not row["gain_holds"] and row["within_bound"]
    faster = bench_pairs.summarise(base, [x - 3 for x in base], "lower", 0.25)
    assert faster["change_wins"] == 5 and faster["gain_holds"]
    # "higher is better" flips every comparison
    fewer = bench_pairs.summarise(base, [x - 3 for x in base], "higher", 0.2)
    assert fewer["change_losses"] == 5 and not fewer["gain_holds"]
    assert not fewer["within_bound"]  # 9 against 12 is 25% worse, past a 20% bound


def test_summarise_takes_a_single_pair():
    row = bench_pairs.summarise([2.0], [1.0], "lower", 0.25)
    assert row["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert row["change_wins"] == 1 and row["gain_holds"]
