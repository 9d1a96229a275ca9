import importlib.util
import json
from pathlib import Path

import pytest

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


# what the stubbed traced run of each side reads for one per-layer timing
_TRACED_MAIN_US = {"base": 140.0, "change": 90.0}


def _stub_bench(bad):
    """A ``_bench`` that answers at once; the runs named in ``bad``, as
    (workload, side's checkout name, seed, trace), report ``bad[key]``.
    A traced run reads ``_TRACED_MAIN_US`` for ``cli.main_us``."""
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]

    def bench(checkout, workload, seed, seconds, trace):
        verdict = bad.get((workload, checkout.name, seed, trace), {"correct": True, "failed": 0})
        metrics = {k: {"value": 1.0} for k in names}
        if trace:
            metrics["cli.main_us"] = {"value": _TRACED_MAIN_US[checkout.name]}
        return {**verdict, "attempted": 10, "metrics": metrics}

    return bench


@pytest.mark.parametrize(
    "bad, wrong",
    [
        ({}, []),
        ({("api-stream", "change", 2, 0): {"correct": False, "failed": 0}}, ["api-stream"]),
        ({("suite-z", "base", 1, 1): {"correct": True, "failed": 3}}, ["suite-z"]),
    ],
)
def test_main_flags_incorrect_runs(tmp_path, monkeypatch, capsys, bad, wrong):
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "_extract", lambda commit, into: into)
    monkeypatch.setattr(bench_pairs, "_bench", _stub_bench(bad))
    out = tmp_path / "pairs.json"
    code = bench_pairs.main(["--base", "a", "--change", "b", "--pairs", "2", "--out", str(out),
                             "--workdir", str(tmp_path)])
    record = json.loads(out.read_text())
    assert code == (1 if wrong else 0)
    assert [w for w, row in record["workloads"].items() if not row["all_correct"]] == wrong
    # every workload ran all its pairs and its traced runs before the exit
    for row in record["workloads"].values():
        assert len(row["runs"]["base"]) == len(row["runs"]["change"]) == 2
        assert set(row["traced_counts"]) == set(row["traced_timings"]) == {"base", "change"}
        # the traced run's timings sit next to its counts, each under its own key
        for side, main_us in _TRACED_MAIN_US.items():
            assert row["traced_timings"][side]["cli.main_us"] == main_us
            assert "ogroups.mul_calls" in row["traced_counts"][side]
            assert "cli.main_us" not in row["traced_counts"][side]
            assert "ogroups.mul_calls" not in row["traced_timings"][side]
    assert ("incorrect or failed runs" in capsys.readouterr().err) == bool(wrong)
