"""The benchmark's own tests: negative controls and repeatability.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import operator
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run._import_program()

import reference  # noqa: E402
import workloads  # noqa: E402
from bicext import GROUPS, IntegerGroup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


class ReversedIntegers(IntegerGroup):
    """Integers ordered backwards while successor still adds one.

    Reversal alone is a valid order, but the successor is then below its
    argument, so the order, successor and escape checks must all fail.
    """

    def cmp(self, g, h):
        return (g < h) - (g > h)


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_misordered_carrier_gives_wrong_verdicts():
    small = workloads.Workload("small-z", "suite", "Z", 2, ("Z",), 1)
    tally = run.Tally()
    run.Suite(small, 0, ReversedIntegers(), tally).call()
    assert tally.wrong > 0 and tally.failed == 1

    tally = run.Tally()
    run.Suite(small, 0, GROUPS["Z"], tally).call()
    assert tally.wrong == 0 and tally.failed == 0


def test_corrupted_stream_result_is_counted():
    requests = workloads.make_stream(reference.CARRIERS, 5, decks=2)
    products = sum(1 for r in requests if r.op == "mul")

    tally = run.Tally()
    stream = run.Stream(requests, GROUPS, tally)
    swap = lambda s, t: (s * t).inverse()  # noqa: E731
    stream.calls = [(swap if fn is operator.mul else fn, args) for fn, args in stream.calls]
    stream.batch(len(requests))
    # only idempotent products survive swapping their coordinates
    assert 0 < tally.wrong <= products and tally.errors == 0

    tally = run.Tally()
    stream = run.Stream(requests, GROUPS, tally)
    stream.batch(len(requests))
    assert (tally.attempted, tally.failed) == (len(requests), 0)


def test_raising_calls_and_cli_exit_codes_are_errors():
    requests = [r for r in workloads.make_stream(("Z",), 2, decks=2)
                if r.op in ("cli.main", "render")]
    tally = run.Tally()
    stream = run.Stream(requests, GROUPS, tally)

    def broken(*args):
        raise RuntimeError("broken on purpose")

    stream.calls = [
        ((lambda argv: (2, "")) if fn is workloads.run_cli else broken, args)
        for fn, args in stream.calls
    ]
    stream.batch(len(requests))
    assert tally.errors == len(requests) == tally.failed and tally.wrong == 0


def test_same_seed_same_inputs():
    one = workloads.make_stream(reference.CARRIERS, 11, decks=3)
    assert one == workloads.make_stream(reference.CARRIERS, 11, decks=3)
    assert one != workloads.make_stream(reference.CARRIERS, 12, decks=3)


def test_every_check_has_an_expected_status():
    from bicext.suites import SUITES

    assert {s: tuple(n for n, _ in c) for s, c in SUITES.items()} == workloads.SUITE_CHECKS
    assert {g: len(na) for g, na in workloads.NOT_APPLICABLE.items()} == {
        "Z": 2, "Q": 6, "ZxZ": 3, "H3": 2,
    }


def test_reference_heisenberg_is_a_group():
    x, y, z = (2, -3, 5), (-1, 4, 7), (3, 1, -2)
    assert reference.mul("H3", x, reference.inv("H3", x)) == (0, 0, 0)
    assert reference.mul("H3", reference.mul("H3", x, y), z) == reference.mul(
        "H3", x, reference.mul("H3", y, z)
    )
    assert reference.mul("H3", x, y) != reference.mul("H3", y, x)


def test_untraced_run_reports_every_end_to_end_metric():
    out = _result(_run("--workload", "suite-z", "--seed", "4", "--seconds", "1", "--trace", "0"))
    names = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["suite-z", "api-stream"])
def test_traced_counts_repeat_across_processes(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    names = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    counts = [k for k in names if k.startswith("ogroups.") and k.endswith("_calls")]
    assert len(counts) == 4
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "suite-z", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
