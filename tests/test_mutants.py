import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402


def test_every_mutant_applies_once_to_the_source():
    # the table names text that is still there, once, so it cannot rot silently
    for mutant, (module, old, new, claim) in mutants.MUTANTS.items():
        source = mutants.module_path(ROOT, module).read_text()
        assert source.count(old) == 1, mutant
        assert old != new and claim, mutant
    assert set(mutants.EQUIVALENT) <= set(mutants.MUTANTS)


def test_killing_test_reads_the_first_failure_of_the_summary():
    output = (
        "..F\n=========================== short test summary info ============================\n"
        "FAILED tests/test_pairs.py::test_inverse[Z] - assert False\n"
        "!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
    )
    assert mutants.killing_test(output) == "tests/test_pairs.py::test_inverse[Z]"
    spaced = "FAILED tests/test_certificates.py::test_chain[seed1-chain step two] - InternalError\n"
    assert mutants.killing_test(spaced) == "tests/test_certificates.py::test_chain[seed1-chain step two]"
    assert mutants.killing_test("ERROR tests/test_cli.py - ImportError\n") == "tests/test_cli.py"
    assert mutants.killing_test("3 passed in 0.1s\n") is None


def _fake_checkout(monkeypatch, tier1):
    # main's git and extract steps, standing in for a real checkout of the source
    def extract(commit, into):
        for module in {row[0] for row in mutants.MUTANTS.values()}:
            path = mutants.module_path(into, module)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(mutants.module_path(ROOT, module).read_text())
        return into

    monkeypatch.setattr(mutants, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(mutants, "_extract", extract)
    monkeypatch.setattr(mutants, "_tier1", tier1)


def test_a_failing_unmutated_run_stops_before_any_mutant(monkeypatch, capsys):
    calls = []

    def tier1(checkout):
        calls.append(checkout)
        return subprocess.CompletedProcess([], 1, stdout="FAILED tests/test_x.py::test_flaky - boom\n")

    _fake_checkout(monkeypatch, tier1)
    assert mutants.main([]) == 1
    assert len(calls) == 1
    assert "tests/test_x.py::test_flaky" in capsys.readouterr().err


def test_a_hanging_mutant_counts_as_killed_and_the_module_is_put_back(monkeypatch, capsys):
    seen = []

    def tier1(checkout):
        seen.append({m: mutants.module_path(checkout, m).read_text()
                     for m in {row[0] for row in mutants.MUTANTS.values()}})
        if len(seen) == 1:
            return subprocess.CompletedProcess([], 0, stdout="")
        raise subprocess.TimeoutExpired("pytest", mutants.TIER1_TIMEOUT_S)

    _fake_checkout(monkeypatch, tier1)
    assert mutants.main([]) == 0
    assert len(seen) == 1 + len(mutants.MUTANTS)
    clean = seen[0]
    for (mutant, (module, old, new, claim)), sources in zip(mutants.MUTANTS.items(), seen[1:]):
        assert sources[module] == mutants.mutate(clean[module], old, new), mutant
        assert all(sources[m] == clean[m] for m in clean if m != module), mutant
    out = capsys.readouterr().out
    assert out.count("killed by timeout") == len(mutants.MUTANTS)
    assert f"{len(mutants.MUTANTS)} of {len(mutants.MUTANTS)} killed" in out
