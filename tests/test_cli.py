import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicext
from bicext import cli
from bicext.cli import _parse_command_line, main
from bicext.ogroups import GROUPS
from bicext.suites import SUITES, SuiteConfig, SuiteReport, run_suites


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--group", "Z", "--target", "[5|2]", "--known", "[3|4]",
        "--side", "right", "--output", "json",
    )
    assert code == 0
    assert json.loads(out) == {"kind": "Unique", "element": {"left": "6", "right": "2"}}


def test_solve_no_solution(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--target", "[1|2]", "--known", "[3|4]", "--side", "right",
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out) == {"kind": "NoSolution", "element": None}


def test_solve_sandwich(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--target", "[1|2]", "--side", "sandwich",
        "--leftk", "[1|5]", "--rightk", "[7|2]", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["element"] == {"left": "5", "right": "7"}


def test_solve_missing_known_factors(capsys):
    code, out, err = run(capsys, "solve", "--target", "[1|2]")
    assert (code, out, err) == (2, "", "solve needs --known\n")
    code, out, err = run(capsys, "solve", "--target", "[1|2]", "--side", "sandwich", "--leftk", "[1|5]")
    assert (code, out, err) == (2, "", "solve --side sandwich needs --leftk and --rightk\n")


def test_mul_and_inv(capsys):
    code, out, _ = run(capsys, "mul", "--group", "ZxZ", "[(0,0)|(0,1)]", "[(1,0)|(2,3)]")
    assert code == 0 and out.strip() == "[(1,-1)|(2,3)]"
    code, out, _ = run(capsys, "inv", "[3|5]")
    assert code == 0 and out.strip() == "[5|3]"
    code, out, err = run(capsys, "inv", "--group", "ZxZ", "[(1,2)|(3,4]")
    assert (code, out, err) == (2, "", "literal error: expected ')' (offset 10)\n")


def test_leq(capsys):
    code, out, _ = run(capsys, "leq", "--s", "[3|5]", "--t", "[1|3]", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"leq": True, "oracle": True}


def test_ideal(capsys):
    code, out, _ = run(
        capsys, "ideal", "--element", "[3|1]", "--anchor", "2", "--side", "right",
        "--output", "json",
    )
    assert code == 0 and json.loads(out) == {"member": True}


def test_upset(capsys):
    code, out, _ = run(
        capsys, "upset", "--base", "[2|3]", "--window", "3", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [
        {"left": "-3", "right": "-2"},
        {"left": "-2", "right": "-1"},
        {"left": "-1", "right": "0"},
        {"left": "0", "right": "1"},
        {"left": "1", "right": "2"},
        {"left": "2", "right": "3"},
    ]


def test_upset_not_applicable_on_rationals(capsys):
    # worded as every other refusal of Q's window
    code, out, err = run(capsys, "upset", "--group", "Q", "--base", "[0|1]")
    assert (code, out, err) == (0, "not applicable: Q is not enumerable\n", "")
    code, out, err = run(capsys, "upset", "--group", "Q", "--base", "[0|1]", "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"not_applicable": True, "reason": "Q is not enumerable"}


def test_pmap_apply(capsys):
    code, out, _ = run(capsys, "pmap", "apply", "--g", "2", "--h", "5", "--x", "3")
    assert code == 0 and out.strip() == "6"


@pytest.mark.parametrize(
    "before, option, value, after, answer",
    [
        (["ideal", "--group", "Q", "--element", "[1|2]"], "--anchor", "-3/4",
         ["--side", "right"], "[1|2] in the right ideal of [-3/4|-3/4]: True"),
        (["pmap", "apply", "--group", "Q"], "--g", "-1/2", ["--h", "1", "--x", "0"], "3/2"),
    ],
    ids=["ideal", "pmap"],
)
def test_negative_fraction_option_values_need_the_equals_form(
    capsys, before, option, value, after, answer
):
    # argparse reads "-3/4" as an option string, though "-3" as a value
    with pytest.raises(SystemExit) as exc:
        main([*before, option, value, *after])
    assert exc.value.code == 2
    assert f"argument {option}: expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, *before, f"{option}={value}", *after)
    assert code == 0 and out.strip() == answer


def test_pmap_apply_out_of_domain(capsys):
    code, _, err = run(capsys, "pmap", "apply", "--g", "2", "--h", "5", "--x", "1")
    assert code == 2 and "OutOfDomain" in err


def test_pmap_apply_missing_flags(capsys):
    code, _, err = run(capsys, "pmap", "apply", "--g", "2")
    assert code == 2


def test_pmap_check_compose(capsys):
    code, out, _ = run(
        capsys, "pmap", "check-compose", "--group", "ZxZ", "--window", "1",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["pairs"] == 81 * 81
    # Q sweeps its window grid: 7 fractions at window 2, checked on the
    # 23 points of the grid at window 4
    code, out, _ = run(capsys, "pmap", "check-compose", "--group", "Q", "--window", "2")
    assert code == 0
    assert out == "ok: 2401 composite pairs agree on 23 sample points\n"
    code, out, err = run(capsys, "pmap", "check-compose", "--group", "Q", "--window", "3")
    assert code == 2 and out == ""
    assert "50625 shift pairs" in err and "budget of 10000" in err


def test_pmap_check_compose_reports_a_failing_pair(monkeypatch, capsys):
    # an oracle that refuses every composite stops the sweep at its first pair
    monkeypatch.setattr(bicext, "compose_pointwise_oracle", lambda *args: False)
    code, out, _ = run(capsys, "pmap", "check-compose", "--window", "1", "--output", "json")
    assert code == 1 and json.loads(out) == {"ok": False, "pairs": 1, "points": 3}
    code, out, _ = run(capsys, "pmap", "check-compose", "--window", "1")
    assert code == 1
    assert out == "FAIL: composition of shift -1 -> -1 then shift -1 -> -1 disagrees pointwise\n"


def test_pmap_check_compose_pair_budget(capsys):
    # H3 at window 1 has 27 elements, so 729**2 shift pairs: refused at once
    code, out, err = run(capsys, "pmap", "check-compose", "--group", "H3", "--window", "1")
    assert code == 2 and out == ""
    assert "531441 shift pairs" in err and "budget of 10000" in err
    # a wide window is refused before its elements are built
    code, out, err = run(capsys, "pmap", "check-compose", "--window", "1000000000")
    assert code == 2 and out == "" and "budget of 10000" in err
    code, out, _ = run(capsys, "pmap", "check-compose", "--group", "ZxZ", "--window", "1")
    assert code == 0
    assert out == "ok: 6561 composite pairs agree on 9 sample points\n"


def test_upset_and_escape_window_budget(capsys):
    # upset walks the window elements: H3 at the default window 4 has 729,
    # and at window 11 it has 23**3 = 12167, refused at once
    code, out, _ = run(capsys, "upset", "--group", "H3", "--base", "[(0,0,0)|(0,0,0)]")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 365
    assert lines[0] == "[(-4,-4,-4)|(-4,-4,-4)]" and lines[-1] == "[(0,0,0)|(0,0,0)]"
    code, out, err = run(capsys, "upset", "--group", "H3", "--base", "[(0,0,0)|(0,0,0)]", "--window", "11")
    assert code == 2 and out == ""
    assert "12167 window elements" in err and "budget of 10000" in err
    # on Z the budget admits 9,999 elements and refuses 10,001
    code, out, _ = run(capsys, "upset", "--base", "[0|1]", "--window", "4999")
    assert code == 0 and out.splitlines()[-1] == "[0|1]"
    code, out, err = run(capsys, "upset", "--base", "[0|1]", "--window", "5000")
    assert code == 2 and out == "" and "10001 window elements" in err
    # escape covers window pairs: H3 at the default window has 729**2
    code, out, err = run(capsys, "escape", "--a", "(0,0,0)", "--group", "H3")
    assert code == 2 and out == ""
    assert "531441 window pairs" in err and "budget of 10000" in err
    # a wide window is refused before its elements are built
    for argv in (["upset", "--base", "[0|0]"], ["escape", "--a", "0"]):
        code, out, err = run(capsys, *argv, "--window", "1000000000")
        assert code == 2 and out == "" and "budget of 10000" in err
    # upset on Q builds no window, so it stays a not-applicable answer
    code, out, _ = run(capsys, "upset", "--group", "Q", "--base", "[0|1]", "--window", "1000000000")
    assert code == 0 and out.startswith("not applicable")


def test_witness(capsys):
    code, out, _ = run(
        capsys, "witness", "--seed", "[0|0]", "--target", "[-3|7]", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["right_translator"] == {"left": "6", "right": "-1"}
    assert payload["intermediate"] == {"left": "0", "right": "7"}
    assert payload["left_translator"] == {"left": "-1", "right": "-4"}


def test_witness_text(capsys):
    code, out, _ = run(capsys, "witness", "--seed", "[0|0]", "--target", "[-3|7]")
    assert code == 0
    assert out == (
        "seed [0|0] -> target [-3|7]\n"
        "  step one: [0|7] * [6|-1] = [0|0] (unique)\n"
        "  step two: [-1|-4] * [-3|7] = [0|7] (unique)\n"
    )


def test_escape_table(capsys):
    code, out, _ = run(capsys, "escape", "--a", "0", "--window", "2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 6
    regions = {c["excluded_region"] for c in payload["certificates"]}
    assert regions == {"left-ideal", "right-ideal"}


def test_escape_not_applicable_on_rationals(capsys):
    code, out, _ = run(capsys, "escape", "--group", "Q", "--a", "0", "--output", "json")
    assert code == 0
    assert json.loads(out)["not_applicable"] is True


def test_window_zero_on_rationals_matches_integers(capsys):
    # window 0 is the single point 0 on every carrier, Q included
    for group in ("Z", "Q"):
        code, out, _ = run(capsys, "pmap", "check-compose", "--group", group, "--window", "0")
        assert code == 0
        assert out == "ok: 1 composite pairs agree on 1 sample points\n"
    code, out, _ = run(capsys, "escape", "--group", "Q", "--a", "0", "--window", "0")
    assert code == 0 and out.startswith("not applicable")
    # a negative window is refused with the window's own message
    code, out, err = run(capsys, "escape", "--group", "Q", "--a", "0", "--window", "-1")
    assert code == 2 and out == "" and "window radius must be non-negative" in err


def test_check_passes(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "Z", "--window", "2", "--suites", "axioms,order"
    )
    assert code == 0
    assert "summary:" in out and " fail" in out


def test_check_json_is_sorted_and_stable(capsys):
    code, out, _ = run(
        capsys, "check", "--group", "Z", "--window", "2", "--suites", "axioms",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0


@pytest.mark.parametrize(
    "group, window, elems",
    [
        ("Z", 10**9, 2 * 10**9 + 1),
        ("Z", 5000, 10001),
        ("H3", 10**9, (2 * 10**9 + 1) ** 3),
        ("H3", 11, 12167),
        # Q's grid at window w is bounded by (2w+1)**2
        ("Q", 10**9, (2 * 10**9 + 1) ** 2),
        ("Q", 50, 10201),
    ],
)
def test_check_refuses_a_window_over_the_budget(capsys, group, window, elems):
    # refused before any element is built: exit 2, not a MemoryError
    code, out, err = run(capsys, "check", "--group", group, "--window", str(window))
    assert code == 2 and out == ""
    assert err == (
        f"check at window {window} would build {elems} window elements, "
        "over the budget of 10000; use a smaller --window\n"
    )


def test_check_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "check", "--suites", "nonsense")
    assert code == 2


@pytest.mark.parametrize("suites", [",", " ", "axioms,,order", "axioms,", ", axioms"])
def test_a_suites_list_with_an_empty_name_is_a_usage_error(capsys, suites):
    # an empty name is refused, never dropped: dropping every name of ","
    # would leave no names, which selects every suite
    with pytest.raises(SystemExit) as exc:
        main(["check", "--window", "1", "--suites", suites])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"bicext check: error: argument --suites: empty suite name in {suites!r}\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "mul", "[oops|2]", "[1|1]")
    assert code == 2 and "literal error" in err
    code, _, err = run(capsys, "mul", "[" + "9" * 5000 + "|0]", "[1|1]")
    assert code == 2 and "literal error" in err and "(offset 1)" in err


def test_unrenderable_result_is_a_result_error(capsys):
    # both literals sit at the digit limit; their product is one digit longer
    limit = sys.get_int_max_str_digits()
    argv = ["mul", "[" + "9" * limit + "|0]", "[" + "9" * limit + "|0]"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("result error:") and f"{limit} digits" in err
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code == 2 and err == ""
    payload = json.loads(out)
    assert payload["digit_limit"] == limit and f"{limit} digits" in payload["result_error"]
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_no_error_exceeds_a_switched_off_digit_limit():
    # with the limit off, no integer is refused, so no ValueError is the refusal
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as refused:
        str(10 ** limit)
    assert cli._exceeds_digit_limit(refused.value)
    sys.set_int_max_str_digits(0)
    try:
        assert not cli._exceeds_digit_limit(refused.value)
    finally:
        sys.set_int_max_str_digits(limit)


_ELEMENT = {"left": "(1,-2)", "right": "(0,3)"}
_JSON_LEAVES = (
    st.none() | st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0])
    | st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(st.characters(exclude_categories=()))  # lone surrogates and control characters too
    | st.sampled_from(['"', "\\", '\\"', "\u00e9\u2028\U0001f600", "\ud800", "\x00\x1f\x7f"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), inner),
    max_leaves=30,
)


# every README "JSON schemas" shape, a whole report with its wall_ms
# floats, and a type json refuses too
@given(_JSON_VALUES)
@example({"element": _ELEMENT})
@example({"kind": "NoSolution", "element": None})
@example({"kind": "UpSet", "element": _ELEMENT})
@example({"leq": True, "oracle": False})
@example({"member": False})
@example({"base": _ELEMENT, "window": [-2, 2], "members": [_ELEMENT, _ELEMENT]})
@example({"base": _ELEMENT, "window": [0, 0], "members": []})
@example({k: _ELEMENT for k in ("seed", "target", "right_translator", "intermediate", "left_translator")})
@example({"not_applicable": False, "anchor": "0", "points": 1, "certificates": [
    {"point": _ELEMENT, "side": "left", "product": _ELEMENT, "excluded_region": "below"}]})
@example({"not_applicable": True, "reason": "densely ordered carrier", "density_witnesses": 3})
@example({"value": "-3/4"})
@example({"ok": True, "pairs": 81, "points": 3})
@example({"result_error": "the result holds an integer longer than 4300 digits", "digit_limit": 4300})
@example(run_suites(SuiteConfig(group="Z", window=1)).to_json())
@example({"checks": [{"wall_ms": 0.5}], "window": (1, {}), "x": Fraction(1, 2)})
def test_json_text_matches_json_dumps(value):
    try:
        expected = json.JSONEncoder(sort_keys=True, indent=2).encode(value)
    except TypeError:
        with pytest.raises(TypeError):
            cli._json_text(value)
    else:
        assert cli._json_text(value) == expected


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--group", "Nope", "[1|1]", "[1|1]"])
    assert exc.value.code == 2


def test_parser_is_built_once(monkeypatch, capsys):
    # counts parser objects, not time: one parser tree is 12 of them
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    main(["mul", "[1|2]", "[3|4]"])
    main(["leq", "--s", "[3|5]", "--t", "[1|3]"])
    with pytest.raises(SystemExit):
        main(["mul", "--group", "Nope", "[1|1]", "[1|1]"])
    main(["inv", "[3|5]"])
    main(["check", "--suites", "ideals", "--window", "1"])
    capsys.readouterr()
    assert len(built) <= 12


def test_shared_parser_keeps_no_state(capsys):
    with pytest.raises(SystemExit):
        main(["upset", "--window"])
    assert run(capsys, "upset", "--base", "[2|3]", "--window", "2")[0] == 0
    code, out, _ = run(capsys, "upset", "--base", "[2|3]", "--output", "json")
    assert code == 0 and json.loads(out)["window"] == [-4, 4]
    first = run(capsys, "mul", "[1|2]", "[3|4]")
    assert run(capsys, "mul", "[1|2]", "[3|4]") == first


_EXACT_LINES = [
    ["mul", "--group", "ZxZ", "[(0,0)|(0,1)]", "[(1,0)|(2,3)]"],
    ["inv", "[3|5]"],
    ["leq", "--s", "[3|5]", "--t", "[1|3]"],
    ["solve", "--target", "[1|2]", "--side", "sandwich", "--leftk", "[1|5]", "--rightk", "[7|2]"],
    ["ideal", "--element", "[3|1]", "--anchor", "2", "--side", "right", "--bplus"],
    ["upset", "--base", "[2|3]", "--window", "4"],
    ["pmap", "apply", "--group", "Z", "--g", "2", "--h", "5", "--x", "3"],
    ["witness", "--group", "Z", "--seed", "[0|0]", "--target", "[-3|7]"],
    ["escape", "--group", "Z", "--a", "0", "--window", "4"],
    ["check", "--group", "Z", "--window", "3", "--suites", "all", "--sample-seed", "5"],
    # an option after the positionals or between options, a repeat (the
    # last wins), a positional between options
    ["inv", "[3|5]", "--output", "json"], ["leq", "--s", "[3|5]", "--t", "[1|3]", "--s", "[1|1]"],
    ["pmap", "apply", "--g", "2", "--h", "5", "--x", "3"], ["pmap", "--g", "2", "apply", "--h", "5"],
    ["check", "--suites", "ideals", "--sample-seed", "3"],
    # the two shapes of the benchmark's CLI requests
    ["mul", "--group", "Q", "--output", "json", "[-1/2|3]", "[7/3|-4]"],
    ["leq", "--group", "H3", "--output", "json",
     "--s", f"[(1,{'9' * 40},-3)|(0,2,5)]", "--t", "[(-4,0,7)|(2,-1,0)]"],
]


def test_each_command_line_is_parsed_once(monkeypatch, capsys):
    # counts argparse passes, not time: a line of exact tokens is read by
    # its command's table with no pass, any other line by parse_args alone
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(["mul", "[1|2]", "[3|4]"]) == 0
    assert main(["leq", "--s", "[3|5]", "--t", "[1|3]"]) == 0
    assert passes == []
    assert main(["leq", "--s=[3|5]", "--t", "[1|3]"]) == 0
    assert passes == ["bicext", "bicext leq"]
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--group", "Nope", "[1|1]", "[1|1]"])
    assert exc.value.code == 2
    # a line in exact tokens takes no pass on any command; every line the
    # table declines takes exactly the passes of parse_args
    for argv in _EXACT_LINES:
        del passes[:]
        _parse_command_line(argv)
        assert passes == [], argv
    for argv in _PARSER_EDGES:
        del passes[:]
        _parse_outcome(cli._parsers()[0].parse_args, argv)
        expected = passes[:]
        del passes[:]
        _parse_outcome(_parse_command_line, argv)
        assert passes == expected != [], argv
    capsys.readouterr()


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    # the installed `bicext` script calls main() with no argument
    scripts = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert scripts["project"]["scripts"] == {"bicext": "bicext.cli:main"}
    expected = run(capsys, "mul", "[1|2]", "[3|4]")
    monkeypatch.setattr(sys, "argv", ["bicext", "mul", "[1|2]", "[3|4]"])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected == (0, "[2|4]\n", "")
    monkeypatch.setattr(sys, "argv", ["bicext"])
    with pytest.raises(SystemExit) as exc:
        main()
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(cli._parsers()[0].format_usage())
    assert err.endswith("bicext: error: the following arguments are required: command\n")


_SRC = str(Path(bicext.__file__).resolve().parents[1])


def _python(args, unbuffered=True):
    """Start a fresh interpreter that imports this checkout's ``bicext``,
    with standard output and error piped."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_importing_bicext_loads_neither_dataclasses_nor_inspect():
    # a one-shot query is a fresh process, so its import time is its latency
    code = ("import sys; before = set(sys.modules); import bicext, bicext.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = _python(["-c", code])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, "[]\n", "")


# one README line for each one-shot command that answers from the library
_ONE_SHOT_LINES = [
    ["mul", "--group", "ZxZ", "[(0,0)|(0,1)]", "[(1,0)|(2,3)]"],
    ["leq", "--s", "[3|5]", "--t", "[1|3]"],
    ["solve", "--group", "Z", "--target", "[5|2]", "--known", "[3|4]", "--side", "right"],
    ["upset", "--base", "[2|3]", "--window", "4"],
    ["escape", "--group", "Z", "--a", "0", "--window", "4"],
    ["pmap", "apply", "--group", "Z", "--g", "2", "--h", "5", "--x", "3"],
]


def test_one_shot_queries_run_without_loading_the_suites():
    # a command compiles only the modules whose names it reads: the bicext
    # modules that each line adds, the lines run in order in one process,
    # and only the check loads the suite runner
    lines = [*_ONE_SHOT_LINES, ["check", "--window", "1", "--suites", "axioms"]]
    code = f"""
import contextlib, io, sys
loaded = lambda: {{m[7:] for m in sys.modules if m.startswith("bicext.")}}
import bicext.cli
steps = [("import", 0, sorted(loaded()))]
for argv in {lines!r}:
    before = loaded()
    with contextlib.redirect_stdout(io.StringIO()):
        code = bicext.cli.main(argv)
    steps.append((argv[0], code, sorted(loaded() - before)))
print(steps)
"""
    proc = _python(["-c", code])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    assert ast.literal_eval(out) == [
        ("import", 0, ["cli"]),
        ("mul", 0, ["errors", "literals", "ogroups", "pairs", "records"]),
        ("leq", 0, ["natorder"]),
        ("solve", 0, []),
        ("upset", 0, []),
        ("escape", 0, ["certificates"]),
        ("pmap", 0, ["shifts"]),
        ("check", 0, ["suites"]),
    ]


def test_a_name_loads_only_the_modules_that_define_it():
    code = ("import sys; loaded = lambda: sorted(m for m in sys.modules if m.startswith('bicext')); "
            "import bicext; print(loaded()); from bicext import BElement, Z; print(loaded()); "
            "from bicext import nat_leq; print(loaded())")
    proc = _python(["-c", code])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    assert out.splitlines() == [
        "['bicext']",
        "['bicext', 'bicext.errors', 'bicext.ogroups', 'bicext.pairs', 'bicext.records']",
        # the order and its solvers render through pairs, not the literal parser
        "['bicext', 'bicext.errors', 'bicext.natorder', 'bicext.ogroups', 'bicext.pairs', "
        "'bicext.records']",
    ]


def test_public_surface_resolves_every_name_in_all():
    for name in bicext.__all__:
        # the very object its defining module binds, not a copy or a re-export
        value = getattr(bicext, name)
        home = sys.modules[f"bicext.{bicext._MODULE_OF[name]}"]
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    star: dict = {}
    exec("from bicext import *", star)
    assert set(bicext.__all__) <= star.keys()
    assert (star["run_suites"], star["SuiteConfig"], star["SuiteReport"]) == (
        run_suites, SuiteConfig, SuiteReport)
    with pytest.raises(AttributeError) as raised:
        bicext.no_such_name
    assert str(raised.value) == "module 'bicext' has no attribute 'no_such_name'"


def test_dir_lists_all_of_all_before_the_suites_load():
    code = ("import sys, bicext; "
            "print(set(bicext.__all__) <= set(dir(bicext)), 'bicext.suites' in sys.modules)")
    proc = _python(["-c", code])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, "True False\n", "")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["mul", "[1|2]", "[3|4]"], ["check", "--window", "1", "--output", "json"]],
    ids=["mul", "check"],
)
def test_a_reader_that_closes_early_gets_exit_2_and_no_traceback(argv, unbuffered):
    # the reader is gone before the answer is written, so every write of it
    # meets a closed pipe, in the print itself or in the final flush
    proc = _python(["-m", "bicext.cli", *argv], unbuffered)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, "")


# argparse drops the "--" of a value given as --opt=-- and stores [], which
# must be refused as a value-less option is, never reach a command
_DASHDASH_VALUES = [
    ("--target", ["solve", "--target=--", "--known=[1|2]"]),
    ("--s", ["leq", "--s=--", "--t", "[1|3]"]),
    ("--window", ["upset", "--base", "[1|2]", "--window=--"]),
    ("--group", ["leq", "--group=--", "--s", "[1|2]", "--t", "[1|3]"]),
    ("--suites", ["check", "--window", "1", "--suites=--"]),
    ("--side", ["solve", "--side=--", "--target", "[1|2]", "--known", "[1|3]"]),
    ("--sample-seed", ["check", "--window", "1", "--suites", "axioms", "--sample-seed=--"]),
    ("--output", ["mul", "[1|2]", "[3|4]", "--output=--"]),
]


@pytest.mark.parametrize("option, argv", _DASHDASH_VALUES, ids=[o for o, _ in _DASHDASH_VALUES])
def test_an_option_given_as_equals_dashdash_is_a_usage_error(option, argv):
    proc = _python(["-m", "bicext.cli", *argv])
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, "")
    assert err.endswith(f"bicext {argv[0]}: error: argument {option}: expected one argument\n")
    assert "Traceback" not in err


_NOISE = st.text("[]|(),/-+ 0123456789x", max_size=10)
_PAYLOAD = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.fractions(max_denominator=50).map(str),
    st.lists(st.integers(-99, 99), min_size=1, max_size=4).map(
        lambda v: "(" + ",".join(map(str, v)) + ")"
    ),
    _NOISE,
)
_PAIR = st.one_of(st.tuples(_PAYLOAD, _PAYLOAD).map(lambda p: f"[{p[0]}|{p[1]}]"), _NOISE)
_WINDOW = st.one_of(st.integers(-2, 5), st.integers(-10**12, 10**12))
# well-formed payloads per carrier, so the window commands reach their work
_INT = st.integers(-9, 9)
_VALID_PAYLOAD = {
    "Z": _INT.map(str),
    "Q": st.fractions(max_denominator=9).map(str),
    "ZxZ": st.tuples(_INT, _INT).map(lambda v: "({},{})".format(*v)),
    "H3": st.tuples(_INT, _INT, _INT).map(lambda v: "({},{},{})".format(*v)),
}


@st.composite
def _literal_argv(draw):
    """A bounded-work command with random literals in every literal slot; the
    window commands get a random window and well-formed literals."""
    group = draw(st.sampled_from(["Z", "Q", "ZxZ", "H3"]))
    common = ["--group", group, "--output", draw(st.sampled_from(["text", "json"]))]
    bplus = ["--bplus"] if draw(st.booleans()) else []
    # two draws, so the three window commands are not crowded out by the seven others
    cmd = draw(st.one_of(
        st.sampled_from(["mul", "inv", "leq", "solve", "ideal", "witness", "pmap"]),
        st.sampled_from(["upset", "escape", "compose"]),
    ))
    if cmd == "mul":
        return ["mul", *common, draw(_PAIR), draw(_PAIR)]
    if cmd == "inv":
        return ["inv", *common, draw(_PAIR)]
    if cmd == "leq":
        return ["leq", *common, f"--s={draw(_PAIR)}", f"--t={draw(_PAIR)}"]
    if cmd == "solve":
        side = draw(st.sampled_from(["left", "right", "sandwich"]))
        if side == "sandwich":
            known = [f"--leftk={draw(_PAIR)}", f"--rightk={draw(_PAIR)}"]
        else:
            known = [f"--known={draw(_PAIR)}"]
        return ["solve", *common, f"--target={draw(_PAIR)}", f"--side={side}", *known, *bplus]
    if cmd == "ideal":
        side = draw(st.sampled_from(["left", "right"]))
        anchor = f"--anchor={draw(_PAYLOAD)}"
        return ["ideal", *common, f"--element={draw(_PAIR)}", anchor, f"--side={side}", *bplus]
    if cmd == "witness":
        return ["witness", *common, f"--seed={draw(_PAIR)}", f"--target={draw(_PAIR)}"]
    if cmd == "pmap":
        shift = [f"--g={draw(_PAYLOAD)}", f"--h={draw(_PAYLOAD)}", f"--x={draw(_PAYLOAD)}"]
        return ["pmap", "apply", *common, *shift]
    window = f"--window={draw(_WINDOW)}"
    payload = _VALID_PAYLOAD[group]
    if cmd == "upset":
        base = f"--base=[{draw(payload)}|{draw(payload)}]"
        return ["upset", *common, window, base, *bplus]
    if cmd == "escape":
        return ["escape", *common, window, f"--a={draw(payload)}"]
    return ["pmap", "check-compose", *common, window]


@settings(max_examples=300, deadline=None)
@given(_literal_argv())
@example(["mul", "[" + "9" * 5000 + "|0]", "[1|1]"])
@example(["solve", "--group", "Q", "--target=[1/0|1]", "--known=[1|1]"])
def test_exit_code_contract_on_random_literals(argv):
    _assert_exit_code_contract(argv)


def _parse_outcome(parse, argv):
    """What parsing ``argv`` gives: the namespace without ``command``, or the
    exit code; with what it printed either way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parse(list(argv)))
        except SystemExit as exc:
            parsed = exc.code
    if isinstance(parsed, dict):
        parsed.pop("command", None)
    return parsed, out.getvalue(), err.getvalue()


# lines the exact-token table must decline, so parse_args answers them:
# help and usage errors, option abbreviations, `--`, leftover strings,
# bad choices and values starting with "-"
_PARSER_EDGES = [
    [], ["-h"], ["--help"], ["--"], ["nope"], ["MUL", "[1|2]", "[3|4]"], ["-x", "mul"],
    ["--group", "Z", "mul", "[1|2]", "[3|4]"], ["--", "mul", "[1|2]", "[3|4]"],
    ["mul"], ["mul", "-h"], ["mul", "--he"], ["mul", "--help=foo"], ["mul", "-h", "extra"],
    ["mul", "[1|2]", "--", "[3|4]"], ["mul", "--", "--", "[1|2]"], ["mul", "[1|2]", "[3|4]", "extra"],
    ["mul", "[1|2]", "[3|4]", "--x", "1", "-y"], ["mul", "--group", "Nope", "[1|1]", "[1|1]"],
    ["mul", "--gr", "ZxZ", "[(0,0)|(0,1)]", "[(1,0)|(2,3)]"], ["mul", "--output", "xml", "[1|2]", "[3|4]"],
    ["mul", "[1|2]", "[3|4]", "--window=abc"],
    ["upset", "--window"], ["upset", "--base", "[2|3]", "--window", "2", "--", "x"],
    ["leq", "--s=[3|5]", "--t", "[1|3]"], ["leq", "--s=[3|5]"],
    ["pmap", "bogus"], ["solve", "--side", "up", "--target", "[1|2]"],
    # argparse reads -3 as a value, since no option looks like a negative
    # number, but refuses -3/4; the table leaves both to argparse
    ["ideal", "--element", "[3|1]", "--anchor", "-3"],
    ["ideal", "--element", "[3|1]", "--anchor", "-3/4"],
    ["mul", "[1|2]", "--group", "Z", "[3|4]"],
    ["leq", "--s", "[3|5]"], ["upset", "--base", "[2|3]", "--window", "abc"],
]


@pytest.mark.parametrize("argv", _PARSER_EDGES + _EXACT_LINES, ids=" ".join)
def test_one_pass_parse_matches_parse_args(argv):
    _assert_parse_parity(argv)


@settings(max_examples=200, deadline=None)
@given(_literal_argv())
def test_one_pass_parse_matches_parse_args_on_random_literals(argv):
    _assert_parse_parity(argv)


_COMMON_OPTIONS = ["--group", "--output"]
# each command's own value options, then how many positionals it takes
_COMMAND_OPTIONS = {
    "mul": ([], 2), "inv": ([], 1), "leq": (["--s", "--t"], 0),
    "solve": (["--target", "--known", "--side", "--leftk", "--rightk"], 0),
    "ideal": (["--element", "--anchor", "--side"], 0), "upset": (["--window", "--base"], 0),
    "pmap": (["--window", "--g", "--h", "--x"], 1), "witness": (["--seed", "--target"], 0),
    "escape": (["--window", "--a"], 0), "check": (["--window", "--sample-seed", "--suites"], 0),
}
# flags, which take no value
_COMMAND_FLAGS = {"solve": ["--bplus"], "ideal": ["--bplus"], "upset": ["--bplus"]}


def test_each_command_takes_only_the_options_it_reads():
    # every option a command accepts is one it reads: --window and
    # --sample-seed are refused where nothing reads them
    _, commands, tables = cli._parsers()
    assert sorted(commands) == sorted(_COMMAND_OPTIONS)
    for name, p in commands.items():
        own = _COMMAND_OPTIONS[name][0] + _COMMAND_FLAGS.get(name, [])
        strings = {s for a in p._actions for s in a.option_strings}
        assert strings == {"-h", "--help", *_COMMON_OPTIONS, *own}, name
        assert set(tables[name][0]) == strings - {"-h", "--help"}, name


@pytest.mark.parametrize("argv", _EXACT_LINES[:10], ids=lambda argv: argv[0])
def test_an_option_a_command_does_not_read_is_a_usage_error(capsys, argv):
    own = _COMMAND_OPTIONS[argv[0]][0]
    for flag in {"--window", "--sample-seed"} - set(own):
        refused = cli._parsers()[0].format_usage() + f"bicext: error: unrecognized arguments: {flag} 1\n"
        for parse in (cli._parsers()[0].parse_args, _parse_command_line):
            assert _parse_outcome(parse, argv + [flag, "1"]) == (2, "", refused)
        # before the command's own strings, the value may be read as a
        # positional, so only the exit code is pinned
        with pytest.raises(SystemExit) as exc:
            main([argv[0], flag, "1", *argv[1:]])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


_GOOD_VALUE = {
    "--group": st.sampled_from(sorted(GROUPS)),
    "--output": st.sampled_from(["text", "json"]),
    "--window": st.integers(-3, 9).map(str),
    "--sample-seed": st.integers().map(str),
    "--side": st.sampled_from(["left", "right", "sandwich"]),
    "--suites": st.sampled_from(["all", "ideals", "axioms,order"]),
    "--anchor": _PAYLOAD, "--g": _PAYLOAD, "--h": _PAYLOAD, "--x": _PAYLOAD, "--a": _PAYLOAD,
}
# values argparse refuses or reads in its own way: bad choices and ints,
# strings starting with '-', empty strings and option names
_ODD_VALUE = st.sampled_from([
    "Nope", "xml", "up", "bogus", "abc", "3.5", "", " 7 ", "1_0", "٣",
    "-3", "-3/4", "-", "--", "-h", "--help", "--s", "--group", "--bplus",
])


@st.composite
def _exact_argv(draw):
    """A command line in exact option strings with separate values, in
    random order: mostly lines the exact-token table reads, and each way
    it declines one (a value starting with '-', a missing required option,
    extra, missing or interleaved positionals, a bad int or choice)."""
    name = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    own, count = _COMMAND_OPTIONS[name]
    # each option of the command is given five times in six, then repeats
    # and options of other commands, --bplus and --window included, may join them
    chosen = [o for o in own if draw(st.integers(0, 5))]
    chosen += draw(st.lists(st.sampled_from(_COMMON_OPTIONS + own + ["--bplus", "--s", "--window"]),
                            max_size=4))
    groups = []
    for option in draw(st.permutations(chosen)):
        if option == "--bplus":
            groups.append([option])
            continue
        odd = draw(st.integers(0, 5)) == 0
        groups.append([option, draw(_ODD_VALUE if odd else _GOOD_VALUE.get(option, _PAIR))])
    count += draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    value = st.sampled_from(["apply", "check-compose", "bogus"]) if name == "pmap" else _PAIR
    positionals = [draw(st.one_of(value, _ODD_VALUE) if draw(st.integers(0, 9)) == 0 else value)
                   for _ in range(max(count, 0))]
    if draw(st.booleans()):  # one run in one place
        groups.insert(draw(st.integers(0, len(groups))), positionals)
    else:  # each in its own place, so they may be interleaved with options
        for p in positionals:
            groups.insert(draw(st.integers(0, len(groups))), [p])
    return [name] + [s for g in groups for s in g]


@settings(max_examples=300, deadline=None)
@given(_exact_argv())
def test_exact_token_parse_matches_parse_args(argv):
    _assert_parse_parity(argv)


def _assert_parse_parity(argv):
    expected = _parse_outcome(cli._parsers()[0].parse_args, argv)
    assert _parse_outcome(_parse_command_line, argv) == expected


def _assert_exit_code_contract(argv):
    # 0 success, 1 failed check, 2 usage error; never an uncaught exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_UNKNOWN_SUITE = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(
    lambda name: name not in SUITES and name != "all"
)


# windows above 1 are left out: an H3 run of every suite already takes
# about 1.4 s at window 1, and the test must stay a few seconds long
@settings(max_examples=20, deadline=None)
@given(
    group=st.sampled_from(sorted(GROUPS)),
    window=st.integers(-2, 1),
    suites=st.one_of(st.sampled_from(sorted(SUITES)), _UNKNOWN_SUITE, st.just("")),
    seed=st.integers(),
)
def test_exit_code_contract_on_check(group, window, suites, seed):
    _assert_exit_code_contract([
        "check", "--group", group, f"--window={window}", f"--suites={suites}",
        f"--sample-seed={seed}",
    ])
