"""Command-line interface: algebra queries, certificate construction, and
the property-suite runner.

Exit codes: 0 for success (including not-applicable verdicts), 1 when a
suite or composition check fails, 2 for usage errors (bad flags, bad
literals, operations invoked outside their stated domain), for results
too long to render, and for answers cut short because standard output
was closed.  ``--output json`` answers are schema-stable, in the bytes
``json.dumps(payload, sort_keys=True, indent=2)`` writes; one emitter,
``_json_text``, writes them all, and the property test
``tests/test_cli.py::test_json_text_matches_json_dumps`` holds it to
those bytes.  Text output is for reading.

A command name followed only by exact tokens (see ``_parse_exact``) is
read by that command's table, with no argparse pass; every other line
goes to ``parse_args``.  Parsers and tables are built once, on the first
``main`` call; see ``_parsers``.  Each answer is built only in the form
``--output`` asks for, and written in one write.  Pair literals go to
``parse_pair``, which builds a well-formed literal's pair unchecked: its
pattern admits only carrier members (see ``literals``).

Every library name is read as ``bicext.<name>``, through the package's
name table, so a command compiles only the modules whose names it
reads: ``import bicext.cli`` loads no other ``bicext`` module, ``mul``
loads the pair and literal modules, and only ``check`` loads the suite
runner.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

import bicext

# most a window command may handle: the window elements `upset` walks or
# `check` builds (H3 at window 10 has 9,261), the window pairs `escape`
# covers (ZxZ at window 4 has 6,561), or the shift pairs
# `pmap check-compose` sweeps (ZxZ at window 1 needs 6,561)
WINDOW_BUDGET = 10_000


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, newline: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it,
    byte for byte, for dicts with str keys, lists, tuples, str, int, float,
    bool and None; any other type is a TypeError.  ``indent`` sends json
    to its pure-Python encoder, so every answer is written here instead,
    quoting strings with json's own C function.  ``newline`` is the line
    break and indent that close ``value``'s own level."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [_quote(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(output: str, payload, text):
    """Write the answer in the ``output`` form and its newline in one write
    (``print`` makes two): ``payload`` and ``text`` are callables building
    the JSON object and the text, and only the one written is called."""
    sys.stdout.write((_json_text(payload()) if output == "json" else text()) + "\n")


def _refuse_window(command: str, window: int, work: str) -> int:
    """Report a window whose ``work`` is over WINDOW_BUDGET; the exit code is 2."""
    print(f"{command} at window {window} would {work}, over the budget of {WINDOW_BUDGET}; "
          "use a smaller --window", file=sys.stderr)
    return 2


def _window_elements(group, window: int) -> int:
    """Window elements, counted from the 2w+1 integers of each coordinate
    before any element is built; on Q their square bounds the sample grid
    too.  A negative window counts as empty: the library rejects it."""
    return (2 * max(window, 0) + 1) ** group.payload_arity


def _cmd_mul(args, group) -> int:
    s = bicext.parse_pair(args.elements[0], group)
    t = bicext.parse_pair(args.elements[1], group)
    result = s * t
    _emit(args.output, lambda: {"element": bicext.pair_to_json(result)}, result.__str__)
    return 0


def _cmd_inv(args, group) -> int:
    s = bicext.parse_pair(args.element, group)
    result = s.inverse()
    _emit(args.output, lambda: {"element": bicext.pair_to_json(result)}, result.__str__)
    return 0


def _cmd_leq(args, group) -> int:
    s = bicext.parse_pair(args.s, group)
    t = bicext.parse_pair(args.t, group)
    verdict = bicext.nat_leq(s, t)
    oracle = bicext.nat_leq_oracle(s, t)
    _emit(
        args.output,
        lambda: {"leq": verdict, "oracle": oracle},
        lambda: f"{s} below {t}: {verdict} (oracle agrees: {oracle == verdict})",
    )
    return 0


def _cmd_solve(args, group) -> int:
    target = bicext.parse_pair(args.target, group)
    if args.side == "sandwich":
        if not (args.leftk and args.rightk):
            print("solve --side sandwich needs --leftk and --rightk", file=sys.stderr)
            return 2
        leftk = bicext.parse_pair(args.leftk, group)
        rightk = bicext.parse_pair(args.rightk, group)
        sol = bicext.solve_sandwich(target, leftk, rightk, bplus=args.bplus)
    else:
        if not args.known:
            print("solve needs --known", file=sys.stderr)
            return 2
        known = bicext.parse_pair(args.known, group)
        solver = bicext.solve_right if args.side == "right" else bicext.solve_left
        sol = solver(target, known, bplus=args.bplus)
    _emit(
        args.output,
        sol.to_json,
        lambda: sol.kind.value if sol.element is None else f"{sol.kind.value} {sol.element}",
    )
    return 0


def _cmd_ideal(args, group) -> int:
    s = bicext.parse_pair(args.element, group)
    anchor = bicext.parse_payload(args.anchor, group)
    member = bicext.ideal_member(s, anchor, args.side, bplus=args.bplus)
    _emit(
        args.output,
        lambda: {"member": member},
        lambda: f"{s} in the {args.side} ideal of [{group.render(anchor)}|{group.render(anchor)}]: {member}",
    )
    return 0


def _cmd_upset(args, group) -> int:
    base = bicext.parse_pair(args.base, group)
    elems = _window_elements(group, args.window)
    # on Q the library answers not-applicable without building a window
    if group.enumerable and elems > WINDOW_BUDGET:
        return _refuse_window("upset", args.window, f"walk {elems} window elements")
    members = bicext.up_set_window(base, args.window, bplus=args.bplus)
    _emit(
        args.output,
        lambda: {
            "base": bicext.pair_to_json(base),
            "window": [-args.window, args.window],
            "members": [bicext.pair_to_json(m) for m in members],
        },
        lambda: "\n".join(str(m) for m in members) or "(empty)",
    )
    return 0


def _cmd_pmap(args, group) -> int:
    if args.action == "apply":
        if not (args.g and args.h and args.x):
            print("pmap apply needs --g, --h and --x", file=sys.stderr)
            return 2
        shift = bicext.PartialShift(
            group,
            bicext.parse_payload(args.g, group),
            bicext.parse_payload(args.h, group),
        )
        value = shift.apply(bicext.parse_payload(args.x, group))
        _emit(args.output, lambda: {"value": group.render(value)}, lambda: group.render(value))
        return 0
    # check-compose: every anchor-pair combination over the window,
    # evaluated pointwise on window sample points.  A window holds at least
    # its 2w+1 integers, so a wide one is refused on that count before any
    # element is built.
    n = 2 * args.window + 1
    if n**4 <= WINDOW_BUDGET:
        elems = group.window(args.window)
        n = len(elems)
    if n**4 > WINDOW_BUDGET:
        work = f"sweep at least {n**4} shift pairs"
        return _refuse_window("pmap check-compose", args.window, work)
    points = elems if group.enumerable else group.window(2 * args.window)
    shifts = [bicext.PartialShift(group, a, b) for a in elems for b in elems]
    checked = 0
    for m1 in shifts:
        for m2 in shifts:
            checked += 1
            if not bicext.compose_pointwise_oracle(m1, m2, points):
                _emit(
                    args.output,
                    lambda: {"ok": False, "pairs": checked, "points": len(points)},
                    lambda: f"FAIL: composition of {m1} then {m2} disagrees pointwise",
                )
                return 1
    _emit(
        args.output,
        lambda: {"ok": True, "pairs": checked, "points": len(points)},
        lambda: f"ok: {checked} composite pairs agree on {len(points)} sample points",
    )
    return 0


def _cmd_witness(args, group) -> int:
    seed = bicext.parse_pair(args.seed, group)
    target = bicext.parse_pair(args.target, group)
    chain = bicext.build_witness_chain(seed, target)
    _emit(
        args.output,
        lambda: {
            "seed": bicext.pair_to_json(chain.seed),
            "target": bicext.pair_to_json(chain.target),
            "right_translator": bicext.pair_to_json(chain.right_translator),
            "intermediate": bicext.pair_to_json(chain.intermediate),
            "left_translator": bicext.pair_to_json(chain.left_translator),
        },
        lambda: (
            f"seed {chain.seed} -> target {chain.target}\n"
            f"  step one: {chain.intermediate} * {chain.right_translator} = {chain.seed}"
            f" (unique)\n"
            f"  step two: {chain.left_translator} * {chain.target} = {chain.intermediate}"
            f" (unique)"
        ),
    )
    return 0


def _cmd_escape(args, group) -> int:
    anchor = bicext.parse_payload(args.a, group)
    idem = bicext.BElement(group, anchor, anchor)
    pairs = _window_elements(group, args.window) ** 2
    if pairs > WINDOW_BUDGET:
        return _refuse_window("escape", args.window, f"cover {pairs} window pairs")
    if group.densely_ordered:
        verdict = bicext.density_probe(group, group.window(args.window))
        _emit(
            args.output,
            lambda: {
                "not_applicable": True,
                "reason": "densely ordered carrier",
                "density_witnesses": len(verdict.witnesses),
            },
            lambda: "not applicable: the order is dense "
            f"({len(verdict.witnesses)} strictly-smaller-positive witnesses found)",
        )
        return 0
    certs = [
        bicext.escape_certificate(idem, bicext.BElement(group, x, y))
        for x, y in bicext.escape_region(group, anchor, args.window)
    ]
    _emit(
        args.output,
        lambda: {
            "not_applicable": False,
            "anchor": group.render(anchor),
            "points": len(certs),
            "certificates": [
                {
                    "point": bicext.pair_to_json(c.point),
                    "side": c.side,
                    "product": bicext.pair_to_json(c.product),
                    "excluded_region": c.excluded_region.value,
                }
                for c in certs
            ],
        },
        lambda: "\n".join(
            f"{c.point} --{c.side}--> {c.product} in {c.excluded_region.value}"
            for c in certs
        ) or "(no region points in window)",
    )
    return 0


def _cmd_check(args, group) -> int:
    # an empty name is refused, not dropped: a list of empty names would
    # otherwise reach the runner as no names, which selects every suite
    suites = () if args.suites in ("all", "") else tuple(s.strip() for s in args.suites.split(","))
    if "" in suites:
        _parsers()[1]["check"].error(f"argument --suites: empty suite name in {args.suites!r}")
    elems = _window_elements(group, args.window)
    if not group.enumerable:
        elems **= 2  # bounds Q's grid, as in `escape`
    if elems > WINDOW_BUDGET:
        return _refuse_window("check", args.window, f"build {elems} window elements")
    cfg = bicext.SuiteConfig(
        group=args.group,
        window=args.window,
        sample_seed=args.sample_seed,
        suites=suites,
    )
    report = bicext.run_suites(cfg)
    _emit(args.output, report.to_json, report.to_text)
    return 0 if report.ok else 1


def _exact_table(command: argparse.ArgumentParser, actions: list) -> tuple:
    """What ``_parse_exact`` needs of ``command``, read from public attributes
    of the actions ``add_argument`` returned: each option string's action,
    the positional (at most one, of a fixed count), the set of required
    options, and the namespace of a line that gives no option (each
    default is already of its option's type)."""
    options = {s: a for a in actions for s in a.option_strings}
    positional = next((a for a in actions if not a.option_strings), None)
    defaults = {a.dest: a.default for a in actions}
    defaults["fn"] = command.get_default("fn")  # the one set_defaults key
    return options, positional, frozenset(a for a in options.values() if a.required), defaults


def _exact_value(action: argparse.Action, text: str):
    """``text`` converted and checked as argparse would for ``action``; None
    where argparse would refuse it or read it as an option string."""
    if text.startswith("-"):
        return None
    try:
        value = text if action.type is None else action.type(text)
    except (TypeError, ValueError):
        return None
    return value if action.choices is None or value in action.choices else None


def _parse_exact(table: tuple, strings: list) -> Optional[argparse.Namespace]:
    """The namespace of a command's ``strings`` when they are exact tokens;
    None for any other line, which argparse then answers.

    Exact tokens: every string is an exact option string (followed by its
    value unless it is a flag) or a positional; no value starts with ``-``;
    the positionals form one contiguous run of the right count; every value
    converts and is among its choices; every required option is present.
    argparse reads such a line the same way, the last repeat winning.
    """
    options, positional, required, values = table
    get, values = options.get, dict(values)
    seen, run, i = set(), [], 0
    while i < len(strings):
        action = get(strings[i])
        if action is None:  # a positional; _exact_value refuses one starting with "-"
            run.append(i)
        elif action.nargs == 0:
            values[action.dest] = action.const
            seen.add(action)
        else:
            i += 1
            value = _exact_value(action, strings[i]) if i < len(strings) else None
            if value is None:
                return None
            values[action.dest] = value
            seen.add(action)
        i += 1
    count = 0 if positional is None else positional.nargs or 1
    if len(run) != count or run and run[-1] - run[0] != count - 1 or not required <= seen:
        return None
    if positional is not None:
        given = [_exact_value(positional, strings[j]) for j in run]
        if None in given:
            return None
        values[positional.dest] = given if positional.nargs else given[0]
    args = argparse.Namespace()  # Namespace(**values) would setattr each value
    args.__dict__.update(values)
    return args


@functools.cache
def _parsers() -> tuple:
    """The one shared ``bicext`` parser, its command parsers by name, and
    each command's exact-token table (see ``_exact_table``) by name.

    They are built on the first call, and every later call returns the
    same objects, so callers must not mutate them.  Reuse is safe because
    ``parse_args`` returns a fresh namespace, no action has a mutable
    default, and argparse looks up ``sys.stdout``/``sys.stderr`` when it
    prints, not when it is built.
    """
    # every command reads --group and --output; each other option is added
    # only to the commands that read it
    common = argparse.ArgumentParser(add_help=False)
    shared = [
        common.add_argument("--group", default="Z", choices=sorted(bicext.GROUPS)),
        common.add_argument("--output", default="text", choices=["text", "json"]),
    ]

    parser = argparse.ArgumentParser(
        prog="bicext",
        description="Exact pair semigroups over linearly ordered groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    actions = {}

    def add(p, *args, **kwargs):
        # p.add_argument, keeping the action it returns after the shared ones
        actions.setdefault(p, list(shared)).append(p.add_argument(*args, **kwargs))

    p = sub.add_parser("mul", parents=[common], help="multiply two pairs")
    add(p, "elements", nargs=2, metavar="PAIR")
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("inv", parents=[common], help="invert a pair")
    add(p, "element", metavar="PAIR")
    p.set_defaults(fn=_cmd_inv)

    p = sub.add_parser("leq", parents=[common], help="natural partial order test")
    add(p, "--s", required=True)
    add(p, "--t", required=True)
    p.set_defaults(fn=_cmd_leq)

    p = sub.add_parser("solve", parents=[common], help="solve a one-unknown equation")
    add(p, "--target", required=True)
    add(p, "--known")
    add(p, "--side", default="right", choices=["left", "right", "sandwich"])
    add(p, "--leftk")
    add(p, "--rightk")
    add(p, "--bplus", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("ideal", parents=[common], help="principal ideal membership")
    add(p, "--element", required=True)
    add(p, "--anchor", required=True)
    add(p, "--side", default="right", choices=["left", "right"])
    add(p, "--bplus", action="store_true")
    p.set_defaults(fn=_cmd_ideal)

    p = sub.add_parser("upset", parents=[common], help="window view of an up-set")
    add(p, "--window", type=int, default=4)
    add(p, "--base", required=True)
    add(p, "--bplus", action="store_true")
    p.set_defaults(fn=_cmd_upset)

    p = sub.add_parser("pmap", parents=[common], help="partial shift operations")
    add(p, "--window", type=int, default=4)  # read by check-compose
    add(p, "action", choices=["apply", "check-compose"])
    add(p, "--g", help="domain anchor literal")
    add(p, "--h", help="codomain anchor literal")
    add(p, "--x", help="evaluation point literal")
    p.set_defaults(fn=_cmd_pmap)

    p = sub.add_parser("witness", parents=[common], help="build an isolation chain")
    add(p, "--seed", required=True)
    add(p, "--target", required=True)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("escape", parents=[common], help="escape certificates for a region")
    add(p, "--window", type=int, default=4)
    add(p, "--a", required=True, help="idempotent anchor literal")
    p.set_defaults(fn=_cmd_escape)

    p = sub.add_parser("check", parents=[common], help="run the property suites")
    add(p, "--window", type=int, default=4)
    add(p, "--sample-seed", type=int, default=0, dest="sample_seed")
    add(p, "--suites", default="all")
    p.set_defaults(fn=_cmd_check)

    commands = sub.choices
    return parser, commands, {name: _exact_table(p, actions[p]) for name, p in commands.items()}


def _parse_command_line(argv: list) -> argparse.Namespace:
    """``_parsers()[0].parse_args(argv)``, apart from the namespace's
    ``command``, which only a ``parse_args`` namespace has: a command name
    followed only by exact tokens is read by that command's table with no
    argparse pass, and every other line by ``parse_args``."""
    parser, _, tables = _parsers()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _parse_exact(table, argv[1:])
    return parser.parse_args(argv) if args is None else args


def _exceeds_digit_limit(exc: ValueError) -> bool:
    """True when ``exc`` is the interpreter refusing to render an integer
    longer than its str-conversion digit limit; literals past that limit
    are parse errors already, so only a computed result gets here."""
    try:
        str(10 ** sys.get_int_max_str_digits())
    except ValueError as probe:
        return exc.args == probe.args
    return False


def main(argv: Optional[list] = None) -> int:
    try:
        try:
            return _answer(sys.argv[1:] if argv is None else argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output before the answer was written;
        # what is still buffered goes to the null device instead, so the
        # interpreter's final flush cannot raise too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def _answer(argv: list) -> int:
    args = _parse_command_line(argv)
    if hasattr(args, "command"):
        # parse_args reads an option given as --opt=-- as [] (it drops the
        # "--"), which no command reads, so that is refused as an option
        # given no value.  getattr, not vars(args): vars() moves the values
        # into a dict, which slows every later args.x read
        _, commands, tables = _parsers()
        for option, action in tables[args.command][0].items():
            if getattr(args, action.dest) == []:
                commands[args.command].error(f"argument {option}: expected one argument")
    try:
        return args.fn(args, bicext.GROUPS[args.group])
    except bicext.ParseError as exc:
        print(f"literal error: {exc}", file=sys.stderr)
        return 2
    except bicext.NotApplicable as exc:
        _emit(
            args.output,
            lambda: {"not_applicable": True, "reason": str(exc)},
            lambda: f"not applicable: {exc}",
        )
        return 0
    except bicext.BicextError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if not _exceeds_digit_limit(exc):
            print(f"invalid request: {exc}", file=sys.stderr)
            return 2
        limit = sys.get_int_max_str_digits()
        reason = f"the result holds an integer longer than {limit} digits, which cannot be rendered"
        if args.output == "json":
            print(_json_text({"result_error": reason, "digit_limit": limit}))
        else:
            print(f"result error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
