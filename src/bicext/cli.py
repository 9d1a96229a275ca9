"""Command-line interface: algebra queries, certificate construction, and
the property-suite runner.

Exit codes: 0 for success (including not-applicable verdicts), 1 when a
suite or composition check fails, 2 for usage errors (bad flags, bad
literals, operations invoked outside their stated domain) and for results
too long to render.  JSON output is schema-stable and sorted; text output
is for reading.

A command line is parsed in one argparse pass: its first string selects
the command's parser directly, and the top-level parser answers only help
and usage errors (no command, ``-h``, an unknown name, an option before
the command).  All parsers are built once, on the first ``main`` call, and
shared by every later call; see ``build_parser`` for why that is safe.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .certificates import build_witness_chain, density_probe, escape_certificate, escape_region
from .errors import BicextError, NotApplicable, ParseError
from .literals import pair_to_json, parse_pair, parse_payload
from .natorder import (
    ideal_member,
    nat_leq,
    nat_leq_oracle,
    solve_left,
    solve_right,
    solve_sandwich,
    up_set_window,
)
from .ogroups import GROUPS
from .pairs import BElement
from .shifts import PartialShift, compose_pointwise_oracle
from .suites import SuiteConfig, run_suites

# most a window command may handle: the window elements `upset` walks
# (H3 at window 10 has 9,261), the window pairs `escape` covers (ZxZ at
# window 4 has 6,561), or the shift pairs `pmap check-compose` sweeps
# (ZxZ at window 1 needs 6,561)
WINDOW_BUDGET = 10_000


def _emit(payload: dict, output: str, text: str):
    if output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _refuse_window(command: str, window: int, work: str) -> int:
    """Report a window whose ``work`` is over WINDOW_BUDGET; the exit code is 2."""
    print(
        f"{command} at window {window} would {work}, over the budget of {WINDOW_BUDGET}; "
        "use a smaller --window",
        file=sys.stderr,
    )
    return 2


def _window_elements(group, window: int) -> int:
    """Window elements, counted from the 2w+1 integers of each coordinate
    before any element is built; on Q their square bounds the sample grid
    too.  A negative window counts as empty: the library rejects it."""
    return (2 * max(window, 0) + 1) ** group.payload_arity


def _cmd_mul(args) -> int:
    group = GROUPS[args.group]
    s = parse_pair(args.elements[0], group)
    t = parse_pair(args.elements[1], group)
    result = s * t
    _emit({"element": pair_to_json(result)}, args.output, str(result))
    return 0


def _cmd_inv(args) -> int:
    group = GROUPS[args.group]
    s = parse_pair(args.element, group)
    result = s.inverse()
    _emit({"element": pair_to_json(result)}, args.output, str(result))
    return 0


def _cmd_leq(args) -> int:
    group = GROUPS[args.group]
    s = parse_pair(args.s, group)
    t = parse_pair(args.t, group)
    verdict = nat_leq(s, t)
    oracle = nat_leq_oracle(s, t)
    _emit(
        {"leq": verdict, "oracle": oracle},
        args.output,
        f"{s} below {t}: {verdict} (oracle agrees: {oracle == verdict})",
    )
    return 0


def _cmd_solve(args) -> int:
    group = GROUPS[args.group]
    target = parse_pair(args.target, group)
    if args.side == "sandwich":
        if not (args.leftk and args.rightk):
            print("solve --side sandwich needs --leftk and --rightk", file=sys.stderr)
            return 2
        leftk = parse_pair(args.leftk, group)
        rightk = parse_pair(args.rightk, group)
        sol = solve_sandwich(target, leftk, rightk, bplus=args.bplus)
    else:
        if not args.known:
            print("solve needs --known", file=sys.stderr)
            return 2
        known = parse_pair(args.known, group)
        solver = solve_right if args.side == "right" else solve_left
        sol = solver(target, known, bplus=args.bplus)
    text = sol.kind.value
    if sol.element is not None:
        text += f" {sol.element}"
    _emit(sol.to_json(), args.output, text)
    return 0


def _cmd_ideal(args) -> int:
    group = GROUPS[args.group]
    s = parse_pair(args.element, group)
    anchor = parse_payload(args.anchor, group)
    member = ideal_member(s, anchor, args.side, bplus=args.bplus)
    _emit(
        {"member": member},
        args.output,
        f"{s} in the {args.side} ideal of [{group.render(anchor)}|{group.render(anchor)}]: {member}",
    )
    return 0


def _cmd_upset(args) -> int:
    group = GROUPS[args.group]
    base = parse_pair(args.base, group)
    elems = _window_elements(group, args.window)
    # on Q the library answers not-applicable without building a window
    if group.enumerable and elems > WINDOW_BUDGET:
        return _refuse_window("upset", args.window, f"walk {elems} window elements")
    members = up_set_window(base, args.window, bplus=args.bplus)
    payload = {
        "base": pair_to_json(base),
        "window": [-args.window, args.window],
        "members": [pair_to_json(m) for m in members],
    }
    _emit(payload, args.output, "\n".join(str(m) for m in members) or "(empty)")
    return 0


def _cmd_pmap(args) -> int:
    group = GROUPS[args.group]
    if args.action == "apply":
        if not (args.g and args.h and args.x):
            print("pmap apply needs --g, --h and --x", file=sys.stderr)
            return 2
        shift = PartialShift(
            group,
            parse_payload(args.g, group),
            parse_payload(args.h, group),
        )
        value = shift.apply(parse_payload(args.x, group))
        _emit({"value": group.render(value)}, args.output, group.render(value))
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
    shifts = [PartialShift(group, a, b) for a in elems for b in elems]
    checked = 0
    for m1 in shifts:
        for m2 in shifts:
            checked += 1
            if not compose_pointwise_oracle(m1, m2, points):
                _emit(
                    {"ok": False, "pairs": checked, "points": len(points)},
                    args.output,
                    f"FAIL: composition of {m1} then {m2} disagrees pointwise",
                )
                return 1
    _emit(
        {"ok": True, "pairs": checked, "points": len(points)},
        args.output,
        f"ok: {checked} composite pairs agree on {len(points)} sample points",
    )
    return 0


def _cmd_witness(args) -> int:
    group = GROUPS[args.group]
    seed = parse_pair(args.seed, group)
    target = parse_pair(args.target, group)
    chain = build_witness_chain(seed, target)
    payload = {
        "seed": pair_to_json(chain.seed),
        "target": pair_to_json(chain.target),
        "right_translator": pair_to_json(chain.right_translator),
        "intermediate": pair_to_json(chain.intermediate),
        "left_translator": pair_to_json(chain.left_translator),
    }
    text = (
        f"seed {chain.seed} -> target {chain.target}\n"
        f"  step one: {chain.intermediate} * {chain.right_translator} = {chain.seed}"
        f" (unique)\n"
        f"  step two: {chain.left_translator} * {chain.target} = {chain.intermediate}"
        f" (unique)"
    )
    _emit(payload, args.output, text)
    return 0


def _cmd_escape(args) -> int:
    group = GROUPS[args.group]
    anchor = parse_payload(args.a, group)
    idem = BElement(group, anchor, anchor)
    pairs = _window_elements(group, args.window) ** 2
    if pairs > WINDOW_BUDGET:
        return _refuse_window("escape", args.window, f"cover {pairs} window pairs")
    if group.densely_ordered:
        verdict = density_probe(group, group.window(args.window))
        payload = {
            "not_applicable": True,
            "reason": "densely ordered carrier",
            "density_witnesses": len(verdict.witnesses),
        }
        _emit(
            payload,
            args.output,
            "not applicable: the order is dense "
            f"({len(verdict.witnesses)} strictly-smaller-positive witnesses found)",
        )
        return 0
    certs = [
        escape_certificate(idem, BElement(group, x, y))
        for x, y in escape_region(group, anchor, args.window)
    ]
    payload = {
        "not_applicable": False,
        "anchor": group.render(anchor),
        "points": len(certs),
        "certificates": [
            {
                "point": pair_to_json(c.point),
                "side": c.side,
                "product": pair_to_json(c.product),
                "excluded_region": c.excluded_region.value,
            }
            for c in certs
        ],
    }
    lines = [
        f"{c.point} --{c.side}--> {c.product} in {c.excluded_region.value}"
        for c in certs
    ]
    _emit(payload, args.output, "\n".join(lines) or "(no region points in window)")
    return 0


def _cmd_check(args) -> int:
    if args.suites in ("all", ""):
        suites: tuple = ()
    else:
        suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    cfg = SuiteConfig(
        group=args.group,
        window=args.window,
        sample_seed=args.sample_seed,
        suites=suites,
    )
    report = run_suites(cfg)
    _emit(report.to_json(), args.output, report.to_text())
    return 0 if report.ok else 1


@functools.cache
def _parsers() -> tuple:
    """The top-level parser and its command table, built once; see build_parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", default="Z", choices=sorted(GROUPS))
    common.add_argument("--output", default="text", choices=["text", "json"])
    common.add_argument("--window", type=int, default=4)
    common.add_argument("--sample-seed", type=int, default=0, dest="sample_seed")

    parser = argparse.ArgumentParser(
        prog="bicext",
        description="Exact pair semigroups over linearly ordered groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="multiply two pairs")
    p.add_argument("elements", nargs=2, metavar="PAIR")
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("inv", parents=[common], help="invert a pair")
    p.add_argument("element", metavar="PAIR")
    p.set_defaults(fn=_cmd_inv)

    p = sub.add_parser("leq", parents=[common], help="natural partial order test")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(fn=_cmd_leq)

    p = sub.add_parser("solve", parents=[common], help="solve a one-unknown equation")
    p.add_argument("--target", required=True)
    p.add_argument("--known")
    p.add_argument("--side", default="right", choices=["left", "right", "sandwich"])
    p.add_argument("--leftk")
    p.add_argument("--rightk")
    p.add_argument("--bplus", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("ideal", parents=[common], help="principal ideal membership")
    p.add_argument("--element", required=True)
    p.add_argument("--anchor", required=True)
    p.add_argument("--side", default="right", choices=["left", "right"])
    p.add_argument("--bplus", action="store_true")
    p.set_defaults(fn=_cmd_ideal)

    p = sub.add_parser("upset", parents=[common], help="window view of an up-set")
    p.add_argument("--base", required=True)
    p.add_argument("--bplus", action="store_true")
    p.set_defaults(fn=_cmd_upset)

    p = sub.add_parser("pmap", parents=[common], help="partial shift operations")
    p.add_argument("action", choices=["apply", "check-compose"])
    p.add_argument("--g", help="domain anchor literal")
    p.add_argument("--h", help="codomain anchor literal")
    p.add_argument("--x", help="evaluation point literal")
    p.set_defaults(fn=_cmd_pmap)

    p = sub.add_parser("witness", parents=[common], help="build an isolation chain")
    p.add_argument("--seed", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("escape", parents=[common], help="escape certificates for a region")
    p.add_argument("--a", required=True, help="idempotent anchor literal")
    p.set_defaults(fn=_cmd_escape)

    p = sub.add_parser("check", parents=[common], help="run the property suites")
    p.add_argument("--suites", default="all")
    p.set_defaults(fn=_cmd_check)

    # the name-to-parser mapping add_subparsers fills, captured here so
    # main can look a command up without argparse's private attributes
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The one shared ``bicext`` parser, built on the first call.

    Every later call returns the same object, so callers must not mutate
    it.  Reuse is safe because ``parse_args`` returns a fresh namespace,
    no action has a mutable default, and argparse looks up
    ``sys.stdout``/``sys.stderr`` when it prints, not when it is built.
    The command parsers are built with it, once, and ``main`` hands a
    command line whose first string names a command straight to that
    command's parser; the top-level parser then answers only help and
    usage errors.
    """
    return _parsers()[0]


def _parse_command_line(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one argparse pass, apart from
    the namespace's ``command``, which nothing reads.

    When ``argv[0]`` names a command, the top-level pass would hand its
    parser exactly ``argv[1:]``: that parser's positional consumes every
    later string, ``--`` included and unstripped.  So this parses
    ``argv[1:]`` with the command's parser directly and reports leftover
    strings with the top-level parser's message, as ``parse_args`` does.
    Any other first string (none, ``-h``, an unknown name, an option before
    the command) goes through the top-level parser, which only ever prints
    help or a usage error for it.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
    args = _parse_command_line(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"literal error: {exc}", file=sys.stderr)
        return 2
    except NotApplicable as exc:
        _emit(
            {"not_applicable": True, "reason": str(exc)},
            args.output,
            f"not applicable: {exc}",
        )
        return 0
    except BicextError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if not _exceeds_digit_limit(exc):
            print(f"invalid request: {exc}", file=sys.stderr)
            return 2
        limit = sys.get_int_max_str_digits()
        reason = f"the result holds an integer longer than {limit} digits, which cannot be rendered"
        if args.output == "json":
            _emit({"result_error": reason, "digit_limit": limit}, args.output, "")
        else:
            print(f"result error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
