"""Workload definitions, request generation and output checking.

A workload pairs a suite configuration with a stream of single library
calls.  One of the two is the main load, run for the requested number
of seconds; the other is a companion load interleaved with it, so every
workload reports every end-to-end metric.  Inputs are generated here as
raw payloads from the seed, before anything is timed, and every output
is compared with the raw-payload reference in ``reference.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import reference as ref
from bicext import (
    BElement,
    PartialShift,
    build_witness_chain,
    compose,
    escape_certificate,
    nat_leq,
    nat_leq_oracle,
    pair_product_matches_shifts,
    parse_pair,
    solve_left,
    solve_right,
    solve_sandwich,
    up_set_window,
)
from bicext import cli


@dataclass(frozen=True)
class Workload:
    name: str
    main: str  # "suite" or "stream": which load runs for the whole run
    carrier: str  # suite carrier
    window: int  # suite window
    stream_carriers: Tuple[str, ...]
    min_calls: int  # suite calls a run makes even past its time limit

    def describe(self, seed: int) -> dict:
        return {
            "main": self.main,
            "min_suite_calls": self.min_calls,
            "suite": {
                "carrier": self.carrier,
                "window": self.window,
                "sample_seed": seed,
                "suites": "all",
            },
            "stream": {
                "carriers": list(self.stream_carriers),
                "deck": dict(_DECK),
                "not_on_Q": sorted(_NEEDS_SUCCESSOR),
                "big_payload_share": BIG_SHARE,
                "seed": seed,
            },
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("suite-z", "suite", "Z", 4, ("Z",), 15),
        Workload("api-stream", "stream", "ZxZ", 1, ref.CARRIERS, 9),
    )
}


# --- suites: the expected verdict of every check on every carrier ----------

SUITE_CHECKS = {
    "axioms": (
        "group-laws", "order-trichotomy", "order-transitivity",
        "order-bi-invariance", "cone-axioms", "successor-minimality",
        "succ-pred-roundtrip", "density-witness", "noncommutative-witness",
    ),
    "semigroup": (
        "pair-associativity", "pair-inverse-unique", "idempotents-commute",
        "bplus-closure", "bicyclic-presentation", "no-identity",
    ),
    "order": (
        "natleq-vs-oracle", "natleq-clause-duality", "natorder-partial-order",
        "natorder-compatibility", "triple-factorization",
    ),
    "solvers": (
        "solve-right-complete", "solve-left-complete", "sandwich-complete",
        "solve-right-bplus", "solve-left-bplus", "sandwich-bplus",
    ),
    "ideals": ("ideal-membership",),
    "pmaps": ("rep-soundness", "pointwise-composition", "shift-bijectivity"),
    "witnesses": ("witness-chains",),
    "escapes": ("density-probe", "escape-region-sweep", "dl-set-equivalence"),
}

NOT_APPLICABLE = {
    "Z": {"density-witness", "noncommutative-witness"},
    "Q": {
        "successor-minimality", "succ-pred-roundtrip", "noncommutative-witness",
        "bicyclic-presentation", "no-identity", "escape-region-sweep",
    },
    "ZxZ": {"density-witness", "noncommutative-witness", "bicyclic-presentation"},
    "H3": {"density-witness", "bicyclic-presentation"},
}


def expected_statuses(carrier: str) -> List[Tuple[str, str, str]]:
    na = NOT_APPLICABLE[carrier]
    return [
        (suite, name, "not-applicable" if name in na else "pass")
        for suite, names in SUITE_CHECKS.items()
        for name in names
    ]


def wrong_verdicts(report, carrier: str, suites=None) -> int:
    """Checks whose status differs from the table, plus missing or extra checks."""
    want = [e for e in expected_statuses(carrier) if suites is None or e[0] in suites]
    got = [(c.suite, c.name, c.status) for c in report.checks]
    wrong = sum(1 for w, g in zip(want, got) if w != g)
    return wrong + abs(len(want) - len(got))


def outcomes(report) -> List[tuple]:
    """The byte-stable part of a report: everything except wall time."""
    return [(c.suite, c.name, c.status, c.cases, c.counterexample) for c in report.checks]


# --- stream: seeded single calls over raw payloads --------------------------


def _element(g: str, rng: random.Random, big: bool):
    top = 10 ** 40 if big else 9
    if g == "Z":
        return rng.randint(-top, top)
    if g == "Q":
        return Fraction(rng.randint(-top, top), rng.randint(1, 10 ** 20 if big else 12))
    return tuple(rng.randint(-top, top) for _ in range(ref.ARITY[g]))


def _positive(g: str, rng: random.Random, big: bool):
    """An element strictly above the identity."""
    top = 10 ** 40 if big else 9
    if g == "Z":
        return rng.randint(1, top)
    if g == "Q":
        return Fraction(rng.randint(1, top), rng.randint(1, 10 ** 20 if big else 12))
    x = list(_element(g, rng, big))
    lead = rng.randrange(len(x))
    x[:lead] = [0] * lead
    x[lead] = rng.randint(1, top)
    return tuple(x)


# small windows for up_set_window: 49, 81 and 64 pairs
UPSET_BOUNDS = {"Z": 3, "ZxZ": 1, "H3": (0, 1)}

# one deck per carrier: (variant, copies); a stream is a sequence of
# shuffled decks, interleaved across carriers
_DECK = (
    ("construct", 4),
    ("mul:<", 3), ("mul:=", 3), ("mul:>", 3),
    ("inverse", 2),
    ("nat_leq:true", 2), ("nat_leq:false", 2),
    ("nat_leq_oracle:true", 1), ("nat_leq_oracle:false", 1),
    ("solve_right:NoSolution", 1), ("solve_right:Unique", 1), ("solve_right:UpSet", 1),
    ("solve_left:NoSolution", 1), ("solve_left:Unique", 1), ("solve_left:UpSet", 1),
    ("solve_sandwich", 1),
    ("up_set_window", 1),
    ("compose", 2),
    ("pair_product_matches_shifts", 1),
    ("build_witness_chain", 1),
    ("escape_certificate", 1),
    ("render", 2),
    ("parse_pair", 2),
    ("cli.main", 1),
)
_NEEDS_SUCCESSOR = {"up_set_window", "escape_certificate"}


def deck(g: str) -> List[Tuple[str, int]]:
    return [(v, n) for v, n in _DECK if g in ref.ENUMERABLE or v not in _NEEDS_SUCCESSOR]


@dataclass
class Request:
    carrier: str
    op: str  # the public call, also the span name
    variant: str  # op plus the branch or kind the inputs were built for
    args: tuple  # raw payloads, materialized per carrier instance
    expect: object  # reference answer, compared by ``check``


def _make(g: str, variant: str, rng: random.Random, big: bool, serial: int) -> Request:
    op, _, kind = variant.partition(":")
    e = lambda: _element(g, rng, big)  # noqa: E731
    pos = lambda: _positive(g, rng, big)  # noqa: E731
    mul = lambda x, y: ref.mul(g, x, y)  # noqa: E731
    inv = lambda x: ref.inv(g, x)  # noqa: E731

    if op == "construct":
        pair = (e(), e())
        return Request(g, op, variant, pair, pair)
    if op == "mul":
        a, b, d = e(), e(), e()
        c = {"<": mul(b, pos()), "=": b, ">": mul(b, inv(pos()))}[kind]
        return Request(g, op, variant, ((a, b), (c, d)), ref.product(g, (a, b), (c, d)))
    if op == "inverse":
        s = (e(), e())
        return Request(g, op, variant, (s,), (s[1], s[0]))
    if op in ("nat_leq", "nat_leq_oracle"):
        t = (e(), e())
        step = pos() if rng.random() < 0.8 else ref.identity(g)
        x = mul(t[0], step if kind == "true" else inv(pos()))
        s = (x, mul(x, mul(inv(t[0]), t[1])))
        if kind == "false" and rng.random() < 0.5:
            s = (e(), e())
        return Request(g, op, variant, (s, t), ref.below(g, s, t))
    if op in ("solve_right", "solve_left"):
        known = (e(), e())
        fixed = known[0] if op == "solve_right" else known[1]
        moved = {"NoSolution": mul(fixed, inv(pos())), "UpSet": fixed, "Unique": mul(fixed, pos())}[kind]
        target = (moved, e()) if op == "solve_right" else (e(), moved)
        return Request(g, op, variant, (target, known), kind)
    if op == "solve_sandwich":
        a, b, c, d = e(), e(), e(), e()
        return Request(g, op, variant, ((a, b), (a, c), (d, b)), "UpSet")
    if op == "up_set_window":
        bounds = UPSET_BOUNDS[g]
        elems = ref.window(g, bounds)
        base = (rng.choice(elems), rng.choice(elems))
        members = [
            (x, y) for x in elems for y in elems if ref.below(g, base, (x, y))
        ]
        return Request(g, op, variant, (base, bounds), members)
    if op in ("compose", "pair_product_matches_shifts"):
        p, q, s = e(), e(), e()
        r = rng.choice((mul(q, pos()), q, mul(q, inv(pos()))))
        return Request(g, op, variant, ((p, q), (r, s)), ref.product(g, (p, q), (r, s)))
    if op == "build_witness_chain":
        return Request(g, op, variant, ((e(), e()), (e(), e())), None)
    if op == "escape_certificate":
        anchor = e()
        x = mul(anchor, inv(pos())) if rng.random() < 0.7 else anchor
        y = mul(anchor, inv(pos()))
        while y == x:
            y = mul(anchor, inv(pos()))
        idem, point = (anchor, anchor), (x, y)
        if ref.cmp(g, x, y) < 0:
            side, product = "left", ref.product(g, idem, point)
            landed = ref.cmp(g, product[1], ref.successor(g, anchor)) >= 0
        else:
            side, product = "right", ref.product(g, point, idem)
            landed = ref.cmp(g, product[0], ref.successor(g, anchor)) >= 0
        if not landed:
            raise AssertionError(f"reference escape product {product} misses its ideal")
        return Request(g, op, variant, (idem, point), (side, product, f"{side}-ideal"))
    if op == "render":
        s = (e(), e())
        return Request(g, op, variant, (s,), ref.render_pair(g, s))
    if op == "parse_pair":
        s = (e(), e())
        return Request(g, op, variant, (ref.render_pair(g, s),), s)
    if op == "cli.main":
        s, t = (e(), e()), (e(), e())
        lits = [ref.render_pair(g, s), ref.render_pair(g, t)]
        if serial % 2:
            argv = ["leq", "--group", g, "--output", "json", "--s", lits[0], "--t", lits[1]]
            below = ref.below(g, s, t)
            return Request(g, op, variant, (argv,), {"leq": below, "oracle": below})
        argv = ["mul", "--group", g, "--output", "json"] + lits
        left, right = ref.product(g, s, t)
        want = {"element": {"left": ref.render(g, left), "right": ref.render(g, right)}}
        return Request(g, op, variant, (argv,), want)
    raise ValueError(f"unknown stream variant {variant!r}")


BIG_SHARE = 0.125  # requests whose payloads have about 40 digits


def make_stream(carriers: Tuple[str, ...], seed: int, decks: int) -> List[Request]:
    """``decks`` shuffled decks per carrier, interleaved across carriers."""
    rng = random.Random(f"bicext-bench:{seed}:{','.join(carriers)}")
    out: List[Request] = []
    for d in range(decks):
        per_carrier = []
        for g in carriers:
            variants = [v for v, n in deck(g) for _ in range(n)]
            rng.shuffle(variants)
            per_carrier.append(
                [_make(g, v, rng, rng.random() < BIG_SHARE, d) for v in variants]
            )
        for k in range(max(len(reqs) for reqs in per_carrier)):
            out.extend(reqs[k] for reqs in per_carrier if k < len(reqs))
    return out


# --- executing requests on concrete carrier instances -----------------------


def run_cli(argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _pair(G, raw) -> BElement:
    return BElement(G, raw[0], raw[1])


OPS: Dict[str, Callable] = {
    "construct": BElement,
    "mul": operator.mul,
    "inverse": BElement.inverse,
    "nat_leq": nat_leq,
    "nat_leq_oracle": nat_leq_oracle,
    "solve_right": solve_right,
    "solve_left": solve_left,
    "solve_sandwich": solve_sandwich,
    "up_set_window": up_set_window,
    "compose": compose,
    "pair_product_matches_shifts": pair_product_matches_shifts,
    "build_witness_chain": build_witness_chain,
    "escape_certificate": escape_certificate,
    "render": str,
    "parse_pair": parse_pair,
    "cli.main": run_cli,
}


def materialize(requests: List[Request], groups: Dict[str, object]) -> List[tuple]:
    """(function, arguments) for every request, built on the given carriers."""
    calls = []
    for r in requests:
        G = groups[r.carrier]
        if r.op == "construct":
            args = (G, r.args[0], r.args[1])
        elif r.op == "up_set_window":
            args = (_pair(G, r.args[0]), r.args[1])
        elif r.op == "compose":
            args = tuple(PartialShift(G, a, b) for a, b in r.args)
        elif r.op == "parse_pair":
            args = (r.args[0], G)
        elif r.op == "cli.main":
            args = r.args
        else:
            args = tuple(_pair(G, a) for a in r.args)
        calls.append((OPS[r.op], args))
    return calls


def _same(x, y) -> bool:
    """Equal values of the same types, so an int never passes for a Fraction."""
    if type(x) is not type(y):
        return False
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    return x == y


def _raw(s) -> tuple:
    return (s.left, s.right)


def check(r: Request, out) -> bool:
    """True when the library's output agrees with the reference."""
    g, op = r.carrier, r.op
    if op in ("construct", "mul", "inverse", "parse_pair"):
        return _same(_raw(out), r.expect)
    if op in ("nat_leq", "nat_leq_oracle", "render"):
        return _same(out, r.expect)
    if op in ("solve_right", "solve_left", "solve_sandwich"):
        if out.kind.value != r.expect:
            return False
        if out.element is None:
            return r.expect == "NoSolution"
        w = _raw(out.element)
        if op == "solve_right":
            target, known = r.args
            return _same(ref.product(g, known, w), target)
        if op == "solve_left":
            target, known = r.args
            return _same(ref.product(g, w, known), target)
        target, leftk, rightk = r.args
        return _same(ref.product(g, ref.product(g, leftk, w), rightk), target)
    if op == "up_set_window":
        return _same([_raw(m) for m in out], r.expect)
    if op == "compose":
        return _same((out.dom_anchor, out.cod_anchor), r.expect)
    if op == "pair_product_matches_shifts":
        return out is True
    if op == "build_witness_chain":
        seed, target = r.args
        inter = _raw(out.intermediate)
        return (
            _same(_raw(out.seed), seed)
            and _same(_raw(out.target), target)
            and _same(inter, (seed[0], target[1]))
            and _same(ref.product(g, inter, _raw(out.right_translator)), seed)
            and _same(ref.product(g, _raw(out.left_translator), target), inter)
        )
    if op == "escape_certificate":
        side, product, region = r.expect
        return (
            out.side == side
            and _same(_raw(out.product), product)
            and out.excluded_region.value == region
        )
    if op == "cli.main":
        code, text = out
        return code == 0 and json.loads(text) == r.expect
    raise ValueError(f"no check for {op!r}")
