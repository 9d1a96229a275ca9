"""Named property checks and the orchestrated suite runner.

Every structural claim the library makes is executable here as a named
check over a finite window: exhaustive when the window fits the case
budget, otherwise a seeded deterministic subset (so reruns with the same
configuration examine byte-identical cases).  Reports are plain data
with a stable JSON form; only the wall-time fields vary between runs.

The brute-force rows of the solver, sandwich and factorization checks,
and the law checks ``pair-associativity``, ``pair-inverse-unique``'s
candidate scan and ``witness-chains``' two uniqueness scans, compare
coordinates: they call the carrier's ``pair_product`` directly and
build no pairs, since pairs over one carrier are equal exactly when
their coordinates are.  The other checks, like every library call,
multiply pairs, and for four of them the pair product is part of the
claim: ``rep-soundness`` is that product's independent oracle, comparing
``s * t`` with the shift composite, which uses only ``mul``, ``inv`` and
``maximum``; ``natorder-compatibility`` hands its products to
``nat_leq``; ``bicyclic-presentation`` checks the generators' relations
on pairs; and ``pair-inverse-unique`` checks each probe's own
``inverse()`` by ``s * inv * s`` and ``inv * s * inv``.

The brute-force oracles memoize their pure products inside each check:
the products of each known factor with the whole pool, kept until the
last sample that reads them, and the pool's up-set above each distinct
solver answer.  The memo lives in the check's locals, so verdicts and
counterexamples are those of the per-sample scan, and a check's
carrier-op cost does not depend on which checks ran before it.

Checks are ``_forall`` clauses ``(tuples, fault)``: ``fault(*args)`` is
falsy on a tuple where the claim holds and is the counterexample text
where it fails, and it runs once per tuple.  ``_forall`` counts one case
per tuple tried, across the clauses in order, up to and including the
first counterexample; a tuple whose fault function raises a library
error is that counterexample.  Seeded draws happen lazily, in turn.  A
solver or sandwich case is one sample, a shift case one shift or shift
pair, a witness case one chain, a presentation case one relation or
pool pair.  Three checks count their own cases: ``noncommutative-witness``
stops at its first witness, and ``cone-axioms`` and ``density-probe``
each report one library verdict.

``run_suites`` runs its checks in two processes where it can: on a
shipped carrier, with at least two checks, two usable CPUs, ``os.fork``
and one live thread, it forks one child, and both take check indices
from one pipe.  The child returns its rows with ``marshal``; a row it
does not return is computed again in the caller.  Everywhere else the
checks run in order in the caller.  The report is the same apart from
``wall_ms``, which is timed in whichever process ran the check.
"""

from __future__ import annotations

import itertools
import marshal
import os
import random
import threading
import time
from collections import Counter
from functools import cache, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .certificates import (
    build_witness_chain,
    density_probe,
    dl_set_member,
    escape_certificate,
    escape_region,
)
from .errors import BicextError
from .natorder import (
    SolutionKind,
    ideal_member,
    nat_leq,
    nat_leq_dual,
    nat_leq_oracle,
    solve_left,
    solve_right,
    solve_sandwich,
)
from .ogroups import GROUPS, OrderedGroup, check_positive_cone_axioms, successor_check
from .pairs import BElement, idempotent, pairs_over
from .records import Record, _store
from .shifts import (
    PartialShift,
    compose_pointwise_oracle,
    pair_product_matches_shifts,
)

# rough per-check budget in elementary semigroup operations
BUDGET = 20_000
# element pools larger than this get thinned before pairing
MAX_ELEMENT_POOL = 64


class SuiteConfig(Record):
    """One suite run: which carrier, how wide, which seed, which checks."""

    __slots__ = __match_args__ = ("group", "window", "sample_seed", "suites")

    def __init__(
        self,
        group: object,  # selector string or an OrderedGroup instance
        window: int = 4,
        sample_seed: int = 0,
        suites: Tuple[str, ...] = (),  # empty tuple means every suite
    ):
        _store(self, "group", group)
        _store(self, "window", window)
        _store(self, "sample_seed", sample_seed)
        _store(self, "suites", suites)
        if type(window) is not int:  # a bool is refused too
            raise ValueError(f"window must be an int, not {type(window).__name__}")
        if window < 1:
            raise ValueError("window must be >= 1")
        if type(sample_seed) is not int:  # a bool is refused too
            raise ValueError(f"sample_seed must be an int, not {type(sample_seed).__name__}")
        # a bare string would otherwise be read as a tuple of one-letter names
        if type(suites) is not tuple or not all(type(s) is str for s in suites):
            raise ValueError(f"suites must be a tuple of str, not {suites!r}")
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite name(s): {', '.join(sorted(unknown))}")
        # the type first: an unhashable selector would make the lookup raise TypeError
        if not (isinstance(group, OrderedGroup) or isinstance(group, str) and group in GROUPS):
            raise ValueError(f"unknown group selector {group!r}")

    def resolve_group(self) -> OrderedGroup:
        if isinstance(self.group, OrderedGroup):
            return self.group
        return GROUPS[self.group]

    def suite_names(self) -> Tuple[str, ...]:
        if not self.suites:
            return tuple(SUITES)
        return tuple(name for name in SUITES if name in self.suites)


class CheckResult(Record):
    __slots__ = __match_args__ = ("suite", "name", "status", "cases", "counterexample", "wall_ms")

    def __init__(
        self,
        suite: str,
        name: str,
        status: str,  # pass | fail | not-applicable
        cases: int,
        counterexample: Optional[str],
        wall_ms: float,
    ):
        _store(self, "suite", suite)
        _store(self, "name", name)
        _store(self, "status", status)
        _store(self, "cases", cases)
        _store(self, "counterexample", counterexample)
        _store(self, "wall_ms", wall_ms)


class SuiteReport(Record):
    """Results of one run; totals always add up to the check list."""

    __slots__ = __match_args__ = ("group", "window", "sample_seed", "checks")

    def __init__(self, group: str, window: int, sample_seed: int, checks: Tuple[CheckResult, ...]):
        _store(self, "group", group)
        _store(self, "window", window)
        _store(self, "sample_seed", sample_seed)
        _store(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def totals(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "not-applicable": 0, "cases": 0}
        for c in self.checks:
            out[c.status] += 1
            out["cases"] += c.cases
        return out

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "window": self.window,
            "sample_seed": self.sample_seed,
            "checks": [
                {
                    "suite": c.suite,
                    "name": c.name,
                    "status": c.status,
                    "cases": c.cases,
                    "counterexample": c.counterexample,
                    "wall_ms": round(c.wall_ms, 3),
                }
                for c in self.checks
            ],
            "summary": self.totals(),
        }

    def to_text(self) -> str:
        lines = []
        width = max((len(f"{c.suite}/{c.name}") for c in self.checks), default=10)
        for c in self.checks:
            label = f"{c.suite}/{c.name}".ljust(width)
            lines.append(f"[{c.status:>14}] {label}  cases={c.cases}")
            if c.counterexample:
                lines.append(f"{'':>17} counterexample: {c.counterexample}")
        t = self.totals()
        lines.append(
            f"summary: {t['pass']} pass, {t['fail']} fail, "
            f"{t['not-applicable']} not-applicable; {t['cases']} cases"
        )
        return "\n".join(lines)


class _Ctx:
    """Shared per-run state: carrier, window radius, seeded deterministic sampling."""

    def __init__(self, group: OrderedGroup, radius: int, seed: int):
        self.group = group
        self.radius = radius
        self.seed = seed
        self._pools: Dict[tuple, List[BElement]] = {}
        self._windows: Dict[object, List] = {}

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.group.name}:{self.radius}:{label}")

    def window(self, bounds=None) -> List:
        # one list per bounds, shared by every check: no check mutates a window
        bounds = self.radius if bounds is None else bounds
        if bounds not in self._windows:
            self._windows[bounds] = self.group.window(bounds)
        return self._windows[bounds]

    def pool_elements(self, margin: int = 0) -> List:
        """Window elements, thinned deterministically when pairing would explode."""
        elems = self.window(self.radius + margin)
        return _subset(elems, MAX_ELEMENT_POOL, self.rng(f"element-pool:{margin}"))

    def pairs(self, bplus: bool = False, margin: int = 0) -> List[BElement]:
        key = (bplus, margin)
        if key not in self._pools:
            self._pools[key] = pairs_over(self.group, self.pool_elements(margin), bplus)
        return self._pools[key]


def _subset(items: Sequence, cap: int, rng: random.Random) -> List:
    if len(items) <= cap:
        return list(items)
    keep = sorted(rng.sample(range(len(items)), cap))
    return [items[i] for i in keep]


def _tuples(pool: Sequence, k: int, cap: int, rng: random.Random) -> Iterable[tuple]:
    """Every k-tuple over the pool when there are at most ``cap``, else
    ``cap`` seeded draws, each taking its k entries left to right."""
    n = len(pool)
    if n**k <= cap:
        return itertools.product(pool, repeat=k)
    return zip(*[_draws(pool, cap * k, rng)] * k)  # k consecutive draws per tuple


def _draws(pool: Sequence, count: int, rng: random.Random) -> Iterable:
    """``count`` entries ``pool[rng.randrange(len(pool))]``, inlined: the
    same rejection of ``getrandbits(n.bit_length())`` values >= n that
    ``Random.randrange(n)`` makes, so the indices and the RNG state
    afterwards are those of ``randrange``."""
    getrandbits = rng.getrandbits
    n = len(pool)
    bits = n.bit_length()
    for _ in range(count):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        yield pool[i]


def _rows_once(keys: Sequence, build: Callable) -> Iterable:
    """``build(key)`` for each key in turn.  Each distinct key's row is
    built at its first occurrence and dropped after its last, so a row is
    computed once and only rows still to be read stay alive."""
    uses = Counter(keys)
    rows = {}
    for key in keys:
        row = rows.get(key)
        if row is None:
            row = rows[key] = build(key)
        uses[key] -= 1
        if not uses[key]:
            del rows[key]
        yield row


Outcome = Tuple[str, int, Optional[str]]


def _forall(*clauses: Tuple[Iterable[tuple], Callable[..., Optional[str]]]) -> Outcome:
    """Call ``fault(*args)`` once on each tuple of each ``(tuples, fault)``
    clause in turn: falsy where the claim holds, the counterexample text
    where it fails, and the first text fails the check.  A library error or
    payload ``ValueError`` raised by ``fault`` fails it at that tuple, with
    the text ``run_suites`` gives an error a check raises."""
    cases = 0
    for tuples, fault in clauses:
        for args in tuples:
            cases += 1
            try:
                counter = fault(*args)
            except (BicextError, ValueError) as exc:
                return "fail", cases, _raised(exc)
            if counter:
                return "fail", cases, counter
    return "pass", cases, None


def _raised(exc: Exception) -> str:
    """The counterexample text of a check that raised ``exc``."""
    return f"{type(exc).__name__}: {exc}"


# --- carrier axiom checks -------------------------------------------------


def c_group_laws(ctx: _Ctx) -> Outcome:
    # pair products and shift composites build their results unchecked, so
    # this check is also the guard that mul, inv and carry never leave the
    # carrier; it holds carry to the mul and inv it stands for
    g = ctx.group
    elems = ctx.window()
    e = g.identity

    def triple_fault(a, b, c):
        ab, bc, k = g.mul(a, b), g.mul(b, c), g.carry(a, b, c)
        lhs, rhs = g.mul(ab, c), g.mul(a, bc)
        if not all(map(g.contains, (ab, bc, lhs, rhs, k))):
            return f"a product left the carrier at {g.render(a)}, {g.render(b)}, {g.render(c)}"
        if lhs != rhs:
            return f"associativity broke at {g.render(a)}, {g.render(b)}, {g.render(c)}"
        if k != g.mul(g.mul(a, g.inv(b)), c):
            return f"carry law broke at {g.render(a)}, {g.render(b)}, {g.render(c)}"

    def unit_fault(a):
        ia = g.inv(a)
        ae, ea, a_ia, ia_a = g.mul(a, e), g.mul(e, a), g.mul(a, ia), g.mul(ia, a)
        if not all(map(g.contains, (ia, ae, ea, a_ia, ia_a))):
            return f"an inverse or product left the carrier at {g.render(a)}"
        if ae != a or ea != a:
            return f"identity law broke at {g.render(a)}"
        if a_ia != e or ia_a != e:
            return f"inverse law broke at {g.render(a)}"

    return _forall(
        (_tuples(elems, 3, 4000, ctx.rng("group-laws")), triple_fault),
        (zip(elems), unit_fault),
    )


def c_order_trichotomy(ctx: _Ctx) -> Outcome:
    g = ctx.group

    def fault(a, b):
        v = g.cmp(a, b)
        if not (v in (-1, 0, 1) and v == -g.cmp(b, a) and (v == 0) == (a == b)):
            return f"cmp inconsistent at {g.render(a)}, {g.render(b)}"

    return _forall((_tuples(ctx.window(), 2, 6000, ctx.rng("trichotomy")), fault))


def c_order_transitivity(ctx: _Ctx) -> Outcome:
    g = ctx.group
    return _forall((
        _tuples(ctx.window(), 3, 6000, ctx.rng("transitivity")),
        lambda a, b, c: g.leq(a, b) and g.leq(b, c) and not g.leq(a, c)
        and f"transitivity broke at {g.render(a)}, {g.render(b)}, {g.render(c)}",
    ))


def c_order_bi_invariance(ctx: _Ctx) -> Outcome:
    g = ctx.group

    def fault(a, b, t):
        if g.lt(a, b) and not (g.lt(g.mul(a, t), g.mul(b, t)) and g.lt(g.mul(t, a), g.mul(t, b))):
            return f"translation broke {g.render(a)} < {g.render(b)} by {g.render(t)}"

    return _forall((_tuples(ctx.window(), 3, 6000, ctx.rng("bi-invariance")), fault))


def c_cone_axioms(ctx: _Ctx) -> Outcome:
    g = ctx.group
    elems = _subset(ctx.window(), 64, ctx.rng("cone-axioms"))
    verdict = check_positive_cone_axioms(g, elems)
    cases = len(elems) * len(elems)
    if verdict.all_ok:
        return "pass", cases, None
    broken = [
        name
        for name, ok in (
            ("closure", verdict.axiom1_ok),
            ("antisymmetry", verdict.axiom2_ok),
            ("conjugation", verdict.axiom3_ok),
        )
        if not ok
    ]
    x, y = verdict.counterexample
    return (
        "fail",
        cases,
        f"{'/'.join(broken)} failed at {g.render(x)}, {g.render(y)}",
    )


def c_successor_minimality(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if g.densely_ordered:
        return "not-applicable", 0, None
    radius = min(ctx.radius, 3)
    return _forall((
        zip(_subset(ctx.window(), 50, ctx.rng("succ-min"))),
        lambda a: not successor_check(g, a, radius=radius)
        and f"successor not minimal above {g.render(a)}",
    ))


def c_succ_pred_roundtrip(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if g.densely_ordered:
        return "not-applicable", 0, None

    def fault(a):
        if g.predecessor(g.successor(a)) != a or g.successor(g.predecessor(a)) != a:
            return f"succ/pred not mutually inverse at {g.render(a)}"
        if not g.lt(a, g.successor(a)):
            return f"successor not above {g.render(a)}"

    return _forall((zip(ctx.window()), fault))


def c_density_witness(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if not g.densely_ordered:
        return "not-applicable", 0, None
    return _forall((
        (ab for ab in _tuples(ctx.window(), 2, 4000, ctx.rng("density")) if g.lt(*ab)),
        lambda a, b: not (g.lt(a, m := g.between(a, b)) and g.lt(m, b))
        and f"no midpoint between {g.render(a)} and {g.render(b)}",
    ))


def c_noncommutative_witness(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if g.abelian:
        return "not-applicable", 0, None
    cases = 0
    for a, b in _tuples(ctx.window(), 2, 4000, ctx.rng("noncomm")):
        cases += 1
        if g.mul(a, b) != g.mul(b, a):
            return "pass", cases, None
    return "fail", cases, "no non-commuting sample pair found"


# --- pair semigroup checks ------------------------------------------------


def c_pair_associativity(ctx: _Ctx) -> Outcome:
    product = ctx.group.pair_product

    def fault(s, t, u):
        a, b, c, d, e, f = s.left, s.right, t.left, t.right, u.left, u.right
        if product(*product(a, b, c, d), e, f) != product(a, b, *product(c, d, e, f)):
            return f"associativity broke at {s}, {t}, {u}"

    return _forall((_tuples(ctx.pairs(), 3, BUDGET // 3, ctx.rng("pair-assoc")), fault))


def c_pair_inverse_unique(ctx: _Ctx) -> Outcome:
    pool = ctx.pairs()
    rng = ctx.rng("inverse-unique")
    probes = _subset(pool, 60, rng)
    candidates = _subset(pool, 800, rng)
    product = ctx.group.pair_product
    coords = [(t.left, t.right) for t in candidates]

    def fault(s):
        inv = s.inverse()
        if s * inv * s != s or inv * s * inv != inv:
            return f"inverse law broke at {s}"
        a, b = s.left, s.right
        # t = [c|d]: not the inverse [b|a], s * t * s = s and t * s * t = t
        for t, (c, d) in zip(candidates, coords):
            if (
                (c, d) != (b, a)
                and product(*product(a, b, c, d), a, b) == (a, b)
                and product(*product(c, d, a, b), c, d) == (c, d)
            ):
                return f"second inverse {t} found for {s}"

    return _forall((zip(probes), fault))


def c_idempotents_commute(ctx: _Ctx) -> Outcome:
    g = ctx.group

    def fault(x, y):
        e, f = idempotent(g, x), idempotent(g, y)
        if e * f != f * e:
            return f"idempotents {e} and {f} do not commute"

    return _forall((_tuples(ctx.window(), 2, 6000, ctx.rng("idem-commute")), fault))


def c_bplus_closure(ctx: _Ctx) -> Outcome:
    return _forall((
        _tuples(ctx.pairs(bplus=True), 2, BUDGET // 2, ctx.rng("bplus-closure")),
        lambda s, t: not (s * t).in_bplus() and f"product {s} * {t} left the positive part",
    ))


def c_bicyclic_presentation(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if g.name != "Z":
        return "not-applicable", 0, None
    p = BElement(g, 0, 1)
    q = BElement(g, 1, 0)
    unit = BElement(g, 0, 0)
    return _forall(
        ([()], lambda: p * q != unit and "p*q is not the unit"),
        ([()], lambda: q * p != BElement(g, 1, 1)
         and "q*p did not collapse to the (1,1) idempotent"),
        (zip(ctx.pairs(bplus=True)),
         lambda s: (unit * s != s or s * unit != s) and f"unit fails to fix {s}"),
    )


def c_no_identity(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if not g.enumerable:
        return "not-applicable", 0, None
    candidates = _subset(ctx.pairs(), 600, ctx.rng("no-identity"))
    # probes come from a window one step wider than the candidates, so the
    # corner idempotents below and above every candidate always exist;
    # putting them first makes each scan terminate almost immediately
    wide = ctx.window(ctx.radius + 1)
    corners = [idempotent(g, wide[0]), idempotent(g, wide[-1])]
    probes = corners + ctx.pairs(margin=1)
    last = len(probes) - 1

    def tries():
        # one case per probe tried, through the first the candidate moves
        for cand in candidates:
            for i, probe in enumerate(probes):
                moved = cand * probe != probe or probe * cand != probe
                yield cand, moved or i < last
                if moved:
                    break

    return _forall((
        tries(),
        lambda cand, cleared: not cleared and f"{cand} fixed every probe (identity-like)",
    ))


# --- natural order checks -------------------------------------------------


def c_natleq_vs_oracle(ctx: _Ctx) -> Outcome:
    return _forall((
        _tuples(ctx.pairs(), 2, 1200, ctx.rng("natleq-oracle")),
        lambda s, t: nat_leq(s, t) != nat_leq_oracle(s, t)
        and f"order test and oracle disagree on {s}, {t}",
    ))


def c_natleq_clause_duality(ctx: _Ctx) -> Outcome:
    return _forall((
        _tuples(ctx.pairs(), 2, 8000, ctx.rng("natleq-dual")),
        lambda s, t: nat_leq(s, t) != nat_leq_dual(s, t)
        and f"coordinate clauses disagree on {s}, {t}",
    ))


def c_natorder_partial_order(ctx: _Ctx) -> Outcome:
    pool = ctx.pairs()
    rng = ctx.rng("partial-order")
    return _forall(
        (zip(_subset(pool, 3000, rng)), lambda s: not nat_leq(s, s) and f"reflexivity broke at {s}"),
        (
            _tuples(pool, 2, 4000, rng),
            lambda s, t: nat_leq(s, t) and nat_leq(t, s) and s != t
            and f"antisymmetry broke at {s}, {t}",
        ),
        (
            _tuples(pool, 3, 4000, rng),
            lambda s, t, u: nat_leq(s, t) and nat_leq(t, u) and not nat_leq(s, u)
            and f"transitivity broke at {s}, {t}, {u}",
        ),
    )


def c_natorder_compatibility(ctx: _Ctx) -> Outcome:
    g = ctx.group
    pool = ctx.pairs()
    elems = ctx.window()

    # build comparable pairs directly: everything above s has the same
    # coordinate quotient and a left coordinate at or below s.left
    def comparable():
        for s, u in _tuples(pool, 2, 600, ctx.rng("compatibility")):
            quot = g.mul(g.inv(s.left), s.right)
            for x in itertools.islice((x for x in elems if g.leq(x, s.left)), 6):
                yield s, u, x, quot

    def fault(s, u, x, quot):
        # checked: the right coordinate is a carrier product
        t = BElement(g, x, g.mul(x, quot))
        if not nat_leq(s, t):
            return f"constructed comparable pair is wrong: {s}, {t}"
        if not nat_leq(s * u, t * u) or not nat_leq(u * s, u * t):
            return f"multiplication broke {s} below {t} via {u}"

    return _forall((comparable(), fault))


def c_triple_factorization(ctx: _Ctx) -> Outcome:
    g = ctx.group

    def fault(a, b, c, d):
        # [a|c] * [c|d] * [d|b] by coordinates, building no pair
        if g.pair_product(*g.pair_product(a, c, c, d), d, b) != (a, b):
            return f"factorization broke at {','.join(map(g.render, (a, b, c, d)))}"

    return _forall((_tuples(ctx.window(), 4, 6000, ctx.rng("factorization")), fault))


# --- solver checks ---------------------------------------------------------


def _window_solutions(pool: Sequence[BElement]) -> Callable:
    """``expected(sol)``: the members of ``pool`` that the solution set
    ``sol`` holds, in pool order.  Each distinct least element's up-set is
    listed once; a check makes its own, so the memo lives in its locals."""
    members = set(pool)

    @cache
    def up_set(base):
        return [w for w in pool if nat_leq(base, w)]

    def expected(sol):
        if sol.kind is SolutionKind.NO_SOLUTION:
            return []
        if sol.kind is SolutionKind.UNIQUE:
            return [sol.element] if sol.element in members else []
        # keyed by the element the solver returned, so a wrong answer is
        # compared against its own up-set, never against the expected one
        return up_set(sol.element)

    return expected


def _solver_completeness(ctx: _Ctx, side: str, bplus: bool) -> Outcome:
    pool = ctx.pairs(bplus=bplus)
    expected = _window_solutions(pool)
    budget_pairs = max(16, BUDGET // max(1, len(pool)))
    samples = list(_tuples(pool, 2, budget_pairs, ctx.rng(f"solve-{side}-{bplus}")))
    solve = solve_right if side == "right" else solve_left
    product = ctx.group.pair_product
    coords = [(w.left, w.right) for w in pool]

    def products(known):
        """The coordinates of ``known * w`` (``w * known`` on the left) for
        each w in the pool; every pair here is over one carrier, so pairs
        are equal exactly when their coordinates are."""
        a, b = known.left, known.right
        if side == "right":
            return [product(a, b, c, d) for c, d in coords]
        return [product(c, d, a, b) for c, d in coords]

    rows = _rows_once([known for _, known in samples], products)

    def fault(sample, row):
        target, known = sample
        sol = solve(target, known, bplus=bplus)
        key = (target.left, target.right)
        brute = [w for w, p in zip(pool, row) if p == key]
        if brute != expected(sol):
            return (
                f"window solutions of target {target}, known {known} ({side}) "
                f"do not match {sol.kind.value}"
            )

    return _forall((zip(samples, rows), fault))


def _sandwich_completeness(ctx: _Ctx, bplus: bool) -> Outcome:
    g = ctx.group
    elems = [e for e in ctx.window() if not bplus or g.is_positive(e)]
    pool = ctx.pairs(bplus=bplus)
    expected = _window_solutions(pool)
    budget_quads = max(12, BUDGET // max(1, len(pool)))
    quads = list(_tuples(elems, 4, budget_quads, ctx.rng(f"sandwich-{bplus}")))
    product = g.pair_product
    coords = [(w.left, w.right) for w in pool]
    # the coordinates of the first products leftk * w, once per left factor (a, c)
    lefts_of = _rows_once(
        [(a, c) for a, _, c, _ in quads],
        lambda ac: [product(*ac, x, y) for x, y in coords],
    )

    def fault(quad, lefts):
        a, b, c, d = quad
        target, leftk, rightk = BElement(g, a, b), BElement(g, a, c), BElement(g, d, b)
        sol = solve_sandwich(target, leftk, rightk, bplus=bplus)
        # as in the solver checks, pairs are compared by coordinates
        brute = [w for w, (x, y) in zip(pool, lefts) if product(x, y, d, b) == (a, b)]
        if brute != expected(sol):
            return (
                f"sandwich solutions for target {target} via {leftk}, {rightk} "
                f"do not match the up-set of {sol.element}"
            )

    return _forall((zip(quads, lefts_of), fault))


# --- ideal checks -----------------------------------------------------------


def c_ideal_membership(ctx: _Ctx) -> Outcome:
    g = ctx.group
    rng = ctx.rng("ideal-membership")
    anchors = _subset(ctx.window(), 5, rng)
    probes = _subset(ctx.pairs(), 40, rng)

    def fault(s, anchor, side, bplus):
        # for an idempotent e, s is in e*S exactly when e*s == s (S*e alike),
        # so the probe is its own canonical witness
        e = idempotent(g, anchor)
        exists = (not bplus or s.in_bplus()) and (e * s if side == "right" else s * e) == s
        if ideal_member(s, anchor, side, bplus=bplus) != exists:
            return (
                f"ideal test disagrees with brute force: {s}, "
                f"anchor {g.render(anchor)}, {side}, bplus={bplus}"
            )

    return _forall((
        (
            (s, anchor, side, bplus)
            for s in probes
            for anchor in anchors
            for side in ("right", "left")
            for bplus in (False, True)
            if not bplus or g.is_positive(anchor)
        ),
        fault,
    ))


# --- shift checks -----------------------------------------------------------


def c_rep_soundness(ctx: _Ctx) -> Outcome:
    return _forall((
        _tuples(ctx.pairs(), 2, 6000, ctx.rng("rep-soundness")),
        lambda s, t: not pair_product_matches_shifts(s, t)
        and f"pair product and shift composite split on {s}, {t}",
    ))


def c_pointwise_composition(ctx: _Ctx) -> Outcome:
    g = ctx.group
    rng = ctx.rng("pointwise")
    anchors = ctx.window()
    w = ctx.radius
    points = _subset(ctx.window((-w, 2 * w)), 15, rng)
    shifts = [PartialShift(g, a, b) for a, b in _tuples(anchors, 2, 60, rng)]
    return _forall((
        _tuples(shifts, 2, 500, rng),
        lambda m1, m2: not compose_pointwise_oracle(m1, m2, points)
        and f"pointwise composition broke for {m1} then {m2}",
    ))


def c_shift_bijectivity(ctx: _Ctx) -> Outcome:
    g = ctx.group
    rng = ctx.rng("bijectivity")
    w = ctx.radius
    points = _subset(ctx.window((-w, 2 * w)), 64, ctx.rng("bijectivity-points"))

    def fault(a, b):
        shift = PartialShift(g, a, b)
        back = shift.inverse()
        seen = set()
        for x in points:
            if not shift.in_domain(x):
                continue
            y = shift.apply(x)
            if y in seen:
                return f"{shift} is not injective at {g.render(x)}"
            seen.add(y)
            if not g.leq(b, y):
                return f"{shift} left its codomain cone at {g.render(x)}"
            if back.apply(y) != x:
                return f"{shift} does not invert at {g.render(x)}"

    return _forall((_tuples(ctx.window(), 2, 200, rng), fault))


# --- certificate checks ------------------------------------------------------


def c_witness_chains(ctx: _Ctx) -> Outcome:
    g = ctx.group
    # chain endpoints are drawn from the same elements the candidate pairs
    # are built over, so both unique solutions are inside the brute window
    coords = ctx.pool_elements()
    candidates = [(t.left, t.right) for t in ctx.pairs()]
    count = max(4, min(25, BUDGET // max(1, 2 * len(candidates))))
    product = g.pair_product

    def fault(a, b, c, d):
        seed, target = BElement(g, a, b), BElement(g, c, d)
        chain = build_witness_chain(seed, target)  # verified eagerly inside
        mid = chain.intermediate.left, chain.intermediate.right
        rl, rr = chain.right_translator.left, chain.right_translator.right
        first = [(x, y) for x, y in candidates if product(x, y, rl, rr) == (a, b)]
        if first != [mid]:
            return f"step one of {seed} -> {target} is not unique in the window"
        ll, lr = chain.left_translator.left, chain.left_translator.right
        second = [(x, y) for x, y in candidates if product(ll, lr, x, y) == mid]
        if second != [(c, d)]:
            return f"step two of {seed} -> {target} is not unique in the window"

    return _forall((_tuples(coords, 4, count, ctx.rng("witness-chains")), fault))


def c_density_probe(ctx: _Ctx) -> Outcome:
    g = ctx.group
    samples = _subset(ctx.window(), 60, ctx.rng("density-probe"))
    verdict = density_probe(g, samples)
    cases = max(verdict.checked, 1)
    if verdict.densely_ordered != g.densely_ordered:
        return "fail", cases, "probe disagrees with the declared density"
    if not g.densely_ordered:
        if verdict.minimal_positive != g.successor(g.identity):
            return "fail", cases, "probe reported a wrong minimal positive element"
        for h in samples:
            if g.lt(g.identity, h) and g.lt(h, verdict.minimal_positive):
                return "fail", cases, f"{g.render(h)} undercuts the minimal positive element"
    else:
        for gval, h in verdict.witnesses:
            if not (g.lt(g.identity, h) and g.lt(h, gval)):
                return "fail", cases, f"bad density witness {g.render(h)}"
    return "pass", cases, None


def c_escape_region_sweep(ctx: _Ctx) -> Outcome:
    g = ctx.group
    if g.densely_ordered:
        return "not-applicable", 0, None
    rng = ctx.rng("escape-sweep")
    anchors = [g.identity] + _subset(
        [e for e in ctx.window() if e != g.identity], 2, rng
    )

    def points():
        for anchor in anchors:
            idem_pair = idempotent(g, anchor)
            succ_idem = idempotent(g, g.successor(anchor))
            for x, y in _subset(escape_region(g, anchor, ctx.radius), 1500, rng):
                yield idem_pair, succ_idem, x, y

    def fault(idem_pair, succ_idem, x, y):
        point = BElement(g, x, y)
        cert = escape_certificate(idem_pair, point)
        side, p = cert.side, cert.product
        # the canonical-witness test of the landed ideal, independent of
        # the ideal_member test the certificate already ran
        if not (
            p == (idem_pair * point if side == "left" else point * idem_pair)
            and cert.excluded_region.value == f"{side}-ideal"
            and (succ_idem * p if side == "right" else p * succ_idem) == p
        ):
            return f"bad escape certificate for {point} at {idem_pair}"

    return _forall((points(), fault))


def c_dl_set_equivalence(ctx: _Ctx) -> Outcome:
    g = ctx.group
    rng = ctx.rng("dl-set")
    pool = _subset(ctx.pairs(), 1200, rng)
    anchors = _subset(ctx.window(), 7, rng)

    def fault(s, anchor):
        direct = dl_set_member(s, anchor)
        characterized = s.is_idempotent() and g.leq(s.left, anchor)
        above_anchor = nat_leq(idempotent(g, anchor), s)
        if not direct == characterized == above_anchor:
            return f"stabilizer test splits at {s}, anchor {g.render(anchor)}"

    return _forall((itertools.product(pool, anchors), fault))


SUITES: Dict[str, Tuple[Tuple[str, Callable[[_Ctx], Outcome]], ...]] = {
    "axioms": (
        ("group-laws", c_group_laws),
        ("order-trichotomy", c_order_trichotomy),
        ("order-transitivity", c_order_transitivity),
        ("order-bi-invariance", c_order_bi_invariance),
        ("cone-axioms", c_cone_axioms),
        ("successor-minimality", c_successor_minimality),
        ("succ-pred-roundtrip", c_succ_pred_roundtrip),
        ("density-witness", c_density_witness),
        ("noncommutative-witness", c_noncommutative_witness),
    ),
    "semigroup": (
        ("pair-associativity", c_pair_associativity),
        ("pair-inverse-unique", c_pair_inverse_unique),
        ("idempotents-commute", c_idempotents_commute),
        ("bplus-closure", c_bplus_closure),
        ("bicyclic-presentation", c_bicyclic_presentation),
        ("no-identity", c_no_identity),
    ),
    "order": (
        ("natleq-vs-oracle", c_natleq_vs_oracle),
        ("natleq-clause-duality", c_natleq_clause_duality),
        ("natorder-partial-order", c_natorder_partial_order),
        ("natorder-compatibility", c_natorder_compatibility),
        ("triple-factorization", c_triple_factorization),
    ),
    "solvers": (
        ("solve-right-complete", partial(_solver_completeness, side="right", bplus=False)),
        ("solve-left-complete", partial(_solver_completeness, side="left", bplus=False)),
        ("sandwich-complete", partial(_sandwich_completeness, bplus=False)),
        ("solve-right-bplus", partial(_solver_completeness, side="right", bplus=True)),
        ("solve-left-bplus", partial(_solver_completeness, side="left", bplus=True)),
        ("sandwich-bplus", partial(_sandwich_completeness, bplus=True)),
    ),
    "ideals": (("ideal-membership", c_ideal_membership),),
    "pmaps": (
        ("rep-soundness", c_rep_soundness),
        ("pointwise-composition", c_pointwise_composition),
        ("shift-bijectivity", c_shift_bijectivity),
    ),
    "witnesses": (("witness-chains", c_witness_chains),),
    "escapes": (
        ("density-probe", c_density_probe),
        ("escape-region-sweep", c_escape_region_sweep),
        ("dl-set-equivalence", c_dl_set_equivalence),
    ),
}


# a check's index travels through the queue pipe as one byte
assert sum(map(len, SUITES.values())) <= 256

# the shipped carriers' classes hold no state, so a forked child calling
# them changes nothing the caller sees; a subclass may (a counting carrier)
_STATELESS = frozenset(map(type, GROUPS.values()))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _splits(group: OrderedGroup, count: int) -> bool:
    """Whether ``run_suites`` shares its ``count`` checks with a forked child."""
    return (
        type(group) in _STATELESS
        and count >= 2
        and hasattr(os, "fork")
        and _usable_cpus() >= 2
        and threading.active_count() == 1  # forking with threads alive is unsafe
    )


def _take(queue: int, run: Callable[[int], tuple], results: dict) -> None:
    """``results[i] = run(i)`` for each index read from ``queue`` until it
    is empty.  One-byte pipe reads are atomic, so two processes reading
    the same queue run each check exactly once between them."""
    while index := os.read(queue, 1):
        results[index[0]] = run(index[0])


def _child(queue: int, outbox: int, run: Callable[[int], tuple]) -> None:
    """The forked child's whole life: take checks from ``queue``, send
    ``{index: row}`` for those it finished through ``outbox`` with
    ``marshal``, and leave through ``os._exit`` whatever happens, so it
    never runs the caller's code, ``atexit`` handlers or stdout flushes."""
    try:
        done: dict = {}
        try:
            _take(queue, run, done)
        finally:
            data = marshal.dumps(done)
            while data:
                data = data[os.write(outbox, data):]
    finally:
        os._exit(0)


def _split(run: Callable[[int], tuple], count: int) -> List[tuple]:
    """``[run(0), ..., run(count - 1)]``, computed by this process and one
    forked child, both taking indices from one queue pipe.  An index the
    child did not return (it crashed, was killed or raised) runs again
    here, so an unexpected exception reaches the caller with its own type.
    The child is always reaped, and killed first if this process raises."""
    queue, feed = os.pipe()
    os.write(feed, bytes(range(count)))
    os.close(feed)
    inbox, outbox = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: this process takes every check
        pid = None
    if pid == 0:
        _child(queue, outbox, run)
    os.close(outbox)
    results, data = {}, b""
    try:
        _take(queue, run, results)
        while chunk := os.read(inbox, 1 << 16):
            data += chunk
    except BaseException:
        if pid:
            import signal  # loaded only on this path

            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:
            os.waitpid(pid, 0)
        os.close(queue)
        os.close(inbox)
    try:
        results.update(marshal.loads(data))
    except (EOFError, ValueError, TypeError):  # no child, or one cut off mid-write
        pass
    for index in range(count):
        if index not in results:
            results[index] = run(index)
    return [results[index] for index in range(count)]


def run_suites(cfg: SuiteConfig) -> SuiteReport:
    """Execute the configured suites and assemble one report.

    Deterministic given (group, window, sample_seed); checks never
    mutate shared state, so the order of execution cannot change any
    verdict.  A library error or a checked constructor's ``ValueError``
    raised in a check is recorded as a failure carrying the message; the
    case count runs through the raising tuple, and is 0 for an error raised
    while the tuples are built or in one of the three checks off ``_forall``.

    On a shipped carrier, with at least two checks, two usable CPUs,
    ``os.fork`` and no second thread alive, the checks are shared with
    one forked child (see ``_split``); otherwise they run here in order.
    The report is the same either way, but each check's ``wall_ms`` is
    timed in the process that ran it, so their sum can exceed the call's
    wall time.  A carrier subclass always runs here, since the child's
    calls to it would change nothing the caller sees.
    """
    group = cfg.resolve_group()
    ctx = _Ctx(group, cfg.window, cfg.sample_seed)
    checks = [(suite, name, fn) for suite in cfg.suite_names() for name, fn in SUITES[suite]]

    def run(index: int) -> tuple:
        suite, name, fn = checks[index]
        t0 = time.perf_counter()
        try:
            status, cases, counter = fn(ctx)
        except (BicextError, ValueError) as exc:
            status, cases, counter = "fail", 0, _raised(exc)
        wall = (time.perf_counter() - t0) * 1000.0
        return suite, name, status, cases, counter, wall

    count = len(checks)
    rows = _split(run, count) if _splits(group, count) else map(run, range(count))
    return SuiteReport(
        group.name, cfg.window, cfg.sample_seed, tuple(CheckResult(*row) for row in rows)
    )
