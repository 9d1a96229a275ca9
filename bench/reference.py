"""Independent reference arithmetic on raw payloads.

The benchmark checks every library output against this module.  It
works on plain ints, ``Fraction`` values and int tuples and imports
nothing from ``bicext``: the Heisenberg product is taken from 3x3
unitriangular matrix multiplication rather than from the coordinate
formula, and orders are Python's own comparison of numbers and tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

CARRIERS = ("Z", "Q", "ZxZ", "H3")
ENUMERABLE = ("Z", "ZxZ", "H3")  # carriers with a successor and finite windows
ARITY = {"Z": 1, "Q": 1, "ZxZ": 2, "H3": 3}


def identity(g: str):
    if g == "Z":
        return 0
    if g == "Q":
        return Fraction(0)
    return (0,) * ARITY[g]


def _h3_matrix(x):
    a, b, c = x
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def _h3_from_matrix(m):
    return (m[0][1], m[1][2], m[0][2])


def _matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mul(g: str, x, y):
    if g in ("Z", "Q"):
        return x + y
    if g == "ZxZ":
        return (x[0] + y[0], x[1] + y[1])
    return _h3_from_matrix(_matmul(_h3_matrix(x), _h3_matrix(y)))


def inv(g: str, x):
    if g in ("Z", "Q"):
        return -x
    if g == "ZxZ":
        return (-x[0], -x[1])
    # inverse of [[1,a,c],[0,1,b],[0,0,1]] is [[1,-a,ab-c],[0,1,-b],[0,0,1]]
    a, b, c = x
    return (-a, -b, a * b - c)


def cmp(g: str, x, y) -> int:
    """Usual order on numbers, lexicographic order on tuples."""
    return (x > y) - (x < y)


def successor(g: str, x):
    if g == "Z":
        return x + 1
    return x[:-1] + (x[-1] + 1,)


def product(g: str, s: Tuple, t: Tuple) -> Tuple:
    """Three-case anchored product of raw pairs (a, b) * (c, d)."""
    a, b = s
    c, d = t
    v = cmp(g, b, c)
    if v < 0:
        return (mul(g, mul(g, c, inv(g, b)), a), d)
    if v == 0:
        return (a, d)
    return (a, mul(g, mul(g, b, inv(g, c)), d))


def below(g: str, s: Tuple, t: Tuple) -> bool:
    """Natural order by its multiplicative definition: s == s * s^-1 * t."""
    return product(g, product(g, s, (s[1], s[0])), t) == s


def window(g: str, bounds) -> List:
    """Carrier elements with every coordinate in [lo, hi], in order."""
    lo, hi = (-bounds, bounds) if isinstance(bounds, int) else bounds
    rng = range(lo, hi + 1)
    if g == "Z":
        return list(rng)
    if g == "ZxZ":
        return [(a, b) for a in rng for b in rng]
    return [(a, b, c) for a in rng for b in rng for c in rng]


def render(g: str, x) -> str:
    if g in ("Z", "Q"):
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return f"{int(x)}"
    return "(" + ",".join(f"{v}" for v in x) + ")"


def render_pair(g: str, s: Tuple) -> str:
    return f"[{render(g, s[0])}|{render(g, s[1])}]"
