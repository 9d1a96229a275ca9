from collections import Counter

import pytest

from bicext.ogroups import GROUPS, IntegerGroup


class TamperedIntegerGroup(IntegerGroup):
    """Integer carrier whose comparison misorders the value 2.

    Exists to prove the axiom checks actually bite: the positive cone it
    induces drops 2, so cone closure fails at 1 * 1, and translation
    invariance fails around it too.
    """

    name = "Zmangled"

    def cmp(self, g, h):
        a = -g if g == 2 else g
        b = -h if h == 2 else h
        return (a > b) - (a < b)


class LeakyIntegerGroup(IntegerGroup):
    """Integer carrier whose product leaves the carrier at the value 3.

    The float it returns there compares equal to the int, so every
    equation holds and only a closure test can notice.
    """

    name = "Zleaky"

    def mul(self, g, h):
        out = g + h
        return float(out) if out == 3 else out


def _counting(carrier):
    """A carrier of the same type as ``carrier`` that tallies its calls."""
    calls = Counter()

    class Counting(type(carrier)):
        def mul(self, g, h):
            calls["mul"] += 1
            return super().mul(g, h)

        def inv(self, g):
            calls["inv"] += 1
            return super().inv(g)

        def cmp(self, g, h):
            calls["cmp"] += 1
            return super().cmp(g, h)

        def contains(self, x):
            calls["contains"] += 1
            return super().contains(x)

    return Counting(), calls


@pytest.fixture
def counting():
    """``counting(carrier)`` returns a tallying twin of ``carrier`` and its
    ``Counter`` of ``mul``/``inv``/``cmp``/``contains`` calls."""
    return _counting


@pytest.fixture
def broken_group():
    return TamperedIntegerGroup()


@pytest.fixture
def leaky_group():
    return LeakyIntegerGroup()


@pytest.fixture(params=sorted(GROUPS))
def any_group(request):
    return GROUPS[request.param]
