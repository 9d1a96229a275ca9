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


@pytest.fixture
def broken_group():
    return TamperedIntegerGroup()


@pytest.fixture
def leaky_group():
    return LeakyIntegerGroup()


@pytest.fixture(params=sorted(GROUPS))
def any_group(request):
    return GROUPS[request.param]
