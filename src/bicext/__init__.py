"""Exact pair semigroups over pluggable linearly ordered groups.

Pairs of group elements multiply by a three-case anchored formula; the
library ships the order abstraction with four exact carriers, the pair
semigroup and its positive part, anchored partial shifts with a
composition oracle, the natural partial order with complete one-unknown
equation solvers, constructive discreteness certificates, and a property
suite runner that brute-checks every claim on finite windows; the runner
loads on first use, so a one-shot query, a fresh process, does not compile it.
"""

from .certificates import (
    DensityVerdict,
    EscapeCertificate,
    ExcludedRegion,
    WitnessChain,
    build_witness_chain,
    density_probe,
    dl_set_member,
    escape_certificate,
)
from .errors import (
    BicextError,
    InstanceMismatch,
    InternalDisagreement,
    InternalError,
    MalformedEquation,
    NotApplicable,
    OutOfDomain,
    ParseError,
    PreconditionViolated,
)
from .literals import parse_pair, parse_payload
from .natorder import (
    SolutionKind,
    SolutionSet,
    ideal_member,
    nat_leq,
    nat_leq_dual,
    nat_leq_oracle,
    solve_left,
    solve_right,
    solve_sandwich,
    up_set_window,
)
from .ogroups import (
    GROUPS,
    H3,
    Q,
    Z,
    ZXZ,
    ConeVerdict,
    HeisenbergGroup,
    IntegerGroup,
    LexPairGroup,
    OrderedGroup,
    RationalGroup,
    check_positive_cone_axioms,
    successor_check,
)
from .pairs import BElement, idempotent, pairs_in_window
from .shifts import (
    PartialShift,
    compose,
    compose_pointwise_oracle,
    pair_product_matches_shifts,
    pair_to_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BElement",
    "BicextError",
    "ConeVerdict",
    "DensityVerdict",
    "EscapeCertificate",
    "ExcludedRegion",
    "GROUPS",
    "H3",
    "HeisenbergGroup",
    "InstanceMismatch",
    "IntegerGroup",
    "InternalDisagreement",
    "InternalError",
    "LexPairGroup",
    "MalformedEquation",
    "NotApplicable",
    "OrderedGroup",
    "OutOfDomain",
    "ParseError",
    "PartialShift",
    "PreconditionViolated",
    "Q",
    "RationalGroup",
    "SolutionKind",
    "SolutionSet",
    "SuiteConfig",
    "SuiteReport",
    "WitnessChain",
    "Z",
    "ZXZ",
    "build_witness_chain",
    "check_positive_cone_axioms",
    "compose",
    "compose_pointwise_oracle",
    "density_probe",
    "dl_set_member",
    "escape_certificate",
    "ideal_member",
    "idempotent",
    "nat_leq",
    "nat_leq_dual",
    "nat_leq_oracle",
    "pair_product_matches_shifts",
    "pair_to_shift",
    "pairs_in_window",
    "parse_pair",
    "parse_payload",
    "run_suites",
    "solve_left",
    "solve_right",
    "solve_sandwich",
    "successor_check",
    "up_set_window",
]


def __getattr__(name):
    if name not in ("SuiteConfig", "SuiteReport", "run_suites"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import suites
    globals()[name] = value = getattr(suites, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
