"""Exact pair semigroups over pluggable linearly ordered groups.

Pairs of group elements multiply by a three-case anchored formula; the
library ships the order abstraction with four exact carriers, the pair
semigroup and its positive part, anchored partial shifts with a
composition oracle, the natural partial order with complete one-unknown
equation solvers, constructive discreteness certificates, and a property
suite runner that brute-checks every claim on finite windows.

Each public name is listed once, in ``_MODULE_OF``, with the submodule
that defines it, and ``__all__`` is that table sorted. ``import bicext``
loads no submodule: the first read of a name imports its submodule and
binds the name here, so a fresh process compiles only the submodules
whose names it reads, and every later read is a plain attribute read.
``bicext.cli`` reads every library name through this table too, so a
command loads only the submodules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULE_OF = {
    "BElement": "pairs",
    "BicextError": "errors",
    "ConeVerdict": "ogroups",
    "DensityVerdict": "certificates",
    "EscapeCertificate": "certificates",
    "ExcludedRegion": "certificates",
    "GROUPS": "ogroups",
    "H3": "ogroups",
    "HeisenbergGroup": "ogroups",
    "InstanceMismatch": "errors",
    "IntegerGroup": "ogroups",
    "InternalDisagreement": "errors",
    "InternalError": "errors",
    "LexPairGroup": "ogroups",
    "MalformedEquation": "errors",
    "NotApplicable": "errors",
    "OrderedGroup": "ogroups",
    "OutOfDomain": "errors",
    "ParseError": "errors",
    "PartialShift": "shifts",
    "PreconditionViolated": "errors",
    "Q": "ogroups",
    "RationalGroup": "ogroups",
    "SolutionKind": "natorder",
    "SolutionSet": "natorder",
    "SuiteConfig": "suites",
    "SuiteReport": "suites",
    "WitnessChain": "certificates",
    "Z": "ogroups",
    "ZXZ": "ogroups",
    "build_witness_chain": "certificates",
    "check_positive_cone_axioms": "ogroups",
    "compose": "shifts",
    "compose_pointwise_oracle": "shifts",
    "density_probe": "certificates",
    "dl_set_member": "certificates",
    "escape_certificate": "certificates",
    "escape_region": "certificates",
    "ideal_member": "natorder",
    "idempotent": "pairs",
    "nat_leq": "natorder",
    "nat_leq_dual": "natorder",
    "nat_leq_oracle": "natorder",
    "pair_product_matches_shifts": "shifts",
    "pair_to_json": "pairs",
    "pair_to_shift": "shifts",
    "pairs_in_window": "pairs",
    "parse_pair": "literals",
    "parse_payload": "literals",
    "run_suites": "suites",
    "solve_left": "natorder",
    "solve_right": "natorder",
    "solve_sandwich": "natorder",
    "successor_check": "ogroups",
    "up_set_window": "natorder",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
