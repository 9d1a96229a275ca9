"""Run tier-1 against one-line mutants of the fast paths and the checks.

Run from the repository root:

    python3 tools/mutants.py [--workdir <dir>]

``MUTANTS`` is the table: for each mutant, the module under
``src/bicext``, the exact text it replaces (which must occur exactly
once), the text put in its place, and the claim the slip breaks.
``HEAD`` is extracted once with ``bench_pairs._extract``, and tier-1
runs there unmutated first: if it fails, the script exits 1 before any
mutant, since a failing suite would score every mutant killed.  Each
mutant is then written into that checkout on its own, tier-1 runs there
with ``-x``, and the module is put back before the next mutant.  The
run leaves out ``tests/test_mutants.py``, which fails on every mutant:
it checks that each table text is still in the source.

A mutant is killed when tier-1 fails, or when it runs past
``TIER1_TIMEOUT_S`` (a mutant that makes a test hang); the script names
the first failing test.  It prints one line per mutant and the score,
and exits 1 when a mutant survives that ``EQUIVALENT`` does not list
with a reason, or when a table entry's text does not occur exactly
once.  A run takes up to about 25 s per mutant, so the full run is not
part of tier-1; ``tests/test_mutants.py`` checks only that the table
still applies.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _extract, _git

# id: (module, old text, new text, the claim the mutant breaks)
MUTANTS = {
    "product-group-check": (
        "pairs", "if other.group is not g and other.group != g:", "if False:",
        "a product of pairs over two carriers raises InstanceMismatch",
    ),
    "inverse-swap": (
        "pairs", "return _make(self.group, self.right, self.left)",
        "return _make(self.group, self.left, self.right)",
        "[b|a] is the unique inverse of [a|b]",
    ),
    "natleq-reflexive": (
        "natorder", "return g.cmp(s.left, t.left) >= 0 and", "return g.cmp(s.left, t.left) > 0 and",
        "the natural order holds at s = t",
    ),
    "solve-right-multiply-back": (
        "natorder", "if known * w != target or (bplus and not w.in_bplus()):",
        "if bplus and not w.in_bplus():",
        "a unique right solution that does not multiply back raises InternalError",
    ),
    "h3-carry": (
        "ogroups", "s * (z[1] - y[1])", "s * (z[1] + y[1])",
        "H3 carry(x, y, z) is x * y^-1 * z",
    ),
    "q-mul-reduction": (
        "ogroups", "return _fraction(t // k2, s * (db // k2))", "return _fraction(t, s * db)",
        "every Q product is a reduced fraction",
    ),
    "cone-conjugation": (
        "ogroups", "conj = group.mul(group.mul(group.inv(x), g), x)", "conj = g",
        "the cone checker tests stability under conjugation",
    ),
    "pointwise-domain": (
        "shifts", "if composite.in_domain(x) != chained:", "if False:",
        "the composition oracle compares domains, not only values",
    ),
    "density-minimal-positive": (
        "certificates", "minimal = group.successor(group.identity)", "minimal = group.identity",
        "a discrete carrier's minimal positive element is the identity's successor",
    ),
    "chain-step-two": (
        "certificates", "if left_translator * target != intermediate:", "if False:",
        "a witness chain whose second step does not multiply back raises InternalError",
    ),
    "escape-landed": (
        "certificates", "if not landed:", "if False:",
        "an escape product that misses its ideal raises InternalError",
    ),
    "dl-set-above-anchor": (
        "suites", "if not direct == characterized == above_anchor:",
        "if not direct == characterized:",
        "dl-set-equivalence compares the stabilizer test with the order test too",
    ),
    "suite-window-type": (
        "suites", "if type(window) is not int:", "if False:",
        "SuiteConfig refuses a window that is not an int",
    ),
    "exact-required": (
        "cli", "required <= seen", "True",
        "an exact-token line that omits a required option goes to argparse, which refuses it",
    ),
    "q-literal-reduction": (
        "literals", "k, j = gcd(n, d), gcd(p, q)", "k = j = 1",
        "a matched Q literal is the reduced fraction Fraction(n, d) builds",
    ),
    "h3-contains-coordinate": (
        "ogroups", "and type(x[2]) is int", "and True",
        "H3 membership refuses a non-int in every coordinate",
    ),
}

# id: why no test can tell the mutant from the original
EQUIVALENT: dict = {}

# a test id may hold spaces; the summary appends " - <message>" when there is one
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)

# a mutant that makes a test hang counts as killed once tier-1 runs this long
TIER1_TIMEOUT_S = 1800


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "bicext" / f"{module}.py"


def mutate(source: str, old: str, new: str) -> str:
    """``source`` with its one occurrence of ``old`` replaced by ``new``;
    a ValueError when ``old`` does not occur exactly once."""
    count = source.count(old)
    if count != 1:
        raise ValueError(f"{old!r} occurs {count} times, not once")
    return source.replace(old, new)


def killing_test(output: str):
    """The id of the first failing test in pytest's short summary, or None."""
    match = _FIRST_FAILURE.search(output)
    return match.group(1) if match else None


def _tier1(checkout: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore", "tests/test_mutants.py"]
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=TIER1_TIMEOUT_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="where the temporary checkout goes")
    args = parser.parse_args(argv)

    commit = _git("rev-parse", "--verify", "HEAD^{commit}")
    killed, survivors = 0, []
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkout = _extract(commit, Path(tmp) / "checkout")
        # a failure here would score every mutant killed
        clean = _tier1(checkout)
        if clean.returncode:
            print(f"mutants: tier-1 fails on the unmutated checkout at {commit[:12]}: "
                  f"{killing_test(clean.stdout) or f'exit {clean.returncode}'}", file=sys.stderr)
            return 1
        for mutant, (module, old, new, claim) in MUTANTS.items():
            path = module_path(checkout, module)
            source = path.read_text()
            try:
                path.write_text(mutate(source, old, new))
            except ValueError as exc:
                print(f"mutants: {mutant}: {exc} in {module}.py", file=sys.stderr)
                return 1
            try:
                done = _tier1(checkout)
            except subprocess.TimeoutExpired:
                done = None
            finally:
                path.write_text(source)
            if done is None:
                killed += 1
                verdict = f"killed by timeout after {TIER1_TIMEOUT_S} s"
            elif done.returncode:
                killed += 1
                verdict = f"killed by {killing_test(done.stdout) or f'exit {done.returncode}'}"
            elif mutant in EQUIVALENT:
                verdict = f"survived, equivalent: {EQUIVALENT[mutant]}"
            else:
                verdict = f"SURVIVED; breaks: {claim}"
                survivors.append(mutant)
            print(f"{mutant} ({module}): {verdict}", flush=True)
    print(f"mutants: {killed} of {len(MUTANTS)} killed at {commit[:12]}, "
          f"{len(survivors)} unlisted survivors")
    return 1 if survivors else 0

if __name__ == "__main__":
    sys.exit(main())
