"""Compare the suite reports and CLI answers of two revisions, entry by entry.

Run from the repository root:

    python3 tools/report_parity.py --base <rev> [--change <rev>]

Each side is a ``git archive`` of its revision, extracted with
``bench_pairs._extract`` into a temporary directory (under ``--workdir``
when given).  A child process per side, with that checkout's ``src`` and
``tests`` first on its path, writes one record: for every carrier,
window and seed of ``MATRIX`` at seeds 0-2, the stripped
``run_suites(...).to_json()``, and for every command of the README's
command table, in text and in ``--output json`` form, what an in-process
``cli.main`` gives: exit code, stdout and stderr.  Stripped means every
``wall_ms`` field is dropped, the one part of a report that is not
byte-stable.  The command lines are read from the change side's README,
so both sides answer the same lines.

The script prints how many entries agree and exits 0, or names the
first entry that differs, with both sides' values, and exits 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _extract, _git

# carrier name (a GROUPS key, or a carrier class in tests/conftest.py) and
# its windows; every window runs at each of SEEDS
MATRIX = {
    "Z": range(1, 5), "Q": range(1, 4), "ZxZ": range(1, 4), "H3": range(1, 4),
    "TamperedIntegerGroup": range(1, 5), "LeakyIntegerGroup": range(1, 5),
}
SEEDS = range(3)
_EXAMPLE = re.compile(r"`bicext ([^`]+)`")


def readme_commands(readme: str) -> list:
    """The argument lists of the README command table's examples."""
    return [
        shlex.split(m.group(1))
        for line in readme.splitlines() if line.startswith("|")
        for m in _EXAMPLE.finditer(line)
    ]


def _strip(value):
    """``value`` with every ``wall_ms`` field dropped, at any depth."""
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "wall_ms"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def collect(commands: list) -> dict:
    """This process's record: entry name to value, in a fixed order.  Run
    with one checkout's ``src`` and ``tests`` first on ``sys.path``."""
    import conftest
    from bicext import cli
    from bicext.ogroups import GROUPS
    from bicext.suites import SuiteConfig, run_suites

    record = {}
    for name, windows in MATRIX.items():
        group = name if name in GROUPS else getattr(conftest, name)()
        for window in windows:
            for seed in SEEDS:
                report = run_suites(SuiteConfig(group=group, window=window, sample_seed=seed))
                record[f"report {name} w{window} s{seed}"] = _strip(report.to_json())
    for argv in commands:
        for line in (argv, argv + ["--output", "json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(line))
                except SystemExit as exc:
                    code = exc.code
            try:
                stdout = json.dumps(_strip(json.loads(out.getvalue())), sort_keys=True)
            except ValueError:
                stdout = out.getvalue()
            record["cli " + shlex.join(line)] = [code, stdout, err.getvalue()]
    return record


def first_difference(base: dict, change: dict):
    """The name of the first entry, in ``base``'s order and then
    ``change``'s, that is missing on one side or differs; None when the
    records agree."""
    missing = object()
    for name in [*base, *(k for k in change if k not in base)]:
        if base.get(name, missing) != change.get(name, missing):
            return name
    return None


def _side_record(checkout: Path, commands: list, out: Path) -> dict:
    """Run ``collect`` on ``checkout``'s code in a child process."""
    tools = Path(__file__).resolve().parent
    path = os.pathsep.join(str(p) for p in (checkout / "src", checkout / "tests", tools))
    code = ("import json, sys, report_parity; "
            "json.dump(report_parity.collect(json.loads(sys.argv[1])), open(sys.argv[2], 'w'))")
    subprocess.run([sys.executable, "-c", code, json.dumps(commands), str(out)], cwd=checkout,
                   env={**os.environ, "PYTHONPATH": path}, check=True, timeout=1800)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision of the changed side")
    parser.add_argument("--workdir", help="where the temporary checkouts go")
    args = parser.parse_args(argv)

    sides = {"base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
             "change": _git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkouts = {side: _extract(commit, Path(tmp) / side) for side, commit in sides.items()}
        commands = readme_commands((checkouts["change"] / "README.md").read_text())
        records = {side: _side_record(checkout, commands, Path(tmp) / f"{side}.json")
                   for side, checkout in checkouts.items()}
    name = first_difference(records["base"], records["change"])
    if name is not None:
        print(f"report_parity: {sides['base']} and {sides['change']} differ first at {name!r}",
              file=sys.stderr)
        for side, record in records.items():
            print(f"  {side}: {json.dumps(record.get(name))[:2000]}", file=sys.stderr)
        return 1
    print(f"report_parity: {len(records['base'])} entries identical "
          f"({sides['base'][:12]} against {sides['change'][:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
