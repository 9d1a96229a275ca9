import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import report_parity  # noqa: E402


def test_first_difference_names_the_first_entry_that_differs():
    base = {"report Z w1 s0": {"ok": True}, "cli inv '[3|5]'": [0, "[5|3]\n", ""]}
    assert report_parity.first_difference(base, dict(base)) is None
    changed = {**base, "cli inv '[3|5]'": [0, "[5|4]\n", ""]}
    assert report_parity.first_difference(base, changed) == "cli inv '[3|5]'"
    # an entry on one side only differs too, wherever it stands
    assert report_parity.first_difference(base, {"cli inv '[3|5]'": base["cli inv '[3|5]'"]}) == (
        "report Z w1 s0"
    )
    assert report_parity.first_difference(base, {**base, "report Q w1 s0": {}}) == "report Q w1 s0"


def test_records_drop_wall_times_and_read_the_readme_table():
    report = {"checks": [{"name": "group-laws", "wall_ms": 1.5}], "summary": {"cases": 3}}
    assert report_parity._strip(report) == {"checks": [{"name": "group-laws"}], "summary": {"cases": 3}}
    readme = (
        "run `bicext check` to test\n"
        "| `inv`  | `bicext inv \"[3|5]\"` |\n"
        "| `pmap` | `bicext pmap apply --g 2 --h 5 --x 3` |\n"
    )
    assert report_parity.readme_commands(readme) == [
        ["inv", "[3|5]"], ["pmap", "apply", "--g", "2", "--h", "5", "--x", "3"],
    ]
