"""Alternating before/after runs of the benchmark, summarised in one JSON file.

Run from the repository root:

    python3 tools/bench_pairs.py --base <rev> --change <rev> --pairs 10 --out BENCH_<n>.json

Each side is a ``git archive`` of its revision, extracted into a
temporary directory (under ``--workdir`` when given), so the benchmark
builds what it runs from committed files only and no network is needed.
For every workload in ``BENCHMARK.json`` the script runs ``--pairs``
pairs of ``python3 bench/run.py --workload <w> --seed <s> --seconds <t>
--trace 0``, one run per side on the same seed, switching which side
runs first from one pair to the next.  It then makes one ``--trace 1``
run per side and workload, and keeps its exact operation counts
(``traced_counts``) and its per-layer timings (``traced_timings``): one
traced run per side, so a timing there is a single reading, not a median.

The output holds, per workload and end-to-end metric, every run, each
side's median and quartiles, the base side's IQR, the pairs the change
won (ties count for neither side) and whether the gain rule holds: wins
in at least nine tenths of the pairs and medians further apart than the
base IQR.  It is rewritten after every pair, so an interrupted session
keeps what it measured.  ``all_correct`` per workload says whether every
run, traced ones included, reported ``correct`` with no failed
operation; a gain made by wrong outputs is no gain, so the script exits
1 after the final save when any run did not.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True, timeout=60)
    return done.stdout.strip()


def _extract(commit: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True, timeout=300)
    archive.stdout.close()
    if archive.wait(timeout=60):
        raise SystemExit(f"bench_pairs: git archive {commit} failed")
    return into


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its result object (``correct``, ``failed``, ``metrics``)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=max(600.0, 20 * seconds))
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def _ok(result: dict) -> bool:
    return result["correct"] is True and result["failed"] == 0


def _spread(runs: list) -> dict:
    if len(runs) < 2:  # quantiles needs two points; one run is its own quartiles
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(base_runs: list, change_runs: list, better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the gain and bound verdicts of one metric."""
    base, change = _spread(base_runs), _spread(change_runs)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base_runs, change_runs))
    losses = sum(sign * (b - c) < 0 for b, c in zip(base_runs, change_runs))
    gain = sign * (base["median"] - change["median"])
    iqr = base["q3"] - base["q1"]
    return {
        "base": base,
        "change": change,
        "base_iqr": iqr,
        "relative_change": change["median"] / base["median"] - 1 if base["median"] else None,
        "change_wins": wins,
        "change_losses": losses,
        "gain_holds": wins >= 0.9 * len(base_runs) and gain > iqr,
        "within_bound": -gain <= bound * abs(base["median"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision of the changed side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", help="where the temporary checkouts go")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    timings = [m["name"] for m in spec["per_layer"] if m["unit"] != "count"]
    sides = {"base": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
             "change": _git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    seeds = list(range(args.seed, args.seed + args.pairs))
    record = {
        "command": spec["command"] + ["--workload", "<w>", "--seed", "<s>",
                                      "--seconds", str(seconds), "--trace", "0"],
        "commits": sides,
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "base first in even-numbered pairs (0, 2, ...), change first in the others",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkouts = {side: _extract(commit, Path(tmp) / side) for side, commit in sides.items()}
        for w in spec["workloads"]:
            name = w["name"]
            runs = {"base": [], "change": []}
            row = record["workloads"][name] = {"runs": runs, "all_correct": True}
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    t0 = time.monotonic()
                    result = _bench(checkouts[side], name, seed, seconds, 0)
                    row["all_correct"] = row["all_correct"] and _ok(result)
                    runs[side].append({"seed": seed, "wall_s": round(time.monotonic() - t0, 1),
                                       "correct": result["correct"], "failed": result["failed"],
                                       "attempted": result["attempted"],
                                       "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                row["metrics"] = {
                    m["name"]: summarise([r["metrics"][m["name"]] for r in runs["base"]],
                                         [r["metrics"][m["name"]] for r in runs["change"]],
                                         m["better"], m["bound"])
                    for m in metrics
                }
                save()
                print(f"{name} pair {i + 1}/{len(seeds)}: " + ", ".join(
                    f"{k} {v['base']['median']:.4g} -> {v['change']['median']:.4g}"
                    for k, v in row["metrics"].items()), flush=True)
            row["traced_counts"], row["traced_timings"] = {}, {}
            for side in ("base", "change"):
                result = _bench(checkouts[side], name, seeds[0], seconds, 1)
                row["all_correct"] = row["all_correct"] and _ok(result)
                for key, names in (("traced_counts", counts), ("traced_timings", timings)):
                    row[key][side] = {k: result["metrics"][k]["value"] for k in names
                                      if k in result["metrics"]}
            save()
    wrong = [name for name, row in record["workloads"].items() if not row["all_correct"]]
    if wrong:
        print(f"bench_pairs: incorrect or failed runs on {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
