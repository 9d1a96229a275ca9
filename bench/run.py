"""bicext benchmark: suite-runner wall time, single-call latency, set-up
time and memory, with carrier-operation counts per layer.

Run from the repository root:

    python3 bench/run.py --workload suite-z --seed 1 --seconds 50 --trace 0

One process, no threads, one closed-loop caller.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` makes a separate traced run that
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's context.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_clock = time.perf_counter

# stream sizes, in decks per carrier (a deck is about 40 requests)
MAIN_DECKS = 30
COMPANION_DECKS = 25
TRACE_DECKS = 40
STREAM_BATCH = 2048  # main-stream requests between host probes
STREAM_SLICE_S = 0.5  # main-stream time between companion suite calls
COMPANION_SHARE = 0.25  # companion-stream time after a suite call, as a share of it
MIN_PASSES = 5  # full stream passes a run makes even past its time limit
SETUP_SPAWNS = 21
BARE_SPAWN_S = 0.05  # a bare interpreter's spawn time on a calm host
PROBE_RUNS = 3  # kernel runs per host probe

TRACED_CHECKS = (
    "cone-axioms", "escape-region-sweep", "shift-bijectivity",
    "natorder-compatibility", "natleq-vs-oracle", "sandwich-complete",
    "ideal-membership", "pair-inverse-unique",
)
PER_CARRIER = {
    "construct": "pairs.construct_us",
    "mul": "pairs.mul_us",
    "nat_leq": "natorder.nat_leq_us",
    "nat_leq_oracle": "natorder.nat_leq_oracle_us",
    "solve_right": "natorder.solve_right_us",
}
PER_OP = {
    "solve_left": "natorder.solve_left_us",
    "solve_sandwich": "natorder.solve_sandwich_us",
    "up_set_window": "natorder.up_set_window_us",
    "compose": "shifts.compose_us",
    "build_witness_chain": "certificates.build_witness_chain_us",
    "escape_certificate": "certificates.escape_certificate_us",
    "parse_pair": "literals.parse_pair_us",
    "render": "literals.render_us",
    "cli.main": "cli.main_us",
}


class Tally:
    """Outcome counts over every operation the run attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # operations that raised or answered wrongly
        self.errors = 0  # operations that raised, or CLI calls exiting non-zero
        self.wrong = 0  # outputs that differ from the reference

    def record(self, errors: int = 0, wrong: int = 0):
        self.attempted += 1
        self.errors += errors
        self.wrong += wrong
        self.failed += bool(errors or wrong)


# --- host speed --------------------------------------------------------------


def _kernel_pairs():
    rng = random.Random("bicext-bench:kernel")
    out = []
    for _ in range(30):
        for g in reference.CARRIERS:
            if g == "Z":
                draw = lambda: rng.randint(-9, 9)  # noqa: E731
            elif g == "Q":
                draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))  # noqa: E731
            else:
                draw = lambda: tuple(rng.randint(-9, 9) for _ in range(reference.ARITY[g]))  # noqa: E731
            out.append((g, (draw(), draw()), (draw(), draw())))
    return out


_KERNEL_PAIRS = _kernel_pairs()


def _kernel():
    """Fixed interpreter work and no bicext code: raw-payload products and
    order tests from ``reference``, then building and sorting a dict.

    Neither half alone tracks the program when the host is busy: pure
    arithmetic slows more than the stream's allocation-heavy calls, and
    allocation slows less than the suites.  Together they track both.
    """
    for g, s, t in _KERNEL_PAIRS:
        reference.product(g, s, t)
        reference.below(g, s, t)
    table = {(i, i * 7 % 13): [i, str(i)] for i in range(3000)}
    return sorted(table.items(), key=lambda kv: kv[1][1])


class HostSpeed:
    """How fast the host runs, from a fixed kernel timed around each unit of work.

    On a shared host the CPU speed drifts in phases of seconds to minutes,
    by up to a factor of two between runs.  Each timed unit (a suite call
    or a stream batch) is bracketed by two probes of the kernel and scaled
    by ``REFERENCE_S`` over their mean, so it reads as a time on a calm
    host; metrics are then medians over the run's units.
    """

    REFERENCE_S = 0.0033  # the kernel's time on a calm host of the committed baseline

    def __init__(self):
        self.best = float("inf")

    def probe(self, runs: int = PROBE_RUNS) -> float:
        """The kernel's fastest time over ``runs`` runs, now."""
        fastest = float("inf")
        for _ in range(runs):
            t0 = _clock()
            _kernel()
            fastest = min(fastest, _clock() - t0)
        self.best = min(self.best, fastest)
        return fastest

    def factor(self, before: float, after: float) -> float:
        """Scale for a time taken between probes ``before`` and ``after``."""
        return 2 * self.REFERENCE_S / (before + after)


def _report_exception(what: str):
    print(f"bench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --- the two loads -------------------------------------------------------------


class Stream:
    """Closed-loop execution of generated requests, checked in batches.

    Requests run in order, cycling through the stream.  Each full pass
    gives its throughput and latency percentiles over every request once;
    the metrics are medians over passes.
    """

    def __init__(self, requests, groups, tally: Tally):
        import workloads

        self.requests = requests
        self.calls = workloads.materialize(requests, groups)
        self.tally = tally
        self.next = 0
        self.done = 0
        self.latency = array("d", [0.0]) * len(requests)
        self.passes = []  # (ops per second, p50, p99) of each full pass

    def batch(self, count: int, host: HostSpeed = None, spans=None, parent=None):
        """Time ``count`` requests, cycling the stream, then check them.

        With ``host``, latencies are scaled by probes around the batch.
        """
        import workloads

        n = len(self.calls)
        picks = [(self.next + k) % n for k in range(count)]
        self.next = (self.next + count) % n
        outs, raw = [], []
        before = host.probe() if host else None
        for i in picks:
            fn, args = self.calls[i]
            t0 = _clock()
            try:
                out = fn(*args)
            except Exception as exc:  # counted, never fatal
                out = exc
            t1 = _clock()
            raw.append(t1 - t0)
            outs.append(out)
            if spans is not None:
                r = self.requests[i]
                spans.add(r.op, t0, t1, parent, carrier=r.carrier)
        factor = host.factor(before, host.probe()) if host else 1.0
        for i, dt in zip(picks, raw):
            self.latency[i] = dt * factor
            if i == n - 1:
                self._close_pass()
        self.done += count
        for i, out in zip(picks, outs):
            r = self.requests[i]
            if isinstance(out, Exception):
                print(f"bench: {r.variant} on {r.carrier} raised {out!r}", file=sys.stderr)
                self.tally.record(errors=1)
            elif r.op == "cli.main" and out[0] != 0:
                print(f"bench: cli {r.args[0]} exited {out[0]}", file=sys.stderr)
                self.tally.record(errors=1)
            else:
                self.tally.record(wrong=0 if workloads.check(r, out) else 1)

    def _close_pass(self):
        q = statistics.quantiles(self.latency, n=100, method="inclusive")
        self.passes.append((len(self.latency) / math.fsum(self.latency), q[49], q[98]))

    def metrics(self) -> dict:
        ops, p50, p99 = (statistics.median(col) for col in zip(*self.passes))
        return {
            "api_ops_per_s": (ops, "1/s"),
            "api_p50_us": (p50 * 1e6, "us"),
            "api_p99_us": (p99 * 1e6, "us"),
        }


class Suite:
    """Repeated full ``run_suites`` calls, each checked against the table
    and against the first call's outcomes.  ``wall_s`` is the median
    host-scaled wall time of a call.
    """

    def __init__(self, workload, seed: int, group, tally: Tally):
        from bicext import SuiteConfig

        self.carrier = workload.carrier
        self.cfg = SuiteConfig(group=group, window=workload.window, sample_seed=seed)
        self.tally = tally
        self.raw_walls = []
        self.walls = []
        self.first = None

    @property
    def wall_s(self) -> float:
        return statistics.median(self.walls)

    def call(self, host: HostSpeed = None):
        import workloads
        from bicext import run_suites

        before = host.probe() if host else None
        t0 = _clock()
        try:
            report = run_suites(self.cfg)
        except Exception:  # counted, never fatal
            _report_exception("run_suites")
            self.tally.record(errors=1)
            return None
        wall = _clock() - t0
        self.raw_walls.append(wall)
        self.walls.append(wall * (host.factor(before, host.probe()) if host else 1.0))
        wrong = workloads.wrong_verdicts(report, self.carrier)
        if self.first is None:
            self.first = report
        else:
            want, got = workloads.outcomes(self.first), workloads.outcomes(report)
            wrong += sum(1 for a, b in zip(want, got) if a != b) + abs(len(want) - len(got))
        self.tally.record(wrong=wrong)
        return report


def _spawn_s(code: str, env: dict) -> float:
    """Time from spawning an interpreter running ``code`` until ``code`` reports.

    The child prints the monotonic clock, which all processes share.
    """
    t0 = _clock()
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout) - t0


def measure_setup() -> float:
    """Median host-scaled time from spawning an interpreter to ``import bicext, bicext.cli``.

    Start-up and imports slow down less than ``_kernel`` when the host
    is busy, so each spawn is scaled by bare-interpreter spawns made
    just before and after it: ``BARE_SPAWN_S`` over their mean.  The
    first spawn only warms the bytecode cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    clock = "import time; print(repr(time.perf_counter()))"
    program = "import bicext, bicext.cli; " + clock
    _spawn_s(program, env)
    times = []
    before = _spawn_s(clock, env)
    for _ in range(SETUP_SPAWNS):
        took = _spawn_s(program, env)
        after = _spawn_s(clock, env)
        times.append(took * 2 * BARE_SPAWN_S / (before + after))
        before = after
    return statistics.median(times)


# --- runs ------------------------------------------------------------------------


def run_untraced(workload, seed: int, seconds: float, tally: Tally, host: HostSpeed):
    import workloads
    from bicext import GROUPS

    suite = Suite(workload, seed, GROUPS[workload.carrier], tally)
    stream_decks = MAIN_DECKS if workload.main == "stream" else COMPANION_DECKS
    requests = workloads.make_stream(workload.stream_carriers, seed, stream_decks)
    stream = Stream(requests, GROUPS, tally)
    # the collector should not keep walking the benchmark's own inputs
    gc.collect()
    gc.freeze()

    setup_s = measure_setup()
    deadline = _clock() + seconds
    calls = 0
    while _clock() < deadline or calls < workload.min_calls or len(stream.passes) < MIN_PASSES:
        calls += 1
        if workload.main == "suite":
            t0 = _clock()
            suite.call(host)
            stream_end = _clock() + (_clock() - t0) * COMPANION_SHARE
            stream.batch(len(requests), host)
            while _clock() < stream_end:
                stream.batch(len(requests), host)
        else:
            slice_end = _clock() + STREAM_SLICE_S
            while _clock() < slice_end:
                stream.batch(STREAM_BATCH, host)
            suite.call(host)

    metrics = {"suite_wall_s": (suite.wall_s, "s")}
    metrics.update(stream.metrics())
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    context = {
        "suites.cases": suite.first.totals()["cases"] if suite.first else None,
        "suite_calls": len(suite.walls),
        "suite_call_median_raw_s": statistics.median(suite.raw_walls),
        "stream_calls": stream.done,
        "stream_passes": len(stream.passes),
    }
    return metrics, context


def _median_us(stream: Stream, op: str, carrier: str = None) -> float:
    return 1e6 * statistics.median(
        t for r, t in zip(stream.requests, stream.latency)
        if r.op == op and (carrier is None or r.carrier == carrier)
    )


def run_traced(workload, seed: int, tally: Tally, host: HostSpeed):
    """Per-layer metrics from a separate run that leaves outputs unchanged.

    Check times come from one untraced ``run_suites`` call.  The suites
    are then run one call per suite on a counting carrier, and must
    produce the same outcomes.  The stream is run once on the shipped
    carriers with a span per request, for latencies, and once on
    counting carriers, for operation counts.  Each of these sections is
    scaled by host probes around it, as in the untraced run.
    """
    import tracing
    import workloads
    from bicext import GROUPS, SuiteConfig, run_suites

    counted = {g: tracing.counting(GROUPS[g]) for g in reference.CARRIERS}
    tracer = tracing.Tracer(counted.values())

    plain = Suite(workload, seed, GROUPS[workload.carrier], tally)
    report = plain.call(host)
    traced_outcomes = []
    before = host.probe()
    with tracer.span("suites", carrier=workload.carrier, window=workload.window) as suites_span:
        for name in workloads.SUITE_CHECKS:
            cfg = SuiteConfig(group=counted[workload.carrier], window=workload.window,
                              sample_seed=seed, suites=(name,))
            with tracer.span(f"suites.{name}", parent=suites_span):
                part = run_suites(cfg)
            traced_outcomes += workloads.outcomes(part)
            tally.record(wrong=workloads.wrong_verdicts(part, workload.carrier, suites=(name,)))
    suites_factor = host.factor(before, host.probe())
    if report is not None:
        want = workloads.outcomes(report)
        mismatched = sum(1 for a, b in zip(want, traced_outcomes) if a != b)
        tally.record(wrong=mismatched + abs(len(want) - len(traced_outcomes)))

    requests = workloads.make_stream(reference.CARRIERS, seed, TRACE_DECKS)
    timed = Stream(requests, GROUPS, tally)
    with tracer.span("stream.timed") as timed_span:
        for start in range(0, len(requests), STREAM_BATCH):
            count = min(STREAM_BATCH, len(requests) - start)
            timed.batch(count, host, spans=tracer, parent=timed_span)
    before = host.probe()
    with tracer.span("stream.counted") as counted_span:
        Stream(requests, counted, tally).batch(len(requests))
    counted_factor = host.factor(before, host.probe())

    main_span, main_factor = ((suites_span, suites_factor) if workload.main == "suite"
                              else (counted_span, counted_factor))
    metrics = {f"ogroups.{k}": (v, "count") for k, v in main_span["ops"].items()
               if k != "busy_s"}
    metrics["ogroups.busy_s"] = (main_span["ops"]["busy_s"] * main_factor, "s")
    if report is not None:
        plain_factor = plain.walls[0] / plain.raw_walls[0]
        by_suite = {}
        for c in report.checks:
            by_suite[c.suite] = by_suite.get(c.suite, 0.0) + c.wall_ms * plain_factor
        metrics.update({f"suites.{s}.wall_ms": (v, "ms") for s, v in by_suite.items()})
        walls = {c.name: c.wall_ms * plain_factor for c in report.checks}
        metrics.update({f"suites.{c}.wall_ms": (walls[c], "ms") for c in TRACED_CHECKS})
        metrics["suites.slowest_check_ms"] = (max(walls.values()), "ms")
        metrics["suites.cases"] = (report.totals()["cases"], "count")
        traced_s = (suites_span["end"] - suites_span["start"]) * suites_factor
        metrics["trace.overhead_s"] = (traced_s - plain.walls[0], "s")
    for op, name in PER_CARRIER.items():
        for g in reference.CARRIERS:
            metrics[f"{name}.{g}"] = (_median_us(timed, op, g), "us")
    for op, name in PER_OP.items():
        metrics[name] = (_median_us(timed, op), "us")
    metrics["host.kernel_ms"] = (host.best * 1e3, "ms")

    spans = tracer.spans
    out = ROOT / ".bench_build"
    out.mkdir(exist_ok=True)
    (out / f"spans-{workload.name}-{seed}.json").write_text(json.dumps(spans))
    context = {"suites.cases": metrics.get("suites.cases", (None,))[0],
               "spans": len(spans), "suite_ops": suites_span["ops"],
               "stream_ops": counted_span["ops"]}
    return metrics, context


# --- entry point -------------------------------------------------------------------


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import bicext from it."""
    if not (SRC / "bicext" / "__init__.py").is_file():
        print(f"bench: no bicext sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    try:
        import bicext
    except ImportError:
        _report_exception("import bicext")
        return False
    if Path(bicext.__file__).resolve().parent != (SRC / "bicext").resolve():
        print(f"bench: bicext imported from {bicext.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    host = HostSpeed()
    if args.trace:
        metrics, extra = run_traced(workload, args.seed, tally, host)
    else:
        metrics, extra = run_untraced(workload, args.seed, args.seconds, tally, host)

    context = {
        "workload": workload.name,
        "definition": workload.describe(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "wrong_verdicts": tally.wrong,
        "error_rate": tally.errors / max(1, tally.attempted),
        "host_kernel_ms": host.best * 1e3,
        **extra,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"wrong_verdicts = {tally.wrong} count")
    print(f"error_rate = {context['error_rate']:.6g} 1")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
