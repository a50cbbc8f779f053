"""siltlab benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-f2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run imports siltlab from ``src/`` next to this directory, builds the
workload's inputs from ``--seed``, and repeats the workload (a *pass*,
always from fresh inputs) until the next pass would end after
``--seconds``; at least one pass always runs.  Untraced timings are in
reference seconds, corrected for the machine's speed as it ran (see
``speedclock.py``).  Every pass is checked against the workload's oracles
and against the first pass's report bytes.  The last line of stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` (correctness checks) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds ungated facts about the run
(passes and their wall times, also raw, latency samples per pass, set-up
and speed samples, failed and undecided ratios, report hash, first failed
checks).

With ``--trace 1`` one untraced pass runs first, then traced passes; the
traced reports must be byte-identical to the untraced one, and every
layer the workload is expected to reach must have seen calls.

``--smoke`` runs every workload kind on A2, untraced and traced, in a few
seconds, and checks the metric names against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speedclock import SpeedClock, raw_seconds
from tracer import Tracer, percentile
from workloads import FULL, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Where a pass's set-up takes milliseconds, extra set-up rounds run after
# each pass (so they sample the whole run, not one moment of it): at most
# SETUP_ROUNDS of them, within SETUP_BUDGET_S.  setup_s is the median of
# these and of the passes' own set-up times.
SETUP_ROUNDS = 5
SETUP_BUDGET_S = 0.25

# Layers each full workload must reach in a traced pass (calls > 0).
_SWEEP_LAYERS = [
    "linalg.row_reduce", "linalg.matmul", "reps.hom_space",
    "reps.direct_sum", "homology.minimal_resolution", "homology.ext_dim",
    "homology.minimal_presentation", "modclasses.trace_spans",
    "modclasses.subfac_facsub", "modclasses.left_perp0_of_gen",
    "corpus.enumerate_indecomposables", "corpus.is_indecomposable",
    "predicates.Workbench.hom", "predicates.Workbench.ext",
    "predicates.Workbench.pd", "predicates.Workbench.dsig",
    "predicates.Workbench.pair_trace", "harness.load_workbench",
    "harness.to_json_lines",
]
EXPECTED_LAYERS = {
    "verify-f2": _SWEEP_LAYERS + [
        "modclasses.pres_contains", "corpus.decompose",
        "predicates.Workbench.gen_eq_pres", "theorems.evaluate_candidate",
        "theorems.check_candidate"],
    "classify-f3": _SWEEP_LAYERS + [
        "corpus.decompose", "theorems.evaluate_candidate"],
    "corpus-brute": [
        "linalg.row_reduce", "linalg.matmul", "reps.hom_space",
        "corpus.enumerate_indecomposables", "corpus.is_indecomposable",
        "harness.to_json_lines"],
    "query-mix": _SWEEP_LAYERS,
}


def import_siltlab():
    """Import siltlab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import siltlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import siltlab from {src}: {exc}")
    if Path(siltlab.__file__).resolve().parent != src / "siltlab":
        sys.exit(f"perfbench: siltlab was imported from {siltlab.__file__}, "
                 f"not from {src}")
    return siltlab


class Run:
    """Passes of one workload, their correctness checks and metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def passes(self, seconds, started, setups=None):
        """Passes until the next one would end after ``seconds``.

        Garbage left by earlier passes (the library's modules hold
        reference cycles) is collected before each pass, untimed, so that
        passes stay independent and peak memory does not grow with the
        number of passes.  With ``setups`` given, each pass's set-up time
        and extra set-up rounds after it are appended to it, each as the
        list of its spans."""
        results = []
        while True:
            gc.collect()
            results.append(self.workload.run_pass())
            if setups is not None:
                setups.append(results[-1].setup)
                extra_setups(self.workload, setups)
            typical = statistics.median(raw_seconds(*r.wall)
                                        for r in results)
            if time.perf_counter() - started + typical > seconds:
                return results

    def check(self, results, label):
        """Oracle checks, and byte-identity with the first pass checked."""
        for result in results:
            for name, ok in self.workload.check(result):
                self.record(name, ok)
            if self.reference is None:
                self.reference = result.report
            else:
                self.record(
                    f"{label} report is byte-identical to the first pass",
                    result.report == self.reference)

    def facts(self, results, seconds) -> dict:
        first = results[0]
        return {
            "passes": len(results),
            "pass_wall_s": [seconds(*r.wall) for r in results],
            "pass_raw_wall_s": [raw_seconds(*r.wall) for r in results],
            "samples_per_pass": len(first.requests),
            "failed_ratio": len(self.failures) / max(self.attempted, 1),
            "undecided_ratio": first.undecided / first.reported,
            "report_sha256": hashlib.sha256(
                self.reference.encode()).hexdigest(),
            "failed_checks": self.failures[:10],
        }


def total(spans, seconds=raw_seconds) -> float:
    return sum(seconds(start, end) for start, end in spans)


def extra_setups(workload, setups):
    """Up to SETUP_ROUNDS set-up rounds while they fit in SETUP_BUDGET_S."""
    spent = 0.0
    for _ in range(SETUP_ROUNDS):
        if spent + statistics.median(map(total, setups)) > SETUP_BUDGET_S:
            return
        setups.append(workload.setup_round())
        spent += total(setups[-1])


def end_to_end(results, setups, seconds) -> dict:
    """Medians over the passes; latency percentiles are taken per pass."""
    first = results[0]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def median(values):
        return statistics.median(list(values))

    def latency_ms(result, q):
        return percentile([seconds(a, b) * 1e3 for a, b in result.requests],
                          q)

    return {
        "wall_s": (median(seconds(*r.wall) for r in results), "s"),
        "setup_s": (median(total(s, seconds) for s in setups), "s"),
        "sweep_s": (median(total(r.sweep, seconds) for r in results), "s"),
        "query_p50_ms": (median(latency_ms(r, 50) for r in results), "ms"),
        "query_p95_ms": (median(latency_ms(r, 95) for r in results), "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "decided_ratio": (1 - first.undecided / first.reported, "ratio"),
    }


def measure(siltlab, name, seed, seconds, trace, smoke=False):
    """(result line, facts) for one run of workload ``name``."""
    # Warm the code paths (imports, allocator) on the A2 version first.
    build(siltlab, name, seed, smoke=True).run_pass()
    run = Run(build(siltlab, name, seed, smoke=smoke))
    started = time.perf_counter()
    if not trace:
        setups: list[list[tuple[float, float]]] = []
        with SpeedClock() as clock:
            results = run.passes(seconds, started, setups)
        run.check(results, "untraced")
        metrics = end_to_end(results, setups, clock.seconds)
        facts = run.facts(results, clock.seconds) | {
            "setup_samples": len(setups),
            "speed_samples": clock.samples(),
            "raw_wall_s": statistics.median(
                raw_seconds(*r.wall) for r in results)}
    else:
        untraced = run.workload.run_pass()
        with Tracer(siltlab) as tracer:
            results = run.passes(seconds, started)
        run.check([untraced], "untraced")
        run.check(results, "traced")
        if not smoke:
            for layer in EXPECTED_LAYERS[name]:
                run.record(f"traced pass reached {layer}",
                           tracer.calls(layer) > 0)
        metrics = tracer.metrics(len(results))
        traced_wall = statistics.median(raw_seconds(*r.wall)
                                        for r in results)
        metrics["trace.overhead_ratio"] = (
            traced_wall / raw_seconds(*untraced.wall) - 1, "ratio")
        facts = run.facts([untraced] + results, raw_seconds)
    line = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return line, facts


def smoke(siltlab) -> int:
    """Every workload kind on A2, untraced and traced; 0 iff all pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            line, facts = measure(siltlab, workload, 1, 0, trace, smoke=True)
            names_match = sorted(line["metrics"]) == sorted(wanted[trace])
            passed = line["correct"] and names_match
            ok = ok and passed
            print(f"{'ok' if passed else 'FAIL'} {workload} trace={trace} "
                  f"checks={line['attempted']} "
                  f"failed={facts['failed_checks']} "
                  f"metric_names_match={names_match}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload kind on A2 and exit")
    args = parser.parse_args(argv)
    siltlab = import_siltlab()
    if args.smoke:
        return smoke(siltlab)
    if args.workload not in FULL:
        parser.error(f"--workload must be one of {', '.join(FULL)}")
    line, facts = measure(siltlab, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **facts}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
