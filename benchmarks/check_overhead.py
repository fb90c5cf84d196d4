"""Guard against instrumentation overhead creeping into the kernel.

Compares a fresh pytest-benchmark JSON dump against the recorded
``BENCH_kernel.json`` numbers and fails when a kernel benchmark got
slower than the allowed factor::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro.py -q \\
        -k "event_throughput or event_chain" --benchmark-json=/tmp/b.json
    python benchmarks/check_overhead.py /tmp/b.json --tolerance 1.6

The observability layer (spans, profiler hooks, trace sink) must be
free when disabled: the fast event loop is untouched and the per-entry
sink is one attribute check.  Local regression budget is 5%
(``--tolerance 1.05``); CI shares cores with other jobs, so its default
budget is looser — the guard is for order-of-magnitude mistakes (an
accidentally always-on profiler), not for microbenchmark jitter.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

#: Benchmarks that exercise the bare kernel dispatch loop.
KERNEL_BENCHES = ("test_micro_event_throughput", "test_micro_event_chain")

#: The canonical voice soak behind ``soak_sim_seconds_per_wall_s``; must
#: match ``bench_to_json.VOICE_SOAK_SIM_SECONDS``.
VOICE_SOAK = "test_micro_soak_voice"
VOICE_SOAK_SIM_SECONDS = 600.0


class FreshGate(NamedTuple):
    """One fresh-vs-fresh overhead gate: an instrumented soak against
    its plain twin from the *same* fresh run, so no recorded baseline
    is involved and the ratio is immune to machine differences."""

    #: Verdict-line prefix; ``{plain}`` / ``{inst}`` take the timings.
    label: str
    instrumented: str
    plain: str
    #: argparse dest of the budget flag.
    tolerance_flag: str
    #: Name reported in the failure tuple.
    failure_key: str
    #: Line printed when either bench is missing from the input.
    skipped: str


FRESH_GATES = (
    # The series sampler against the plain closed-loop soak.
    FreshGate("series sampler overhead: plain {plain}, sampled {inst}",
              "test_micro_soak_with_series", "test_micro_soak_workload",
              "series_tolerance", "series_sampler_overhead",
              "series overhead: skipped (soak pair not in input)"),
    # Serve mode slices the identical open-loop workload through
    # run_paced and publishes a telemetry view per quantum.
    FreshGate("serve pacing overhead: plain {plain}, served {inst}",
              "test_micro_soak_served", "test_micro_soak_openloop",
              "pacing_tolerance", "serve_pacing_overhead",
              "pacing overhead: skipped (served/plain soak pair not in input)"),
    # The always-on flight recorder rides the trace sink, so its cost
    # is measured against the *traced* soak.
    FreshGate("flight recorder overhead: traced {plain}, recorded {inst}",
              "test_micro_soak_flight_recorder", "test_micro_soak_traced",
              "recorder_tolerance", "flight_recorder_overhead",
              "recorder overhead: skipped (traced soak pair not in input)"),
)


def check(fresh: dict, baseline: dict, tolerance: float) -> list:
    failures = []
    fresh_by_name = {b["name"]: b["stats"] for b in fresh.get("benchmarks", [])}
    base_by_name = baseline.get("benchmarks", {})
    for name in KERNEL_BENCHES:
        stats = fresh_by_name.get(name)
        base = base_by_name.get(name)
        if stats is None or base is None:
            print(f"{name}: skipped (not present in both inputs)")
            continue
        ratio = stats["min"] / base["min_s"]
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        print(
            f"{name}: baseline {base['min_s']:.5f}s, fresh "
            f"{stats['min']:.5f}s ({ratio:.2f}x, budget {tolerance:.2f}x) "
            f"{verdict}"
        )
        if ratio > tolerance:
            failures.append((name, ratio))
    return failures


def check_fresh_pairs(fresh: dict, tolerances: dict) -> list:
    """Walk :data:`FRESH_GATES`; *tolerances* maps each gate's
    ``tolerance_flag`` to its budget (the parsed CLI namespace)."""
    fresh_by_name = {b["name"]: b["stats"] for b in fresh.get("benchmarks", [])}
    failures = []
    for gate in FRESH_GATES:
        a = fresh_by_name.get(gate.instrumented)
        b = fresh_by_name.get(gate.plain)
        if a is None or b is None:
            print(gate.skipped)
            continue
        tolerance = tolerances[gate.tolerance_flag]
        ratio = a["min"] / b["min"]
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        timings = gate.label.format(
            plain=f"{b['min']:.5f}s", inst=f"{a['min']:.5f}s"
        )
        print(f"{timings} ({ratio:.2f}x, budget {tolerance:.2f}x) {verdict}")
        if ratio > tolerance:
            failures.append((gate.failure_key, ratio))
    return failures


def check_soak_throughput(fresh: dict, baseline: dict, tolerance: float) -> list:
    """Guard the headline soak throughput: the fresh voice-soak run,
    converted to simulated-seconds-per-wall-second, must not fall more
    than *tolerance* below the recorded
    ``derived.soak_sim_seconds_per_wall_s``."""
    recorded = baseline.get("derived", {}).get("soak_sim_seconds_per_wall_s")
    fresh_by_name = {b["name"]: b["stats"] for b in fresh.get("benchmarks", [])}
    stats = fresh_by_name.get(VOICE_SOAK)
    if recorded is None or stats is None:
        print("soak throughput: skipped (voice soak not in both inputs)")
        return []
    fresh_rate = VOICE_SOAK_SIM_SECONDS / stats["min"]
    floor = recorded / tolerance
    verdict = "ok" if fresh_rate >= floor else "REGRESSION"
    print(
        f"soak throughput: recorded {recorded:.0f} sim-s/wall-s, fresh "
        f"{fresh_rate:.0f} (floor {floor:.0f} at {tolerance:.2f}x budget) "
        f"{verdict}"
    )
    if fresh_rate < floor:
        return [("soak_sim_seconds_per_wall_s", recorded / fresh_rate)]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="fresh pytest-benchmark JSON dump")
    parser.add_argument(
        "--baseline",
        default="BENCH_kernel.json",
        help="recorded kernel numbers (default: BENCH_kernel.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.6,
        help="allowed fresh/baseline min-time ratio (default: 1.6)",
    )
    parser.add_argument(
        "--series-tolerance",
        type=float,
        default=1.05,
        help="allowed sampled-soak/plain-soak min-time ratio "
             "(fresh-vs-fresh; default: 1.05)",
    )
    parser.add_argument(
        "--pacing-tolerance",
        type=float,
        default=1.40,
        help="allowed served-soak/batch-soak min-time ratio "
             "(fresh-vs-fresh over the identical open-loop workload; "
             "the served run adds one metrics snapshot per 0.25 s "
             "quantum — measured ~1.25x — hence the default: 1.40)",
    )
    parser.add_argument(
        "--recorder-tolerance",
        type=float,
        default=1.15,
        help="allowed recorder-armed/traced soak min-time ratio "
             "(fresh-vs-fresh; the recorder's deque appends ride the "
             "already-armed trace sink — default: 1.15)",
    )
    parser.add_argument(
        "--soak-tolerance",
        type=float,
        default=1.10,
        help="allowed shortfall factor of fresh voice-soak throughput "
             "below the recorded soak_sim_seconds_per_wall_s "
             "(default: 1.10, i.e. fail on >10%% regression)",
    )
    args = parser.parse_args(argv)

    with open(args.input) as fh:
        fresh = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    failures = check(fresh, baseline, args.tolerance)
    failures += check_fresh_pairs(fresh, vars(args))
    failures += check_soak_throughput(fresh, baseline, args.soak_tolerance)
    if failures:
        names = ", ".join(f"{n} ({r:.2f}x)" for n, r in failures)
        print(f"FAILED: kernel overhead above budget: {names}")
        return 1
    print("kernel overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
