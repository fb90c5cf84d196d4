"""Rounds, metrics and checks shared by the per-workload and full runs."""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import random
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.media.fluid import FluidMediaSession
from repro.packets.base import Packet
from repro.sim.events import Event

from e2ebench.layers import LAYER_NAMES, Attribution, unmapped_modules
from e2ebench.workloads import COUNT_UNITS, TIMED, Round, Workload

#: Set-up is timed at least this many times per run; its metric is the
#: median.
SETUP_SAMPLES = 15
#: Bootstrap resamples behind each end-to-end metric's quartiles.
RESAMPLES = 100


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, from ``VmHWM``.

    ``ru_maxrss`` would not do: Linux carries it across ``execve``, so a
    benchmark started by a large parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _stat(value: float, unit: str, n: int,
          resampled: Sequence[float]) -> Dict[str, Any]:
    """A metric with the quartiles of its bootstrap *resampled* values."""
    q1, _, q3 = statistics.quantiles(resampled, n=4)
    return {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": n}


def run_rounds(workload: Workload, seed: int, seconds: float,
               scale: float = 1.0,
               warm_up: bool = True) -> Tuple[List[Round], List[float]]:
    """Rounds until *seconds* have passed (at least one), after one
    untimed warm-up round at the workload's quick scale.

    Also returns at least SETUP_SAMPLES set-up times: each round's own,
    one more after each round, and the rest at the end.  Spreading them
    over the run keeps one burst of host noise from moving their median.
    """
    if warm_up:
        workload.round(seed, workload.quick_scale)
    done: List[Round] = []
    setups: List[float] = []
    deadline = perf_counter() + seconds
    while not done or perf_counter() < deadline:
        gc.collect()
        done.append(workload.round(seed, scale))
        setups.append(done[-1].setup_s)
        setups += time_setups(workload, seed, scale, 1)
    setups += time_setups(workload, seed, scale, SETUP_SAMPLES - len(setups))
    return done, setups


def time_setups(workload: Workload, seed: int, scale: float,
                count: int) -> List[float]:
    """Wall times of *count* standalone set-ups (none when count <= 0)."""
    times = []
    for _ in range(count):
        gc.collect()
        t0 = perf_counter()
        workload.setup(seed, scale)
        times.append(perf_counter() - t0)
    return times


def best_ops(rounds: Sequence[Round]) -> List[float]:
    """Each operation's time, with every step taken from the round that
    ran that step fastest.

    Rounds of one seed are the same simulation, step for step, so step
    *j* of operation *i* does the same work in every round and only the
    host's interference differs.  On a shared host that interference
    comes in bursts that stall the process for milliseconds at a time,
    so the per-round median moves with it; the per-step minimum does
    not, while program costs that recur every round (garbage collection
    included, since each round starts from ``gc.collect()``) stay in.
    """
    return [
        sum(min(times) for times in zip(*op_rounds))
        for op_rounds in zip(*(r.op_steps for r in rounds))
    ]


def _op_metrics(rounds: Sequence[Round]) -> Dict[str, float]:
    best = best_ops(rounds)
    busy_s = sum(best) / 1e3 or min(r.run_s for r in rounds)
    return {
        "sim_s_per_wall_s": rounds[0].sim_s / busy_s,
        "op_ms_p50": percentile(best, 50),
        # p95: the highest percentile with ten operations beyond it on
        # every workload (lifecycle has 200 per round).
        "op_ms_p95": percentile(best, 95),
    }


def summarize(workload: Workload, seed: int, rounds: List[Round],
              setups: Sequence[float], rss_mb: float) -> Dict[str, Any]:
    """End-to-end metrics, checks and deterministic outcomes of *rounds*.

    Rate and latency percentiles are computed over :func:`best_ops`;
    set-up time is the median of *setups*.  Each metric's quartiles are
    those of the same estimate over bootstrap resamples of the rounds
    (or set-ups), which is the spread ``compare`` judges.
    """
    rng = random.Random(0)
    values = _op_metrics(rounds)
    resampled = [_op_metrics(rng.choices(rounds, k=len(rounds)))
                 for _ in range(RESAMPLES)]
    metrics = {
        name: _stat(values[name], unit, len(rounds),
                    [r[name] for r in resampled])
        for name, unit in (("sim_s_per_wall_s", "sim-s/s"),
                           ("op_ms_p50", "ms"), ("op_ms_p95", "ms"))
    }
    metrics["setup_s"] = _stat(
        statistics.median(setups), "s", len(setups),
        [statistics.median(rng.choices(setups, k=len(setups)))
         for _ in range(RESAMPLES)])
    metrics["peak_rss_mb"] = _stat(rss_mb, "MB", 1, [rss_mb, rss_mb])
    fingerprints = sorted({r.fingerprint for r in rounds})
    checks: Dict[str, bool] = {}
    for rnd in rounds:
        for name, held in rnd.checks.items():
            checks[name] = checks.get(name, True) and held
    checks["no operation raised"] = all(r.ops_failed == 0 for r in rounds)
    checks["same fingerprint every round"] = len(fingerprints) == 1
    first = rounds[0]
    return {
        "workload": workload.name,
        "seed": seed,
        "op": workload.op,
        "rounds": len(rounds),
        "operations": len(rounds[0].op_steps),
        "end_to_end": metrics,
        "checks": checks,
        "correct": all(checks.values()),
        "sim_fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        # Per round; identical across rounds when the fingerprint is.
        "calls_attempted": first.calls_attempted,
        "calls_failed": first.calls_failed,
        "call_failure_ratio": first.calls_failed / max(first.calls_attempted, 1),
        "attempted": sum(len(r.op_steps) + r.ops_failed for r in rounds),
        "failed": sum(len(r.op_steps) + r.ops_failed for r in rounds if not r.ok),
    }


def measure_layers(workload: Workload, seed: int, scale: float,
                   warm_up: bool = True,
                   out_dir: Optional[Path] = None) -> Dict[str, Any]:
    """One plain round, then the same round under cProfile.

    The plain round gives the host timings, the deterministic counts and
    ``peak_rss_mb`` (read before profiling starts); the profiled round
    gives the per-layer shares and call counts.
    """
    if warm_up:
        workload.round(seed, workload.quick_scale)
    gc.collect()
    plain = workload.round(seed, scale)
    rss_mb = peak_rss_mb()
    gc.collect()
    profiler = cProfile.Profile()
    traced = workload.round(seed, scale, profiler)
    stats = pstats.Stats(profiler)
    attr = Attribution(stats)
    shares = attr.shares()
    events = attr.calls(Event.__init__)  # one per scheduled event

    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYER_NAMES:
        put(f"{layer}.self_share", shares[layer], "share")
        put(f"{layer}.entries", attr.entries[layer], "count")
    # build() recurses down the payload chain; count whole packets only.
    put("packets.builds", attr.calls(Packet.build, primitive=True), "count")
    put("packets.parses", attr.calls(Packet.parse.__func__), "count")
    put("media.flows", attr.calls(FluidMediaSession.start_flow), "count")
    put("profile_overhead_x", traced.run_s / plain.run_s, "x")
    put("sim.events", events, "count")
    put("sim.events_per_wall_s", events / plain.run_s, "1/s")
    put("sim.queue_depth_p50", percentile(plain.queue_depth, 50), "count")
    put("sim.queue_depth_max", max(plain.queue_depth, default=0), "count")
    for name, value in plain.counts.items():
        put(name, value, COUNT_UNITS.get(name, "count"))
    for name in TIMED:
        put(f"{name}_p50", percentile(plain.timings[name], 50), "ms")
    put("core.calls_attempted", plain.calls_attempted, "count")
    put("core.call_failure_ratio",
        plain.calls_failed / max(plain.calls_attempted, 1), "ratio")

    checks = {
        **{f"plain: {k}": v for k, v in plain.checks.items()},
        "profiled round has the plain round's fingerprint":
            traced.fingerprint == plain.fingerprint,
        "layer shares sum to 1": abs(sum(shares.values()) - 1.0) < 1e-9,
        "every repro module is mapped to a layer": not unmapped_modules(),
    }
    top = attr.top(10)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(str(out_dir / f"profile-{workload.name}.pstats"))
        (out_dir / f"layers-{workload.name}.json").write_text(json.dumps({
            "workload": workload.name,
            "seed": seed,
            "peak_rss_mb": rss_mb,
            "per_layer": metrics,
            "top_self_time_s": top,
            "checks": checks,
        }, indent=1, sort_keys=True) + "\n")
    return {
        "per_layer": metrics,
        "peak_rss_mb": rss_mb,
        "checks": checks,
        "correct": plain.ok and all(checks.values()),
        "top_self_time_s": top,
        "attempted": len(plain.op_steps) + plain.ops_failed,
        "failed": 0 if plain.ok else len(plain.op_steps) + plain.ops_failed,
    }
