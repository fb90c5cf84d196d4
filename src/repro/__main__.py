"""Self-contained demonstration: ``python -m repro [scenario]``.

Scenarios:

* ``call`` (default) — register a GSM handset and complete a VoIP call
  (Figures 4 and 5);
* ``tromboning``     — classic-GSM vs vGPRS roamer call (Figures 7-8);
* ``handoff``        — mid-call inter-system handoff (Figure 9);
* ``flows``          — print all three message-flow figures as charts;
* ``sweep``          — run a parameter sweep (E8/E9/E11 style), optionally
  in parallel with ``--jobs N``;
* ``lint``           — protocol-aware static analysis (determinism,
  dispatch completeness, flow conformance, sim-safety, packet hygiene);
  see ``python -m repro lint --help``;
* ``serve``          — run the simulation as a live service: wall-clock
  pacing, open-loop Poisson load, a Prometheus scrape endpoint
  (``/metrics``, ``/status``, ``/alerts``, ``/incidents``) and live
  alert lifecycles; see ``python -m repro serve --help``;
* ``analyze``        — post-mortem blast-radius analysis of incident
  bundles captured by the always-on flight recorder; see
  ``python -m repro analyze --help``.

Every scenario accepts the observability flags:

* ``--trace-out FILE``   — JSONL trace with correlated call spans;
* ``--metrics-out FILE`` — Prometheus text-format metrics snapshot
  (sweeps merge the per-worker snapshots deterministically);
* ``--profile``          — cProfile report: self-time share per
  ``repro`` package plus the top functions by self time;
* ``--heartbeat SECS``   — progress lines on stderr for long runs
  (simulated clock, events executed, live event count);
* ``--series-out FILE``  — sim-time-bucketed metric time series (JSON;
  sweeps merge per-worker series deterministically);
* ``--series-interval SECS`` — series bucket width (default 1.0);
* ``--timeline-out FILE`` — Chrome-trace-event timeline (spans + link
  hops) viewable in chrome://tracing or ui.perfetto.dev;
* ``--waterfall``        — print per-procedure per-link latency
  waterfalls over the Figure-3 stack;
* ``--slo RULES``        — declarative SLO rules ("name: func(glob) OP
  threshold", ';'-separated, or @file); violations exit nonzero;
* ``--faults PLAN``      — deterministic fault plan ("at 120 link
  VMSC--GK down for 30", ';'-separated, @file, or JSON) injected into
  the topology (call and sweep scenarios);
* ``--incident-dir DIR`` — write flight-recorder incident bundles
  (captured around faults, alert trips, and nonzero exits) to DIR,
  ready for ``python -m repro analyze DIR``.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults import FaultPlan, apply_faults
from repro.obs import ObsSession
from repro.obs.session import add_obs_flags, checked_text


def demo_call(obs: ObsSession, media: str = "events", faults=None) -> None:
    from repro.core import scenarios
    from repro.core.network import build_vgprs_network
    from repro.core.sweeps import apply_media

    nw = build_vgprs_network()
    apply_media(nw.sim, media)
    # Watch before arming faults so the always-on flight recorder sees
    # the FAULT_PLAN_ARMED note and captures around the fault window.
    obs.watch(nw.sim, run="call")
    apply_faults(nw, faults)
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
    term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.6)
    nw.sim.run(until=0.5)
    latency = scenarios.register_ms(nw, ms)
    entry = nw.vmsc.ms_table.get(ms.imsi)
    print(f"registered in {latency * 1000:.0f} ms; MS address {entry.ip}")
    outcome = scenarios.call_ms_to_terminal(nw, ms, term)
    print(f"call answered after {outcome.answer_delay * 1000:.0f} ms")
    ms.start_talking(duration=1.0)
    nw.sim.run(until=nw.sim.now + 1.5)
    print(f"{term.frames_received} voice frames delivered")
    scenarios.hangup_from_ms(nw, ms)
    nw.sim.run(until=nw.sim.now + 1.0)
    print(f"released; {len(nw.gk.call_records)} charging record(s)")


def demo_tromboning(obs: ObsSession) -> None:
    from repro.core.baseline_gsm import build_classic_roaming_network
    from repro.core.tromboning import build_vgprs_roaming_network

    roamer = ("MS-X", "234150000000001", "+447700900123")
    print("=== classic GSM (Figure 7) ===")
    nw = build_classic_roaming_network()
    obs.watch(nw.sim, run="classic-gsm")
    x = nw.add_roamer(*roamer, answer_delay=0.5)
    y = nw.add_phone("PHONE-Y", "+85221234567")
    x.power_on()
    nw.sim.run_until_true(lambda: x.registered, timeout=30)
    since = nw.sim.now
    y.place_call(x.msisdn)
    nw.sim.run_until_true(lambda: x.state == "in-call", timeout=30)
    print(f"international trunks: {nw.ledger.international_count(since=since)}")

    print("=== vGPRS (Figure 8) ===")
    nw2 = build_vgprs_roaming_network()
    obs.watch(nw2.sim, run="vgprs")
    x2 = nw2.add_roamer(*roamer, answer_delay=0.5)
    nw2.sim.run(until=1.0)
    x2.power_on()
    nw2.sim.run_until_true(lambda: x2.registered, timeout=30)
    since = nw2.sim.now
    nw2.phone_y.place_call(x2.msisdn)
    nw2.sim.run_until_true(lambda: x2.state == "in-call", timeout=30)
    print(f"international trunks: {nw2.ledger.international_count(since=since)}")


def demo_handoff(obs: ObsSession) -> None:
    from repro.core import scenarios
    from repro.core.handoff import build_handoff_network

    nw = build_handoff_network()
    obs.watch(nw.sim, run="handoff")
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
    term = nw.vgprs.add_terminal("TERM1", "+886222000001", answer_delay=0.4)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw.vgprs, ms)
    scenarios.call_ms_to_terminal(nw.vgprs, ms, term)
    print("before:", " -> ".join(nw.voice_path()))
    nw.trigger_handoff()
    nw.sim.run_until_true(nw.handoff_complete, timeout=10)
    print("after: ", " -> ".join(nw.voice_path()))


def demo_flows(obs: ObsSession) -> None:
    from repro.analysis.msc_chart import render_msc
    from repro.core import scenarios
    from repro.core.flows import (
        NodeNames,
        match_flow,
        origination_flow,
        registration_flow,
        termination_flow,
    )
    from repro.core.network import build_vgprs_network

    nodes = ["MS1", "BTS1", "BSC", "VMSC", "VLR", "HLR", "SGSN", "GGSN",
             "IPNET", "GK", "TERM1"]
    names = NodeNames()
    nw = build_vgprs_network()
    obs.watch(nw.sim, run="flows")
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001",
                   answer_delay=0.6)
    term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.6)
    nw.sim.run(until=0.5)
    for title, action, flow in (
        ("Figure 4: registration",
         lambda: scenarios.register_ms(nw, ms), registration_flow(names)),
        ("Figure 5: origination",
         lambda: scenarios.call_ms_to_terminal(nw, ms, term),
         origination_flow(names)),
    ):
        since = nw.sim.now
        action()
        match_flow(nw.sim.trace, flow, since=since)
        print(f"\n=== {title} ===")
        entries = [e for e in nw.sim.trace.entries if e.time >= since]
        print(render_msc(entries, nodes,
                         include={s.message for s in flow},
                         col_width=13, max_label=11))
    scenarios.hangup_from_ms(nw, ms)
    nw.sim.run(until=nw.sim.now + 1.0)
    since = nw.sim.now
    scenarios.call_terminal_to_ms(nw, term, ms)
    match_flow(nw.sim.trace, termination_flow(names), since=since)
    print("\n=== Figure 6: termination ===")
    entries = [e for e in nw.sim.trace.entries if e.time >= since]
    print(render_msc(entries, nodes,
                     include={s.message for s in termination_flow(names)},
                     col_width=13, max_label=11))


def demo_sweep(
    experiment: str, obs: ObsSession, jobs=None, media: str = "fluid",
    faults=None,
) -> None:
    """Run one of the parameterised experiments through the parallel
    sweep runner.  Results merge in input order, so ``--jobs N`` output
    is identical to the serial run."""
    import functools

    from repro.core import sweeps
    from repro.sim.sweep import resolve_jobs, run_sweep, sweep_grid

    jobs = resolve_jobs(jobs)
    print(f"sweep {experiment!r} with {jobs} job(s)")
    results = []
    if experiment == "setup-latency":
        points = sweep_grid(factor=(1.0, 2.0, 4.0, 8.0))
        worker = functools.partial(sweeps.setup_latency_point, faults=faults)
        results = run_sweep(worker, points, jobs=jobs)
        for result in results:
            p = result.value
            print(f"core x{p['factor']:<4.0f} MT setup "
                  f"vGPRS {p['vgprs_mt'] * 1000:7.1f} ms  "
                  f"3G TR {p['tgtr_mt'] * 1000:7.1f} ms  "
                  f"(ratio {p['tgtr_mt'] / p['vgprs_mt']:.1f}x)")
    elif experiment == "voice-quality":
        points = sweep_grid(num_calls=(1, 2, 4, 6))
        # functools.partial of a module-level worker stays picklable, so
        # the media model fans out to worker processes unchanged.
        worker = functools.partial(sweeps.voice_quality_point, media=media,
                                   faults=faults)
        results = run_sweep(worker, points, jobs=jobs)
        for result in results:
            v, t = result.value["vgprs"], result.value["tgtr"]
            print(f"{result.value['calls']} call(s): m2e "
                  f"vGPRS {v['mean_m2e_ms']:6.1f} ms  "
                  f"3G TR {t['mean_m2e_ms']:6.1f} ms  "
                  f"jitter p95 {v['p95_jitter_ms']:.2f}/{t['p95_jitter_ms']:.2f} ms")
    elif experiment == "residency":
        points = sweep_grid(calls_per_hour=(0.0, 60.0, 240.0))
        worker = functools.partial(sweeps.residency_point, faults=faults)
        results = run_sweep(worker, points, jobs=jobs)
        for result in results:
            cph = result.point.params["calls_per_hour"]
            p = result.value
            print(f"{cph:5.0f} calls/h: ctx-s@SGSN "
                  f"vGPRS {p['vgprs_residency']:5.0f}  "
                  f"3G TR {p['tgtr_residency']:5.0f}; "
                  f"PDP activations "
                  f"{p['vgprs_activations']}/{p['tgtr_activations']}")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown experiment {experiment!r}")
    # Sweep workers build their own simulators in their own processes;
    # the run records they return are all the session can export.
    for result in results:
        obs.shipped.extend(result.value["runs"])


SCENARIOS = {
    "call": demo_call,
    "tromboning": demo_tromboning,
    "handoff": demo_handoff,
    "flows": demo_flows,
}

SWEEP_EXPERIMENTS = ("setup-latency", "voice-quality", "residency")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["lint"]:
        # The analyzer has its own flag set; hand over before the demo
        # parser rejects them.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["serve"]:
        # Service mode likewise owns its flag set.
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["analyze"]:
        # Post-mortem analysis likewise owns its flag set.
        from repro.obs.analyze import main as analyze_main

        return analyze_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="vGPRS reproduction demos",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="call",
        choices=sorted(SCENARIOS) + ["sweep"],
        help="which demonstration to run (default: call)",
    )
    parser.add_argument(
        "--experiment",
        default="setup-latency",
        choices=SWEEP_EXPERIMENTS,
        help="which sweep to run (sweep scenario only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep scenario "
             "(default: $REPRO_SWEEP_JOBS or serial)",
    )
    parser.add_argument(
        "--media",
        choices=("events", "fluid"),
        default=None,
        help="voice media model: per-frame events or the analytic fluid "
             "model (default: fluid for sweeps, events for demos)",
    )
    parser.add_argument(
        "--waterfall",
        action="store_true",
        help="print per-procedure per-link latency waterfalls",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        type=checked_text(FaultPlan.parse),
        help="fault plan ('at T link A--B down for D', ';'-separated, "
             "or @FILE / JSON) injected into the topology; sweep workers "
             "arm the same plan on every point (call and sweep scenarios)",
    )
    add_obs_flags(parser)
    args = parser.parse_args(argv)
    obs = ObsSession.from_args(args, waterfall=args.waterfall)
    if args.scenario == "sweep":
        demo_sweep(args.experiment, obs, jobs=args.jobs,
                   media=args.media or "fluid", faults=args.faults)
    elif args.scenario == "call":
        demo_call(obs, media=args.media or "events", faults=args.faults)
    else:
        SCENARIOS[args.scenario](obs)
    return obs.finish()


if __name__ == "__main__":
    sys.exit(main())
