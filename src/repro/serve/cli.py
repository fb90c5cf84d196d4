"""``python -m repro serve`` — run the simulation as a live service.

Builds a GSM/vGPRS topology, pre-registers a population, then drives an
open-loop Poisson workload (:class:`repro.core.workload
.OpenLoopWorkload`) through the paced run loop while a stdlib HTTP
endpoint serves ``/metrics``, ``/status``, ``/alerts`` and
``/incidents`` from published snapshots.  SIGINT/SIGTERM drain gracefully: admission stops, active
calls complete, artefacts flush, and the exit code carries the verdict:

* ``0`` — clean run, no alert ever fired, all ``--slo`` rules pass;
* ``2`` — alert(s) fired during the run but all resolved by exit;
* ``1`` — alert firing/pending at exit, SLO verdict failure, or an
  unfinished drain.

The whole serve pipeline is deterministic in sim time: the same seed,
profile and duration produce byte-identical final metrics whether the
run is paced in real time, paced fast (``--rate 50``), or unpaced
(``--rate 0``).
"""

from __future__ import annotations

import argparse
import signal
import sys
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core import scenarios
from repro.core.workload import (
    DiurnalProfile,
    OpenLoopWorkload,
    build_classic_population,
    build_population,
)
from repro.faults import FaultPlan, apply_faults
from repro.obs import ObsSession, WatchedRun
from repro.obs.session import add_obs_flags, checked_text, positive_int
from repro.obs.slo import parse_slo_rules
from repro.serve.httpd import TelemetryServer
from repro.serve.loop import ServeLoop
from repro.serve.pacer import Pacer
from repro.serve.state import ServeState


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="run the vGPRS simulation as a live, scrapeable "
                    "service under open-loop load",
    )
    run = parser.add_argument_group("run")
    run.add_argument("--duration", type=float, default=None, metavar="SECS",
                     help="simulated seconds to serve before draining "
                          "(default: until SIGINT/SIGTERM)")
    run.add_argument("--rate", type=float, default=1.0, metavar="X",
                     help="simulated seconds per wall second; 0 = unpaced "
                          "batch with a live endpoint (default: 1.0)")
    run.add_argument("--quantum", type=float, default=0.25, metavar="SECS",
                     help="sim-time slice between pacing/publish points "
                          "(default: 0.25)")
    run.add_argument("--drain-timeout", type=float, default=60.0,
                     metavar="SECS",
                     help="max simulated seconds to wait for active calls "
                          "on shutdown (default: 60)")
    run.add_argument("--seed", type=int, default=0,
                     help="master RNG seed (default: 0)")

    topo = parser.add_argument_group("topology and load")
    topo.add_argument("--topology", choices=("vgprs", "classic"),
                      default="vgprs",
                      help="vGPRS network (Figures 3-6) or the classic "
                           "tromboning GSM topology (Figure 7)")
    topo.add_argument("--pairs", type=int, default=8, metavar="N",
                      help="provisioned caller/callee pairs (default: 8)")
    topo.add_argument("--calls-per-hour", type=float, default=120.0,
                      metavar="CPH",
                      help="base offered rate (default: 120)")
    topo.add_argument("--peak-calls-per-hour", type=float, default=None,
                      metavar="CPH",
                      help="busy-hour peak rate (profile shapes that ramp; "
                           "default: 4x the base)")
    topo.add_argument("--profile-shape",
                      choices=("flat", "busy-hour", "ramp"), default="flat",
                      help="diurnal arrival-rate shape (default: flat)")
    topo.add_argument("--profile-period", type=float, default=240.0,
                      metavar="SECS",
                      help="compressed-day period for busy-hour/ramp "
                           "shapes (default: 240)")
    topo.add_argument("--avalanche-at", type=float, default=None,
                      metavar="SECS",
                      help="trigger a mass re-registration avalanche at "
                           "this sim time")
    topo.add_argument("--avalanche-spread", type=float, default=2.0,
                      metavar="SECS",
                      help="window over which avalanche re-attaches spread "
                           "(default: 2.0)")
    topo.add_argument("--hold-min", type=float, default=2.0, metavar="SECS",
                      help="minimum call hold time (default: 2.0)")
    topo.add_argument("--hold-max", type=float, default=8.0, metavar="SECS",
                      help="maximum call hold time (default: 8.0)")
    topo.add_argument("--mt-fraction", type=float, default=0.4, metavar="P",
                      help="probability an arrival is mobile-terminated "
                           "(vgprs topology; default: 0.4)")
    topo.add_argument("--talk", action="store_true",
                      help="generate voice media during calls")
    topo.add_argument("--media", choices=("events", "fluid"),
                      default="fluid",
                      help="voice media model when --talk (default: fluid)")
    topo.add_argument("--faults", metavar="PLAN",
                      type=checked_text(FaultPlan.parse),
                      help="fault plan ('at T link A--B down for D', "
                           "';'-separated, @FILE, or JSON) injected into "
                           "the live topology; sim-time scheduled, so the "
                           "paced run and its unpaced twin see identical "
                           "faults")

    live = parser.add_argument_group("endpoint and alerting")
    live.add_argument("--host", default="127.0.0.1",
                      help="bind address (default: 127.0.0.1)")
    live.add_argument("--port", type=int, default=9464,
                      help="bind port; 0 = ephemeral (default: 9464)")
    live.add_argument("--no-http", action="store_true",
                      help="run the loop without the HTTP endpoint "
                           "(batch comparator / CI)")
    live.add_argument("--alert", metavar="RULES",
                      type=checked_text(parse_slo_rules),
                      help="alert rules (SLO grammar, ';'-separated, or "
                           "@FILE) driven through the live "
                           "pending/firing/resolved lifecycle")
    live.add_argument("--alert-for", type=positive_int, default=2,
                      metavar="N",
                      help="consecutive bad buckets before an alert fires "
                           "(default: 2)")
    live.add_argument("--alert-clear", type=positive_int, default=2,
                      metavar="N",
                      help="consecutive good buckets before a firing alert "
                           "resolves (default: 2)")

    add_obs_flags(parser.add_argument_group("observability artefacts"))
    return parser


def build_profile(args: argparse.Namespace) -> DiurnalProfile:
    base = args.calls_per_hour
    peak = args.peak_calls_per_hour
    if peak is None:
        peak = base * 4.0
    extras = {
        "avalanche_at": args.avalanche_at,
        "avalanche_spread": args.avalanche_spread,
    }
    if args.profile_shape == "busy-hour":
        return DiurnalProfile.busy_hour(
            base, peak, period=args.profile_period, **extras
        )
    if args.profile_shape == "ramp":
        return DiurnalProfile.ramp(
            base, peak, duration=args.profile_period, **extras
        )
    return DiurnalProfile.flat(base, **extras)


@dataclass
class ServeRun:
    """Everything :func:`build_serve_run` wired together."""

    nw: Any
    workload: OpenLoopWorkload
    obs: ObsSession
    #: The served simulator's record: recorder, sampler and the one
    #: watchdog judging both ``--slo`` and ``--alert`` rules.
    watched: WatchedRun
    state: ServeState
    loop: ServeLoop

    @property
    def sim(self) -> Any:
        return self.nw.sim


def build_serve_run(
    args: argparse.Namespace,
    echo: Callable[[str], None] = print,
) -> ServeRun:
    """Build topology, population, workload, observability and loop —
    shared by the CLI and the batch-comparator integration tests, so a
    paced service and its unpaced twin run the identical pipeline."""
    # Rule sets parse before any topology is built.
    obs = ObsSession.from_args(
        args, force_series=True, alert=args.alert,
        alert_for=args.alert_for, alert_clear=args.alert_clear,
    )
    if args.topology == "classic":
        from repro.core.baseline_gsm import build_classic_roaming_network

        nw: Any = build_classic_roaming_network(seed=args.seed)
        populate = build_classic_population
    else:
        from repro.core.network import build_vgprs_network

        nw = build_vgprs_network(seed=args.seed)
        populate = build_population
    # A served run keeps no trace or closed-span history unless an
    # exporter reads it, so its memory stays flat in run length.
    nw.sim.retain_history = obs.needs_history
    nw.sim.run(until=0.5)
    pairs = populate(nw, args.pairs)
    for ms, _peer in pairs:
        scenarios.register_ms(nw, ms)

    profile = build_profile(args)
    workload = OpenLoopWorkload(
        nw=nw,
        pairs=pairs,
        profile=profile,
        hold_range=(args.hold_min, args.hold_max),
        mt_fraction=args.mt_fraction,
        talk=args.talk,
        media=args.media,
        classic=args.topology == "classic",
    )

    obs.heartbeat_extra = workload.progress_line
    watched = obs.watch(nw.sim, run="serve")
    if watched.watchdog is not None:
        watched.watchdog.log = echo
    if args.faults:
        # Armed after watch() so the recorder sees FAULT_PLAN_ARMED and
        # can embed the plan in incident bundles.  Registration advanced
        # sim time past 0; the injector clamps already-past plan times
        # to "now", so short plans still fire.
        apply_faults(nw, args.faults)

    state = ServeState()
    loop = ServeLoop(
        sim=nw.sim,
        workload=workload,
        pacer=Pacer(rate=args.rate),
        state=state,
        watched=watched,
        duration=args.duration,
        quantum=args.quantum,
        drain_timeout=args.drain_timeout,
    )
    return ServeRun(nw=nw, workload=workload, obs=obs, watched=watched,
                    state=state, loop=loop)


def finish_serve_run(
    run: ServeRun, echo: Callable[[str], None] = print
) -> int:
    """Flush artefacts and fold SLO/alert/drain verdicts into the exit
    code (module docstring semantics)."""
    obs_code = run.obs.finish(echo)
    dog = run.watched.watchdog
    alert_code = 0
    if dog is not None and dog.alerts:
        alert_code = dog.alert_exit_code()
        payload = dog.alert_payload()
        echo(
            f"alerts: {payload['transition_count']} transition(s); "
            + ", ".join(
                f"{a['name']}={a['state']}" for a in payload["alerts"]
            )
        )
    if not run.loop.drained:
        echo("drain incomplete: active calls remained at shutdown")
        return 1
    if alert_code == 1 or obs_code:
        return 1
    return alert_code


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    echo: Callable[[str], None] = lambda line: print(line, file=sys.stderr)
    run = build_serve_run(args, echo=echo)
    server: Optional[TelemetryServer] = None
    if not args.no_http:
        server = TelemetryServer(
            run.state, host=args.host, port=args.port
        ).start()
        host, port = server.address
        echo(f"serving telemetry on http://{host}:{port}/ "
             "(/metrics /status /alerts /incidents)")
    signal.signal(signal.SIGINT, run.loop.request_stop)
    signal.signal(signal.SIGTERM, run.loop.request_stop)
    try:
        run.loop.run()
    finally:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if server is not None:
            server.stop()
    echo(
        f"served {run.loop.sim.now:.1f} sim-s: "
        f"{run.workload.progress_line()} "
        f"(drained={'yes' if run.loop.drained else 'NO'})"
    )
    return finish_serve_run(run, echo=echo)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
