#!/usr/bin/env python
"""Mixed traffic: a town's worth of subscribers on one vGPRS network.

Eight GSM handsets and eight H.323 terminals exchange random calls in
both directions for two simulated minutes; the script then prints the
network-wide accounting — connected calls, gatekeeper charging records,
per-node signalling volume and PDP-context residency.

Run:  python examples/mixed_traffic.py
"""

from repro.analysis.report import format_table
from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.core.workload import CallWorkload, build_population


def main() -> None:
    nw = build_vgprs_network(seed=7)
    pairs = build_population(nw, size=8)
    nw.sim.run(until=0.5)

    print("registering 8 handsets...")
    for ms, _ in pairs:
        scenarios.register_ms(nw, ms)
    print(f"all registered; SGSN holds {nw.sgsn.context_count()} "
          "signalling PDP contexts\n")

    workload = CallWorkload(
        nw, pairs, call_rate=0.15, hold_range=(1.0, 5.0), mt_fraction=0.4
    )
    workload.start()
    nw.sim.run(until=nw.sim.now + 120.0)
    workload.stop()
    for ms, _ in pairs:
        if ms.state == "in-call":
            ms.hangup()
    nw.sim.run(until=nw.sim.now + 10.0)

    stats = workload.stats
    print(format_table(
        ["metric", "value"],
        [("simulated time", f"{nw.sim.now:.0f} s"),
         ("calls attempted (MO/MT)",
          f"{stats.attempted_mo}/{stats.attempted_mt}"),
         ("calls connected", stats.connected),
         ("completion ratio", f"{stats.completion_ratio * 100:.0f}%"),
         ("gatekeeper charging records", len(nw.gk.call_records)),
         ("voice frames delivered to terminals",
          sum(t.frames_received for _, t in pairs)),
         ("TCHs in use at the end", nw.bscs[0].tch_in_use),
         ("PDP contexts at the SGSN", nw.sgsn.context_count()),
         ("context residency", f"{nw.sgsn.context_residency():.0f} ctx-s"),
         ("events executed", nw.sim.events_executed)],
        title="Two minutes of mixed vGPRS traffic",
    ))

    busiest = sorted(
        scenarios.message_counts(nw).items(), key=lambda kv: -kv[1]
    )[:8]
    print()
    print(format_table(
        ["node", "messages sent"], busiest,
        title="Busiest nodes",
    ))


if __name__ == "__main__":
    main()
