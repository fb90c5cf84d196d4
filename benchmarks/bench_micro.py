"""Micro-benchmarks: engineering throughput numbers (not paper figures).

* packet build/parse throughput for the scapy-style codec, and one link
  hop as wire-fidelity links run it (the ``wire_copy`` round trip and
  one trace entry of the delivered bytes), with the decode memo warm and
  cold;
* discrete-event kernel throughput — a soak-style *population* shape
  (1000 pending events at all times, exercising heap ordering) and a
  serial *chain* shape (one pending event, pure dispatch overhead);
* end-to-end simulated call throughput (full signalling per call);
* a workload soak in throughput mode (codec and tracing off), the
  configuration used for hour-scale capacity runs.
"""

import pytest

from repro.identities import IMSI, E164Number, IPv4Address, TunnelId
from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.core.sweeps import apply_media
from repro.core.workload import CallWorkload, build_population
from repro.gsm.relay import rename_packet
from repro.packets.base import Packet, _decode_layer
from repro.packets.gtp import GtpHeader, MSG_T_PDU
from repro.packets.ip import IPv4, UDP
from repro.packets.q931 import Q931Setup
from repro.sim.kernel import Simulator

IP_A = IPv4Address.parse("10.0.0.1")
IP_B = IPv4Address.parse("10.0.0.2")
NUM = E164Number("886", "935000001")
TID = TunnelId(IMSI("466920000000001"), 5)

SAMPLE = (
    IPv4(src=IP_A, dst=IP_B)
    / UDP(sport=3386, dport=3386)
    / GtpHeader(msg_type=MSG_T_PDU, seq=1, tid=TID)
    / Q931Setup(
        call_ref=7, called=NUM, calling=NUM,
        signal_address=IP_A, signal_port=1720,
        media_address=IP_A, media_port=5004,
    )
)
WIRE = SAMPLE.build()


def test_micro_packet_build(benchmark):
    wire = benchmark(SAMPLE.build)
    assert wire == WIRE


def test_micro_packet_parse(benchmark):
    pkt = benchmark(Packet.parse, WIRE)
    assert pkt == SAMPLE


def test_micro_packet_roundtrip(benchmark):
    def roundtrip():
        return Packet.parse(SAMPLE.build())

    assert benchmark(roundtrip) == SAMPLE


def _trace():
    """A trace recorder that hands each entry to its sinks (the span
    tracker) without keeping it, so rounds do not pile up entries."""
    sim = Simulator()
    sim.retain_history = False
    return sim.trace


def _hop(packet, trace):
    """One wire-fidelity link hop: what ``Link.transmit`` and
    ``Link._deliver`` do to every traced message, the round trip and
    one trace entry that keeps the delivered bytes."""
    received, snapshot = packet.wire_copy()
    trace.record_wire("A", "B", "Gn", received.flow_name(), snapshot)
    return received


def _relayed(trace):
    """Two hops with a relay between them: the renamed outer layer keeps
    its received slice, so the second hop clones every layer."""
    return _hop(rename_packet(_hop(SAMPLE, trace), IPv4), trace)


def test_micro_packet_hop(benchmark):
    """The decode memo is warm after the first round, so every fresh
    layer is a hit: the best case."""
    got = benchmark(_relayed, _trace())
    assert got == SAMPLE
    assert got.build() == WIRE


def test_micro_packet_hop_cold(benchmark):
    """The same two hops with the decode memo cleared first, so every
    fresh layer of the first hop is decoded in full: the worst case."""

    trace = _trace()

    def cold():
        _decode_layer.cache_clear()
        return _relayed(trace)

    got = benchmark(cold)
    assert got == SAMPLE
    assert got.build() == WIRE


def test_micro_event_throughput(benchmark):
    """Soak-style population shape: ~1000 events pending at all times
    with randomised delays, so heap ordering cost — the kernel's real
    bottleneck under workload soaks — dominates."""

    def run_events():
        sim = Simulator()
        count = {"n": 0}
        rng = sim.rng.stream("bench")

        def tick():
            count["n"] += 1
            if count["n"] < 10_000:
                sim.schedule(0.5 + rng.random(), tick)

        for _ in range(1000):
            sim.schedule(rng.random(), tick)
        sim.run()
        return count["n"]

    # 1000 seed events plus 9999 respawned ticks drain deterministically.
    assert benchmark(run_events) == 10_999


def test_micro_event_chain(benchmark):
    """Serial chain shape: one pending event, measuring pure
    schedule/dispatch overhead with no heap pressure."""

    def run_events():
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count["n"]

    assert benchmark(run_events) == 10_000


def test_micro_end_to_end_call(benchmark):
    """One fully signalled MO call (registration amortised outside)."""
    nw = build_vgprs_network()
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
    term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.2)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)

    def one_call():
        scenarios.call_ms_to_terminal(nw, ms, term)
        scenarios.hangup_from_ms(nw, ms)
        scenarios.settle(nw, 1.0)

    benchmark.pedantic(one_call, rounds=20, iterations=1)
    assert len(nw.gk.call_records) >= 20


def _media_spurt_setup(media):
    """Fresh connected call, ready to talk — excluded from the timed
    region so the media-frame benchmarks compare only the talk path."""
    nw = build_vgprs_network(seed=7, wire_fidelity=False)
    nw.sim.trace.enabled = False
    apply_media(nw.sim, media)
    ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
    term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.2)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    scenarios.call_ms_to_terminal(nw, ms, term)
    return (nw, ms), {}


def _media_spurt_run(nw, ms):
    ms.start_talking(duration=30.0)
    nw.sim.run(until=nw.sim.now + 31.0)
    hist = nw.sim.metrics.get_histogram("TERM1.mouth_to_ear")
    return hist.count if hist is not None else 0


@pytest.mark.parametrize("media", ["events", "fluid"])
def test_micro_media_frames(benchmark, media):
    """One 30 s talk spurt (1501 frames) through the full uplink path,
    events vs fluid.  ``bench_to_json.py`` derives
    ``fluid_vs_events_speedup_x`` from this pair."""
    count = benchmark.pedantic(
        _media_spurt_run,
        setup=lambda: _media_spurt_setup(media),
        rounds=5,
        iterations=1,
    )
    assert count == 1501


def test_micro_soak_voice(benchmark):
    """The canonical voice soak: 600 simulated seconds of random calls
    with 20-40 s talk spurts under the fluid media model — the headline
    ``soak_sim_seconds_per_wall_s`` derives from this benchmark.  The
    per-frame event path would spend ~20 ms of simulated traffic per
    frame event here; the fluid model keeps the spurts analytic, so the
    wall cost is the signalling."""

    def run_soak():
        nw = build_vgprs_network(seed=7, wire_fidelity=False)
        nw.sim.trace.enabled = False
        pairs = build_population(nw, size=20, answer_delay=1.5)
        nw.sim.run(until=0.5)
        for ms, _ in pairs:
            scenarios.register_ms(nw, ms)
        wl = CallWorkload(nw, pairs, call_rate=0.005,
                          hold_range=(20.0, 40.0), talk=True)
        wl.start()
        nw.sim.run(until=nw.sim.now + 600.0)
        wl.stop()
        return wl.stats

    stats = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 25
    assert stats.completion_ratio > 0.9


def test_micro_soak_workload(benchmark):
    """120 simulated seconds of random calls over 20 pairs in throughput
    mode (``wire_fidelity=False``, trace disabled) — the configuration
    capacity soaks run with, so this tracks the whole message path:
    kernel, links, dispatch and the event-driven workload waits."""

    def run_soak():
        nw = build_vgprs_network(seed=7, wire_fidelity=False)
        nw.sim.trace.enabled = False
        pairs = build_population(nw, size=20, answer_delay=1.5)
        nw.sim.run(until=0.5)
        for ms, _ in pairs:
            scenarios.register_ms(nw, ms)
        wl = CallWorkload(nw, pairs, call_rate=0.5, hold_range=(2.0, 6.0),
                          talk=False)
        wl.start()
        nw.sim.run(until=nw.sim.now + 120.0)
        wl.stop()
        return wl.stats

    # 5 rounds: the min feeds a 5% overhead gate (check_overhead.py), so
    # it needs to sit below scheduler jitter, not just complete quickly.
    stats = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 100
    assert stats.completion_ratio > 0.9


def test_micro_soak_with_series(benchmark):
    """The same soak with a 1 s time-series sampler armed.  Paired with
    ``test_micro_soak_workload`` by ``check_overhead.py``: the sampler
    adds one registry read per simulated second, and its overhead over
    the plain soak must stay within the series budget (<= 5%)."""
    from repro.obs.series import SeriesSampler

    def run_soak():
        nw = build_vgprs_network(seed=7, wire_fidelity=False)
        nw.sim.trace.enabled = False
        sampler = SeriesSampler(nw.sim, interval=1.0).start()
        pairs = build_population(nw, size=20, answer_delay=1.5)
        nw.sim.run(until=0.5)
        for ms, _ in pairs:
            scenarios.register_ms(nw, ms)
        wl = CallWorkload(nw, pairs, call_rate=0.5, hold_range=(2.0, 6.0),
                          talk=False)
        wl.start()
        nw.sim.run(until=nw.sim.now + 120.0)
        wl.stop()
        sampler.stop(flush=True)
        return wl.stats, sampler

    (stats, sampler) = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 100
    assert stats.completion_ratio > 0.9
    assert len(sampler.buckets) >= 100


def _traced_soak():
    """The workload soak with tracing *enabled* (bounded window, the
    monitoring configuration) — the baseline the flight-recorder pair
    shares, since the recorder rides the trace sink and measuring it
    against a trace-off soak would charge it for tracing itself."""
    nw = build_vgprs_network(seed=7, wire_fidelity=False)
    nw.sim.trace.set_limit(8192)
    pairs = build_population(nw, size=20, answer_delay=1.5)
    nw.sim.run(until=0.5)
    for ms, _ in pairs:
        scenarios.register_ms(nw, ms)
    wl = CallWorkload(nw, pairs, call_rate=0.5, hold_range=(2.0, 6.0),
                      talk=False)
    return nw, wl


def test_micro_soak_traced(benchmark):
    """120 simulated seconds of the workload soak with a bounded trace
    window armed — the flight-recorder pair's baseline."""

    def run_soak():
        nw, wl = _traced_soak()
        wl.start()
        nw.sim.run(until=nw.sim.now + 120.0)
        wl.stop()
        return wl.stats

    stats = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 100
    assert stats.completion_ratio > 0.9


def test_micro_soak_flight_recorder(benchmark):
    """The traced soak with a :class:`FlightRecorder` armed (rings
    filling from the trace sink and span closures; no incident ever
    triggers).  Paired with ``test_micro_soak_traced`` by
    ``check_overhead.py``: the recorder budget bounds the cost of the
    always-on rings over an identical traced run."""
    from repro.obs.recorder import FlightRecorder

    def run_soak():
        nw, wl = _traced_soak()
        recorder = FlightRecorder(nw.sim, run="bench").arm()
        wl.start()
        nw.sim.run(until=nw.sim.now + 120.0)
        wl.stop()
        recorder.flush()
        return wl.stats, recorder

    stats, recorder = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 100
    assert stats.completion_ratio > 0.9
    assert len(recorder.entries) > 0
    assert not recorder.bundles  # nothing triggered: pure ring cost


def _open_loop_soak():
    """The serve-mode soak shape: 20 pairs under open-loop Poisson
    arrivals matching the plain soak's offered load (0.5 calls/s per
    pair).  Returns (network, workload), started and ready to run."""
    from repro.core.workload import DiurnalProfile, OpenLoopWorkload

    nw = build_vgprs_network(seed=7, wire_fidelity=False)
    nw.sim.trace.enabled = False
    pairs = build_population(nw, size=20, answer_delay=1.5)
    nw.sim.run(until=0.5)
    for ms, _ in pairs:
        scenarios.register_ms(nw, ms)
    wl = OpenLoopWorkload(
        nw=nw, pairs=pairs,
        profile=DiurnalProfile.flat(20 * 0.5 * 3600.0),
        hold_range=(2.0, 6.0), talk=False,
    )
    return nw, wl


def test_micro_soak_openloop(benchmark):
    """120 simulated seconds of the open-loop workload as one batch
    ``run()`` — the rate-independent comparator for the served soak
    below (same seed, same arrivals, no slicing, no publication)."""

    def run_soak():
        nw, wl = _open_loop_soak()
        wl.start()
        nw.sim.run(until=nw.sim.now + 120.0)
        wl.stop_admitting()
        nw.sim.run(until=nw.sim.now + 60.0)  # drain like the serve loop
        wl.stop()
        return wl.stats

    stats = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 100


def test_micro_soak_served(benchmark):
    """The same open-loop soak driven through the serve loop:
    ``run_paced`` quantum slices with a rate-0 pacer and a full
    telemetry publish (metrics snapshot + status) between every slice.
    Paired with ``test_micro_soak_openloop`` by ``check_overhead.py``:
    pacing lives outside the kernel and a publish is one snapshot per
    quantum, so the served soak must stay within the pacing budget of
    the batch run of the identical workload."""
    from repro.serve import Pacer, ServeLoop

    def run_soak():
        nw, wl = _open_loop_soak()
        loop = ServeLoop(nw.sim, wl, Pacer(rate=0),
                         duration=120.0, quantum=0.25)
        loop.run()
        return wl.stats, loop

    # 5 rounds like the plain soak: the min feeds the pacing-overhead
    # gate, so it must sit below scheduler jitter.
    stats, loop = benchmark.pedantic(run_soak, rounds=5, iterations=1)
    assert stats.connected > 100
    assert loop.drained
