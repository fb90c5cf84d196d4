"""Sweep-point workers for the parameterised experiments (E8/E9/E11).

Each function here evaluates one experiment at one parameter point,
building a fresh seeded simulator, so points are independent and safe to
fan out with :func:`repro.sim.sweep.run_sweep`.  They live in the
package (rather than in the benchmark modules) so that worker processes
can unpickle them by reference and so ``python -m repro sweep`` can run
the same sweeps from the command line.

Every network is armed through :meth:`repro.obs.session.ObsSession.watch`,
the path ``python -m repro`` arms its own simulators with.  A
measurement function given a ``runs`` list appends its network's
:meth:`~repro.obs.session.WatchedRun.ship` record (``{"metrics",
"series", "incidents"}``) to it, and each point function returns its
records under one ``"runs"`` key: worker processes build their own
simulators, so these records are the only way their metrics, series
and incident bundles reach ``--metrics-out``/``--series-out``/
``--incident-dir``.  Records are listed in a fixed order; the merges'
float sums depend on it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core import scenarios
from repro.core.baseline_3gtr import build_3gtr_network
from repro.core.network import LatencyProfile, build_vgprs_network
from repro.errors import SimulationError
from repro.faults import apply_faults
from repro.media import install_fluid
from repro.obs.session import ObsSession, WatchedRun

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
TERM1 = "+886222000001"

#: Bucket width for the per-worker time series.  Fixed (not a sweep
#: parameter) so every worker's series merges bucket-for-bucket and a
#: parallel sweep's merged series is byte-identical to a serial one.
SERIES_INTERVAL = 1.0


#: Shipped run records (:meth:`repro.obs.session.WatchedRun.ship`).
Runs = List[Dict[str, Any]]


def _arm(nw, faults: Optional[str]) -> WatchedRun:
    """Watch a worker's fresh network (flight recorder plus series
    sampler, run label ``"sweep"``), then arm the fault plan, so the
    recorder sees FAULT_PLAN_ARMED and captures incident bundles around
    the fault window.  Sampling and recording only read the simulator,
    so the seeded trace is unaffected."""
    watched = ObsSession(
        force_series=True, series_interval=SERIES_INTERVAL
    ).watch(nw.sim, run="sweep")
    apply_faults(nw, faults, strict=False)
    return watched


def _ship(watched: WatchedRun, runs: Optional[Runs]) -> None:
    if runs is not None:
        runs.append(watched.ship())


# ----------------------------------------------------------------------
# E8 — call-setup latency vs. packet-core latency factor
# ----------------------------------------------------------------------
def _setup_path_delay(nw, place_call) -> float:
    t0 = nw.sim.now
    place_call()
    trace = nw.sim.trace
    assert nw.sim.run_until_true(
        lambda: trace.first("Q931_Call_Proceeding") is not None
        and trace.first("Q931_Call_Proceeding").time >= t0,
        timeout=60,
    )
    setups = trace.messages(name="Q931_Setup", since=t0)
    return setups[-1].time - setups[0].time


def vgprs_mt(
    factor: float,
    faults: Optional[str] = None,
    runs: Optional[Runs] = None,
) -> float:
    """MT setup-path delay (caller's Q.931 Setup -> called endpoint) in
    vGPRS, where the PDP context is already activated."""
    nw = build_vgprs_network(latencies=LatencyProfile().scaled_core(factor))
    watched = _arm(nw, faults)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=5.0)
    term = nw.add_terminal("TERM1", TERM1)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    nw.sim.run(until=nw.sim.now + 6.0)  # idle; vGPRS keeps the context
    nw.sim.trace.clear()
    delay = _setup_path_delay(nw, lambda: term.place_call(ms.msisdn))
    _ship(watched, runs)
    return delay


def tgtr_mt(
    factor: float,
    faults: Optional[str] = None,
    runs: Optional[Runs] = None,
) -> float:
    """MT setup-path delay in the 3G TR 23.923 baseline, which must
    re-activate the PDP context per call arrival."""
    nw = build_3gtr_network(latencies=LatencyProfile().scaled_core(factor))
    watched = _arm(nw, faults)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1, answer_delay=5.0)
    term = nw.add_terminal("TERM1", TERM1)
    nw.sim.run(until=0.5)
    ms.power_on()
    assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
    nw.sim.run(until=nw.sim.now + 6.0)  # idle; 3G TR tore the context down
    nw.sim.trace.clear()
    delay = _setup_path_delay(nw, lambda: term.place_call(ms.msisdn))
    _ship(watched, runs)
    return delay


def vgprs_mo_admission(
    factor: float,
    faults: Optional[str] = None,
    runs: Optional[Runs] = None,
) -> float:
    """MO side: time from A_Setup at the VMSC to the ACF returning —
    immediate in vGPRS because the signalling context exists."""
    nw = build_vgprs_network(latencies=LatencyProfile().scaled_core(factor))
    watched = _arm(nw, faults)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1)
    term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    nw.sim.run(until=nw.sim.now + 6.0)
    since = nw.sim.now
    scenarios.call_ms_to_terminal(nw, ms, term)
    trace = nw.sim.trace
    a_setup = trace.messages(name="A_Setup", since=since)[0]
    acf = trace.messages(name="RAS_ACF", dst="VMSC", since=since)[0]
    _ship(watched, runs)
    return acf.time - a_setup.time


def tgtr_mo_admission(
    factor: float,
    faults: Optional[str] = None,
    runs: Optional[Runs] = None,
) -> float:
    """MO side in 3G TR: PDP activation precedes the ARQ."""
    nw = build_3gtr_network(latencies=LatencyProfile().scaled_core(factor))
    watched = _arm(nw, faults)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1)
    term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
    nw.sim.run(until=0.5)
    ms.power_on()
    assert nw.sim.run_until_true(lambda: ms.registered, timeout=30)
    nw.sim.run(until=nw.sim.now + 6.0)
    since = nw.sim.now
    ms.place_call(term.alias)
    trace = nw.sim.trace
    assert nw.sim.run_until_true(lambda: ms.state == "in-call", timeout=60)
    acf = trace.messages(name="RAS_ACF", since=since)[0]
    _ship(watched, runs)
    return acf.time - since


def setup_latency_point(
    factor: float, faults: Optional[str] = None
) -> Dict[str, Any]:
    """One E8 sweep point: all four setup-latency measurements at the
    given core-latency *factor*.  ``faults`` is a fault-plan text armed
    (non-strictly) on every per-measurement topology."""
    runs: Runs = []
    return {
        "factor": factor,
        "vgprs_mt": vgprs_mt(factor, faults, runs),
        "tgtr_mt": tgtr_mt(factor, faults, runs),
        "vgprs_mo": vgprs_mo_admission(factor, faults, runs),
        "tgtr_mo": tgtr_mo_admission(factor, faults, runs),
        "runs": runs,
    }


# ----------------------------------------------------------------------
# E9 — voice quality vs. concurrent calls per cell
# ----------------------------------------------------------------------
BUDGET_S = 0.150
TALK_S = 2.0

#: Default media model for the load workers: the fluid model reproduces
#: the event path within tolerance (see tests/test_media_fluid.py) at a
#: fraction of the cost; pass ``media="events"`` to validate against the
#: per-frame path.
DEFAULT_MEDIA = "fluid"


def apply_media(sim, media: str) -> None:
    """Install the requested media model on *sim* (``"events"`` is the
    per-frame default and needs no installation)."""
    if media == "fluid":
        install_fluid(sim)
    elif media != "events":
        raise SimulationError(f"unknown media model {media!r}")


def vgprs_under_load(
    num_calls: int,
    tch_capacity: int = 8,
    media: str = DEFAULT_MEDIA,
    faults: Optional[str] = None,
    runs: Optional[Runs] = None,
) -> Dict[str, Any]:
    """Voice-quality metrics with *num_calls* concurrent circuit calls."""
    nw = build_vgprs_network(tch_capacity=tch_capacity)
    apply_media(nw.sim, media)
    watched = _arm(nw, faults)
    pairs = []
    for i in range(num_calls):
        ms = nw.add_ms(f"MS{i}", f"46692000000100{i}", f"+88693500010{i}")
        term = nw.add_terminal(f"TERM{i}", f"+88622200010{i}", answer_delay=0.2)
        pairs.append((ms, term))
    nw.sim.run(until=0.5)
    connected = 0
    for ms, term in pairs:
        scenarios.register_ms(nw, ms)
        try:
            scenarios.call_ms_to_terminal(nw, ms, term, timeout=10)
            connected += 1
            ms.start_talking(duration=TALK_S)
        except Exception:
            pass  # blocked: no TCH available
    nw.sim.run(until=nw.sim.now + TALK_S + 1.0)
    delays, jitters, within = [], [], []
    for i, (ms, term) in enumerate(pairs):
        m2e = nw.sim.metrics.get_histogram(f"TERM{i}.mouth_to_ear")
        jit = nw.sim.metrics.get_histogram(f"TERM{i}.jitter")
        if m2e is not None and m2e.count:
            delays.append(m2e.mean)
            within.append(m2e.fraction_below(BUDGET_S))
        if jit is not None and jit.count:
            jitters.append(jit.quantile(0.95))
    blocked = nw.sim.metrics.counters("BSC.tch_blocked").get("BSC.tch_blocked", 0)
    _ship(watched, runs)
    return {
        "connected": connected,
        "blocked": blocked,
        "mean_m2e_ms": 1000 * sum(delays) / len(delays) if delays else 0.0,
        "p95_jitter_ms": 1000 * max(jitters) if jitters else 0.0,
        "within_budget": min(within) if within else 0.0,
    }


def tgtr_under_load(
    num_calls: int,
    channel_bps: float = 40_000.0,
    media: str = DEFAULT_MEDIA,
    faults: Optional[str] = None,
    runs: Optional[Runs] = None,
) -> Dict[str, Any]:
    """Voice-quality metrics with *num_calls* calls sharing the 3G TR
    packet channel."""
    nw = build_3gtr_network(packet_channel_bps=channel_bps)
    apply_media(nw.sim, media)
    watched = _arm(nw, faults)
    pairs = []
    for i in range(num_calls):
        ms = nw.add_ms(f"MS{i}", f"46692000000100{i}", f"+88693500010{i}",
                       answer_delay=0.2)
        term = nw.add_terminal(f"TERM{i}", f"+88622200010{i}", answer_delay=0.2)
        pairs.append((ms, term))
    nw.sim.run(until=0.5)
    connected = 0
    for ms, term in pairs:
        ms.power_on()
        nw.sim.run_until_true(lambda m=ms: m.registered, timeout=30)
    nw.sim.run(until=nw.sim.now + 1.0)
    for ms, term in pairs:
        ms.place_call(term.alias)
        if nw.sim.run_until_true(lambda m=ms: m.state == "in-call", timeout=20):
            connected += 1
    for ms, _ in pairs:
        if ms.state == "in-call":
            ms.start_talking(duration=TALK_S)
    nw.sim.run(until=nw.sim.now + TALK_S + 3.0)
    delays, jitters, within = [], [], []
    for i, _ in enumerate(pairs):
        m2e = nw.sim.metrics.get_histogram(f"TERM{i}.mouth_to_ear")
        jit = nw.sim.metrics.get_histogram(f"TERM{i}.jitter")
        if m2e is not None and m2e.count:
            delays.append(m2e.mean)
            within.append(m2e.fraction_below(BUDGET_S))
        if jit is not None and jit.count:
            jitters.append(jit.quantile(0.95))
    _ship(watched, runs)
    return {
        "connected": connected,
        "blocked": 0,
        "mean_m2e_ms": 1000 * sum(delays) / len(delays) if delays else 0.0,
        "p95_jitter_ms": 1000 * max(jitters) if jitters else 0.0,
        "within_budget": min(within) if within else 0.0,
    }


def voice_quality_point(
    num_calls: int, media: str = DEFAULT_MEDIA, faults: Optional[str] = None
) -> Dict[str, Any]:
    """One E9 sweep point: both architectures at *num_calls* calls."""
    v_runs: Runs = []
    t_runs: Runs = []
    return {
        "calls": num_calls,
        "vgprs": vgprs_under_load(num_calls, media=media, faults=faults,
                                  runs=v_runs),
        "tgtr": tgtr_under_load(num_calls, media=media, faults=faults,
                                runs=t_runs),
        # 3G TR first: the order these artefacts have always merged in,
        # and the merged float sums (metrics and series) depend on it.
        "runs": t_runs + v_runs,
    }


# ----------------------------------------------------------------------
# E11 — PDP context residency vs. call rate
# ----------------------------------------------------------------------
def residency_point(
    calls_per_hour: float, horizon: float = 60.0,
    faults: Optional[str] = None,
) -> Dict[str, Any]:
    """Context-seconds at the SGSN over *horizon* simulated seconds with
    one subscriber making Poisson-ish periodic calls.  Returns a dict
    with ``vgprs_residency``/``vgprs_activations``/``tgtr_residency``/
    ``tgtr_activations`` plus both networks' records under ``"runs"``
    (vGPRS first)."""
    period = 3600.0 / calls_per_hour if calls_per_hour else None
    runs: Runs = []

    def run(builder, is_vgprs):
        nw = builder()
        watched = _arm(nw, faults)
        if is_vgprs:
            ms = nw.add_ms("MS1", IMSI1, MSISDN1)
            term = nw.add_terminal("TERM1", TERM1, answer_delay=0.2)
            nw.sim.run(until=0.5)
            scenarios.register_ms(nw, ms)
        else:
            ms = nw.add_ms("MS1", IMSI1, MSISDN1)
            term = nw.add_terminal("TERM1", TERM1, answer_delay=0.2)
            nw.sim.run(until=0.5)
            ms.power_on()
            nw.sim.run_until_true(lambda: ms.registered, timeout=30)
        start = nw.sim.now
        base_residency = nw.sgsn.context_residency()
        activations0 = nw.sim.metrics.counters("SGSN.pdp_activations").get(
            "SGSN.pdp_activations", 0
        )
        next_call = nw.sim.now + (period / 2 if period else horizon * 2)
        while nw.sim.now - start < horizon:
            if period is not None and nw.sim.now >= next_call:
                next_call += period
                try:
                    if is_vgprs:
                        scenarios.call_ms_to_terminal(nw, ms, term, timeout=15)
                        nw.sim.run(until=nw.sim.now + 10.0)  # 10 s call
                        scenarios.hangup_from_ms(nw, ms)
                    else:
                        ms.place_call(term.alias)
                        nw.sim.run_until_true(
                            lambda: ms.state == "in-call", timeout=15
                        )
                        nw.sim.run(until=nw.sim.now + 10.0)
                        ms.hangup()
                        nw.sim.run(until=nw.sim.now + 2.0)
                except Exception:
                    pass
            step_to = min(next_call, start + horizon)
            nw.sim.run(until=max(nw.sim.now, step_to))
        activations = nw.sim.metrics.counters("SGSN.pdp_activations").get(
            "SGSN.pdp_activations", 0
        ) - activations0
        residency = nw.sgsn.context_residency() - base_residency
        _ship(watched, runs)
        return residency, activations

    v_res, v_act = run(build_vgprs_network, True)
    t_res, t_act = run(build_3gtr_network, False)
    return {
        "vgprs_residency": v_res,
        "vgprs_activations": v_act,
        "tgtr_residency": t_res,
        "tgtr_activations": t_act,
        "runs": runs,
    }
