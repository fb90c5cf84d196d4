"""Flight recorder + ``repro analyze`` — bounded rings, byte-
deterministic incident bundles, blast-radius analysis on a seeded GK
outage, and the sweep-worker bundle-merge contract (parallel == serial).
"""

import json

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.faults import apply_faults
from repro.obs.analyze import (
    AnalyzeError,
    analyze_bundle,
    fault_intervals,
    load_bundles,
    render_report,
)
from repro.obs.analyze import main as analyze_main
from repro.obs.recorder import FlightRecorder, merge_incidents, plain_value
from repro.obs.series import SeriesSampler
from repro.obs.slo import SloWatchdog, parse_slo_rules
from repro.sim.kernel import Simulator
from repro.sim.sweep import run_sweep, sweep_grid

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
PHONE1 = "+886233000001"

#: One GK outage crossing an MO call: the call at t=8 hits the admission
#: guard, falls back to the PSTN trunk, and the MS re-homes to VoIP
#: (recording an MTTR sample) once the link heals at t=16.
OUTAGE_PLAN = "at 6 link GK--IPNET down for 10"


def _hangup_if_talking(ms):
    if ms.state in ("in-call", "mo-alerting", "mt-ringing"):
        ms.hangup()


def _outage_run(seed=21, plan=OUTAGE_PLAN, until=60.0, **recorder_kwargs):
    """The fixed blast-radius scenario: a pre-fault baseline call, then
    a call placed into the outage.  Returns ``(nw, recorder)`` with the
    recorder flushed (every capture finalized)."""
    nw = build_vgprs_network(seed=seed, with_pstn=True)
    # Armed before the fault plan so FAULT_PLAN_ARMED lands in the ring
    # and the plan is embedded in every bundle.
    recorder = FlightRecorder(nw.sim, run="test", **recorder_kwargs).arm()
    sampler = SeriesSampler(nw.sim, interval=1.0).start()
    recorder.attach_sampler(sampler)
    phone = nw.add_phone("PHONE1", PHONE1, answer_delay=0.5)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    apply_faults(nw, plan)
    nw.sim.schedule_at(2.0, ms.place_call, PHONE1)
    nw.sim.schedule_at(4.0, _hangup_if_talking, ms)
    nw.sim.schedule_at(8.0, ms.place_call, PHONE1)
    nw.sim.schedule_at(20.0, _hangup_if_talking, ms)
    nw.sim.run(until=until)
    sampler.stop(flush=True)
    recorder.flush()
    _ = phone
    return nw, recorder


def _bundle_dump(bundles):
    return json.dumps(bundles, indent=1, sort_keys=True, default=str)


def incident_point(seed, plan=OUTAGE_PLAN):
    """Module-level sweep worker (picklable for --jobs N): bundles ride
    the result value."""
    _nw, recorder = _outage_run(seed=seed, plan=plan, until=40.0)
    return {"seed": seed, "incidents": list(recorder.bundles)}


# ----------------------------------------------------------------------
# Ring bounds and capture lifecycle (unit level)
# ----------------------------------------------------------------------
class TestRings:
    def test_entry_ring_evicts_oldest(self):
        sim = Simulator(seed=0)
        recorder = FlightRecorder(sim, max_entries=8).arm()
        for i in range(50):
            sim.trace.note("T", f"N{i}", i=i)
        assert len(recorder.entries) == 8
        assert recorder.entries[0].message == "N42"
        assert recorder.entries[-1].message == "N49"

    def test_rings_stay_bounded_under_the_full_scenario(self):
        _nw, recorder = _outage_run(
            seed=24, max_entries=16, max_closures=2, max_buckets=4,
        )
        assert len(recorder.entries) == 16
        assert len(recorder.closures) <= 2
        assert len(recorder.buckets) <= 4
        # A tiny entry ring still yields a (smaller) valid bundle.
        assert recorder.bundles
        assert len(recorder.bundles[0]["entries"]) <= 16

    def test_max_incidents_drops_further_triggers(self):
        # Two outages far enough apart that the first capture finalizes
        # (short post window) before the second trigger arrives.
        _nw, recorder = _outage_run(
            seed=25,
            plan="at 6 link GK--IPNET down for 2; "
                 "at 40 link GK--IPNET down for 2",
            pre_window=2.0, post_window=2.0, max_incidents=1,
        )
        assert len(recorder.bundles) == 1
        assert recorder.dropped_incidents >= 1

    def test_rejects_bad_bounds(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            FlightRecorder(sim, max_entries=1)
        with pytest.raises(ValueError):
            FlightRecorder(sim, pre_window=-1.0)
        with pytest.raises(ValueError):
            FlightRecorder(sim, max_incidents=0)

    def test_plain_value_stringifies_rich_leaves(self):
        class Rich:
            def __str__(self):
                return "rich!"

        plained = plain_value({"a": [Rich(), 1, (2.5, None)], 3: True})
        assert plained == {"a": ["rich!", 1, [2.5, None]], "3": True}
        json.dumps(plained)  # JSON-safe by construction


# ----------------------------------------------------------------------
# Bundle capture on the seeded GK outage
# ----------------------------------------------------------------------
class TestSubscribers:
    def test_watchdog_attached_after_recorder_keeps_both(self):
        # SloWatchdog.attach used to overwrite the sampler's single
        # bucket hook, silently unhooking a recorder attached first.
        sim = Simulator()
        sampler = SeriesSampler(sim, interval=1.0).start()
        recorder = FlightRecorder(sim).arm().attach_sampler(sampler)
        dog = SloWatchdog(parse_slo_rules("ticks: total(x) <= 100"))
        dog.attach(sampler)
        for i in range(5):
            sim.schedule(i + 0.5, sim.metrics.counter("x").inc)
        sim.run(until=5.0)
        assert [b["t"] for b in recorder.buckets] == [1.0, 2.0, 3.0, 4.0, 5.0]
        (result,) = dog.finalize()
        assert result.value == 5 and dog.now == 5.0

    def test_bucket_subscribers_run_in_attach_order(self):
        sim = Simulator()
        sampler = SeriesSampler(sim, interval=1.0).start()
        order = []
        sampler.on_bucket.append(lambda bucket: order.append("first"))
        recorder = FlightRecorder(sim).attach_sampler(sampler)
        sampler.on_bucket.append(
            lambda bucket: order.append(len(recorder.buckets))
        )
        sim.run(until=2.0)
        assert order == ["first", 1, "first", 2]

    def test_recorder_sink_runs_after_the_span_tracker(self):
        sim = Simulator()
        recorder = FlightRecorder(sim).arm()
        assert sim.trace.sinks == [sim.spans.on_entry, recorder._on_entry]
        assert recorder.arm() is recorder  # idempotent
        assert len(sim.trace.sinks) == 2
        assert sim.spans.on_close == [recorder._on_span_close]


class TestBundleCapture:
    def test_fault_trigger_opens_and_finalizes_a_bundle(self):
        _nw, recorder = _outage_run()
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[0]
        reasons = [t["reason"] for t in bundle["triggers"]]
        assert reasons[0] == "fault:FAULT_LINK_DOWN:GK--IPNET"
        # down at 6, pre window 10 => from 0; up at 16 extends post.
        assert bundle["window"]["from"] == 0.0
        assert bundle["window"]["until"] >= 16.0
        assert bundle["fault_plan"] and (
            bundle["fault_plan"][0]["link"] == "GK--IPNET"
        )
        assert bundle["entries"] and bundle["series"]
        assert recorder.last_trigger() == "fault:FAULT_LINK_DOWN:GK--IPNET"

    def test_bundles_are_plain_data_and_byte_deterministic(self):
        _nw1, first = _outage_run(seed=33)
        _nw2, second = _outage_run(seed=33)
        assert _bundle_dump(first.bundles) == _bundle_dump(second.bundles)

    def test_different_plans_diverge(self):
        _nw1, first = _outage_run(seed=33)
        _nw2, second = _outage_run(
            seed=33, plan="at 6 link GK--IPNET down for 11"
        )
        assert _bundle_dump(first.bundles) != _bundle_dump(second.bundles)

    def test_armed_recorder_never_perturbs_the_trace(self):
        def trace_dump(record):
            nw = build_vgprs_network(seed=27, with_pstn=True)
            if record:
                FlightRecorder(nw.sim, run="armed").arm()
            phone = nw.add_phone("PHONE1", PHONE1, answer_delay=0.5)
            ms = nw.add_ms("MS1", IMSI1, MSISDN1)
            nw.sim.run(until=0.5)
            scenarios.register_ms(nw, ms)
            apply_faults(nw, OUTAGE_PLAN)
            nw.sim.schedule_at(8.0, ms.place_call, PHONE1)
            nw.sim.schedule_at(20.0, _hangup_if_talking, ms)
            nw.sim.run(until=40.0)
            _ = phone
            return json.dumps(
                [e.to_dict() for e in nw.sim.trace.entries],
                default=str, sort_keys=True,
            )

        assert trace_dump(record=False) == trace_dump(record=True)

    def test_capture_now_flush_and_payload_shape(self):
        sim = Simulator(seed=0)
        recorder = FlightRecorder(sim).arm()
        sim.trace.note("T", "BEFORE")
        recorder.capture_now("exit:1")
        assert recorder.capturing
        assert recorder.last_trigger() == "exit:1"
        recorder.flush()
        assert not recorder.capturing
        payload = recorder.to_payload()
        assert payload["captured"] == 1 and payload["dropped"] == 0
        (summary,) = payload["incidents"]
        assert summary["triggers"][0]["reason"] == "exit:1"
        assert summary["entries"] == 1  # counts, not the raw entries


# ----------------------------------------------------------------------
# Blast-radius analysis
# ----------------------------------------------------------------------
class TestAnalyze:
    def test_fault_intervals_reconstruct_the_outage(self):
        _nw, recorder = _outage_run()
        (interval,) = fault_intervals(recorder.bundles[0])
        assert interval["kind"] == "link"
        assert interval["label"] == "GK--IPNET"
        assert interval["start"] == pytest.approx(6.0)
        assert interval["end"] == pytest.approx(16.0)
        assert not interval["open"]

    def test_blast_radius_on_the_seeded_outage(self):
        _nw, recorder = _outage_run()
        analysis = analyze_bundle(recorder.bundles[0])
        # The t=8 call overlapped the outage; the t=2 call is baseline.
        assert analysis["affected"]
        modes = {c["mode"] for c in analysis["affected"]}
        assert "pstn-fallback" in modes
        fallback = next(
            c for c in analysis["affected"] if c["mode"] == "pstn-fallback"
        )
        assert fallback["faults"] == ["GK--IPNET"]
        assert analysis["baseline_calls"] >= 1
        assert analysis["setup_baseline"] > 0
        # The MS re-homed after the heal: one MTTR sample in the bundle.
        mttr = analysis["mttr"]["fault.mttr.gk_registration"]
        assert mttr["count"] == 1 and mttr["mean"] > 0

    def test_report_names_the_fault_and_counts_calls(self):
        _nw, recorder = _outage_run()
        report = render_report(analyze_bundle(recorder.bundles[0]))
        assert "GK--IPNET" in report
        assert "pstn-fallback" in report
        assert "fault.mttr.gk_registration" in report
        n_affected = int(
            report.split("affected calls: ")[1].split(" ")[0]
        )
        assert n_affected >= 1

    def test_cli_round_trip_through_incident_dir(self, tmp_path):
        _nw, recorder = _outage_run()
        for n, bundle in enumerate(merge_incidents(recorder.bundles), 1):
            path = tmp_path / f"incident-{n:03d}.json"
            with open(path, "w") as fh:
                json.dump(bundle, fh, indent=1, sort_keys=True,
                          default=str)
        lines = []
        assert analyze_main([str(tmp_path)], echo=lines.append) == 0
        text = "\n".join(lines)
        assert "GK--IPNET" in text
        assert "analyzed 1 incident bundle(s)" in text
        # --json emits the machine-readable analyses.
        lines = []
        assert analyze_main([str(tmp_path), "--json"],
                            echo=lines.append) == 0
        (analysis,) = json.loads("\n".join(lines))
        assert analysis["faults"][0]["label"] == "GK--IPNET"

    def test_load_bundles_rejects_junk(self, tmp_path):
        with pytest.raises(AnalyzeError):
            load_bundles([str(tmp_path / "missing")])
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AnalyzeError):
            load_bundles([str(empty)])
        bad = tmp_path / "incident-001.json"
        bad.write_text('{"not": "a bundle"}')
        with pytest.raises(AnalyzeError):
            load_bundles([str(bad)])
        assert analyze_main([str(bad)]) == 1


# ----------------------------------------------------------------------
# Sweep-worker bundle merge (parallel == serial)
# ----------------------------------------------------------------------
class TestSweepMerge:
    def test_parallel_bundle_merge_matches_serial(self):
        points = sweep_grid(seed=(31, 32))
        serial = run_sweep(incident_point, points, jobs=1)
        parallel = run_sweep(incident_point, points, jobs=2)
        merged_serial = merge_incidents(
            [b for r in serial for b in r.value["incidents"]]
        )
        merged_parallel = merge_incidents(
            [b for r in parallel for b in r.value["incidents"]]
        )
        assert _bundle_dump(merged_serial) == _bundle_dump(merged_parallel)
        assert len(merged_serial) == 2
        # Renumbered in input order, original numbering untouched.
        assert [b["incident"] for b in merged_serial] == [1, 2]
        assert serial[1].value["incidents"][0]["incident"] == 1
        assert len(serial[0].value["incidents"]) == 1
