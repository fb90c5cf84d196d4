"""Tests for the --profile report, heartbeat and ObsSession plumbing."""

import json
from types import SimpleNamespace

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.net.link import Link
from repro.obs.heartbeat import Heartbeat
from repro.obs.profiler import OTHER, package_of, render_profile
from repro.obs.session import ObsSession
from repro.sim.kernel import Simulator

import pytest


class FakeProfile:
    """Stands in for cProfile.Profile: fixed getstats() entries, so the
    report's arithmetic and ordering are checked without timing noise."""

    def __init__(self, *rows):
        self.rows = [
            SimpleNamespace(code=code, callcount=calls, inlinetime=seconds)
            for code, calls, seconds in rows
        ]

    def getstats(self):
        return self.rows


def table(report):
    """{package: share %} parsed from the package table."""
    lines = report.splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("top "))
    return {
        line.split()[0]: float(line.split()[2].rstrip("%"))
        for line in lines[2:end]
    }


class TestProfileReport:
    def test_package_of(self):
        assert package_of(Link._deliver.__code__.co_filename) == "net"
        assert package_of(Simulator.run.__code__.co_filename) == "sim"
        assert package_of(json.dumps.__code__.co_filename) == OTHER
        assert package_of("~") == OTHER

    def test_package_shares_accumulate(self):
        report = render_profile(FakeProfile(
            (Link._deliver.__code__, 4, 0.5),
            (Link.transmit.__code__, 2, 0.25),
            (Simulator.run.__code__, 1, 0.25),
            ("<built-in method builtins.len>", 9, 1.0),
        ))
        assert report.startswith("=== profile: 2.000 s self time, 16 calls ===")
        assert table(report) == {OTHER: 50.0, "net": 37.5, "sim": 12.5}

    def test_top_sorts_by_self_time_then_label(self):
        report = render_profile(FakeProfile(
            ("<b>", 1, 1.0), ("<a>", 1, 1.0), ("<slow>", 1, 3.0),
            ("<fast>", 1, 0.1),
        ), top=3)
        rows = report.splitlines()[-3:]
        assert [row.split()[-1] for row in rows] == ["<slow>", "<a>", "<b>"]

    def test_report_renders(self):
        report = render_profile(FakeProfile(
            *((f"<fn{i:02d}>", i + 1, 0.001 * (i + 1)) for i in range(20))
        ), top=5)
        assert "top 5 functions by self time:" in report
        assert "<fn19>" in report  # heaviest shown
        assert "<fn00>" not in report  # beyond top-5
        (row,) = [line for line in report.splitlines() if "<fn19>" in line]
        assert row.split() == ["20", "20.00", "<fn19>"]  # calls, self ms

    def test_empty_report(self):
        text = render_profile(FakeProfile())
        assert "0.000 s self time, 0 calls" in text  # no division by zero


class TestSimulatorIntegration:
    def run_some_events(self, sim, n=50):
        for i in range(n):
            sim.schedule(0.01 * (i + 1), lambda: None)
        return sim.run(until=10.0)

    def test_profiler_times_callbacks(self):
        obs = ObsSession(profile=True)
        sim = Simulator()
        obs.watch(sim)
        self.run_some_events(sim)
        echoed = []
        obs.finish(echo=echoed.append)
        (report,) = echoed
        (row,) = [line for line in report.splitlines() if "<lambda>" in line]
        assert row.split()[0] == "50"  # one call per event
        assert table(report)["sim"] > 0

    def test_finish_disables_profiler(self):
        obs = ObsSession(profile=True)
        sim = Simulator()
        obs.watch(sim)
        obs.finish(echo=lambda line: None)
        self.run_some_events(sim)  # after finish: the profiler is off
        assert "<lambda>" not in render_profile(obs.profiler)

    def test_register_and_call_profile_the_stack(self):
        # The paper's procedures run through run_until_true; the old
        # per-event profiler hooked only run() and saw none of it.
        obs = ObsSession(profile=True)
        nw = build_vgprs_network()
        obs.watch(nw.sim, run="call")
        ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
        term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.6)
        scenarios.register_ms(nw, ms)
        scenarios.call_ms_to_terminal(nw, ms, term)
        echoed = []
        obs.finish(echo=echoed.append)
        (report,) = echoed
        shares = table(report)
        assert shares["sim"] > 0 and shares["net"] > 0
        qualname = getattr(Link._deliver.__code__, "co_qualname", "_deliver")
        assert f"({qualname})" in report

    def test_events_executed_exact_under_every_driver(self):
        sim = Simulator()
        seen = []
        fired = []
        for i in range(5):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        assert sim.run_until_true(lambda: len(fired) == 5)
        assert sim.events_executed == 5
        sim.schedule(1.0, lambda: None)
        assert sim.step() and sim.events_executed == 6
        for _ in range(3):
            sim.schedule(1.0, lambda: seen.append(sim.events_executed))
        assert sim.run() == 3
        # Read mid-callback, the count includes the running event.
        assert seen == [7, 8, 9] and sim.events_executed == 9
        sim.cancel(sim.schedule(1.0, lambda: None))
        sim.run()
        assert sim.events_executed == 9  # cancelled events never count


class TestHeartbeat:
    def test_beats_and_counts(self):
        sim = Simulator()
        lines = []
        hb = Heartbeat(sim, period=1.0, sink=lines.append, label="soak")
        hb.start()
        for i in range(40):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run(until=3.5)
        hb.stop()
        assert hb.beats == 3 and len(lines) == 3
        assert lines[0].startswith("[hb soak] t=1.0s")
        assert "events=" in lines[0] and "live=" in lines[0]
        # t=3.6..4.0 remain; stop() cancelled the t=4.0 beat.
        assert sim.pending_events == 5

    def test_events_field_equals_events_executed(self):
        sim = Simulator()
        lines = []
        expected = []

        def sink(line):
            lines.append(line)
            expected.append(sim.events_executed)

        Heartbeat(sim, period=1.0, sink=sink).start()
        for i in range(40):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run_until_true(lambda: len(lines) == 2)
        sim.run(until=3.5)
        assert len(lines) == 3
        for line, count in zip(lines, expected):
            assert f" events={count} " in line and count > 0

    def test_extra_hook(self):
        sim = Simulator()
        lines = []
        hb = Heartbeat(sim, period=1.0, sink=lines.append,
                       extra=lambda: "calls=7")
        hb.start()
        sim.run(until=1.0)
        hb.stop()
        assert lines[0].endswith("calls=7")

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Heartbeat(Simulator(), period=0.0)


class TestObsSession:
    def run_sim(self):
        sim = Simulator()
        sim.spans.open("demo", keys={"imsi": 1}).close()
        sim.metrics.counter("demo.counter").inc(3)
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        return sim

    def test_inactive_session_is_free(self):
        obs = ObsSession()
        assert not obs.active
        sim = Simulator()
        obs.watch(sim)
        assert obs.profiler is None and sim.pending_events == 0
        obs.finish(echo=lambda line: pytest.fail(f"unexpected output {line!r}"))

    def test_finish_writes_all_artifacts(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.prom"
        obs = ObsSession(trace_out=str(trace_path),
                         metrics_out=str(metrics_path), profile=True)
        assert obs.active
        echoed = []
        sim = self.run_sim()
        obs.watch(sim)
        obs.watch(sim)  # idempotent
        obs.finish(echo=echoed.append)

        records = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert records[0]["type"] == "run"
        assert any(r["type"] == "span" and r["name"] == "demo"
                   for r in records)
        assert "repro_demo_counter 3" in metrics_path.read_text()
        assert any("trace written" in line for line in echoed)
        assert any("metrics snapshot written" in line for line in echoed)

    def test_profile_report_echoed(self, tmp_path):
        obs = ObsSession(profile=True)
        sim = Simulator()
        obs.watch(sim)  # starts the profiler before the run
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        echoed = []
        obs.finish(echo=echoed.append)
        assert any(line.startswith("=== profile:") for line in echoed)

    def shipped_run(self):
        """What a sweep worker sends back: its watched run's record."""
        sim = Simulator()
        watched = ObsSession(force_series=True).watch(sim, run="sweep")
        sim.metrics.counter("demo.counter").inc(3)
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.5)
        return watched.ship()

    def test_metrics_merge_with_extra_snapshots(self, tmp_path):
        metrics_path = tmp_path / "m.prom"
        obs = ObsSession(metrics_out=str(metrics_path))
        obs.watch(self.run_sim())
        obs.shipped.append(self.shipped_run())
        obs.finish(echo=lambda line: None)
        # The watched and the shipped snapshot merge: the counter doubles.
        assert "repro_demo_counter 6" in metrics_path.read_text()

    def test_extra_snapshots_only(self, tmp_path):
        metrics_path = tmp_path / "m.prom"
        obs = ObsSession(metrics_out=str(metrics_path))
        obs.shipped.append(self.shipped_run())
        obs.finish(echo=lambda line: None)
        assert "repro_demo_counter 3" in metrics_path.read_text()

    def test_watch_returns_one_record_per_sim(self):
        obs = ObsSession(force_series=True)
        sim = Simulator()
        first = obs.watch(sim, run="a")
        # Keyed on the simulator, not the run name.
        assert obs.watch(sim, run="b") is first
        assert obs.runs == [first]
        assert first.name == "a" and first.sim is sim
        assert first.sampler is not None and first.heartbeat is None
        assert obs.watch(Simulator(), run="a") is not first

    def test_ship_stops_sampling_and_returns_plain_data(self):
        record = self.shipped_run()
        assert set(record) == {"metrics", "series", "incidents"}
        assert record["metrics"]["counters"]["demo.counter"] == 3
        # Ticks at 1 and 2, then the flushed partial bucket at 2.5.
        assert [b["t"] for b in record["series"]["buckets"]] == [1.0, 2.0, 2.5]
        assert record["incidents"] == []

    def test_heartbeat_armed_and_stopped(self):
        obs = ObsSession(heartbeat=1.0)
        sim = Simulator()
        obs.watch(sim)
        assert sim.pending_events == 1  # the first beat
        obs.finish(echo=lambda line: None)
        assert sim.pending_events == 0
