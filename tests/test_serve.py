"""Live service mode end to end.

Unit coverage for the pacer, alert lifecycle, published state and HTTP
endpoint, then the integration properties the PR pins:

* a serve run under sustained Poisson arrivals can be scraped over HTTP
  *mid-run*, and every scrape round-trips the strict Prometheus line
  grammar;
* an alert driven by the live workload is observed both ``firing`` and
  ``resolved``;
* a drained shutdown's final metrics are byte-identical to a batch
  (``--rate 0``) run of the same seed and workload;
* SIGTERM produces a graceful drain and the documented exit code.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs.slo import SloWatchdog, parse_slo_rules
from repro.serve.cli import (
    build_serve_run,
    finish_serve_run,
    make_parser,
)
from repro.serve.httpd import TelemetryServer
from repro.serve.pacer import Pacer
from repro.serve.state import ServeState

REPO_ROOT = Path(__file__).resolve().parents[1]

HELP_RE = re.compile(r"^# HELP (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$")
TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<kind>counter|gauge|summary|histogram|untyped)$"
)
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*")*\})?'
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|inf|nan))$"
)


def assert_prometheus_grammar(text: str) -> int:
    """Every line parses under the strict exposition grammar; returns
    the number of sample lines."""
    samples = 0
    for line in text.splitlines():
        if line.startswith("# HELP "):
            assert HELP_RE.match(line), f"bad HELP line: {line!r}"
        elif line.startswith("# TYPE "):
            assert TYPE_RE.match(line), f"bad TYPE line: {line!r}"
        else:
            assert SAMPLE_RE.match(line), f"bad sample line: {line!r}"
            samples += 1
    return samples


def serve_args(extra):
    return make_parser().parse_args(extra)


# ----------------------------------------------------------------------
# Pacer
# ----------------------------------------------------------------------
class TestPacer:
    def test_unpaced_never_sleeps(self):
        pacer = Pacer(rate=0)
        pacer.start(0.0)
        before = time.monotonic()
        assert pacer.pace(1e9) == 0.0
        assert time.monotonic() - before < 0.5

    def test_fast_rate_barely_sleeps(self):
        pacer = Pacer(rate=1000.0)
        pacer.start(0.0)
        before = time.monotonic()
        pacer.pace(10.0)  # 10 sim-s at 1000x = 10 ms wall
        assert time.monotonic() - before < 2.0

    def test_lag_reported_when_sim_falls_behind(self):
        pacer = Pacer(rate=1e9)
        pacer.start(0.0)
        time.sleep(0.05)
        # The wall moved 50 ms but the sim asked to pace ~0 sim-s in:
        # the schedule says we are late, nothing to sleep.
        assert pacer.pace(1.0) > 0.0
        assert pacer.lag > 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            Pacer(rate=-1.0)


# ----------------------------------------------------------------------
# Alert lifecycle
# ----------------------------------------------------------------------
def bucket(t, **counters):
    return {"t": t, "counters": counters, "gauges": {}, "histograms": {}}


class TestAlertManager:
    """The alert lifecycle of :class:`SloWatchdog` (the class name
    predates the merge of the alert engine into the watchdog)."""

    def make(self, rule="leak: delta(c) <= 1", log=None, **kwargs):
        dog = SloWatchdog([], alert_rules=parse_slo_rules(rule), **kwargs)
        dog.log = log
        return dog

    def test_full_lifecycle_and_exit_code(self):
        dog = self.make(for_windows=2, clear_windows=2)
        for b in (bucket(1.0, c=1), bucket(2.0, c=5), bucket(3.0, c=5),
                  bucket(4.0, c=1), bucket(5.0, c=0)):
            dog.push(b)
        states = [t["to"] for t in dog.transitions]
        assert states == ["pending", "firing", "resolved"]
        assert dog.alerts[0].fired_count == 1
        assert dog.ever_fired
        assert dog.alert_exit_code() == 2

    def test_pending_recovery_never_fires(self):
        dog = self.make(for_windows=3)
        for b in (bucket(1.0, c=5), bucket(2.0, c=0), bucket(3.0, c=0)):
            dog.push(b)
        states = [t["to"] for t in dog.transitions]
        assert states == ["pending", "ok"]
        assert not dog.ever_fired
        assert dog.alert_exit_code() == 0

    def test_firing_at_exit_is_code_one(self):
        dog = self.make(for_windows=1)
        dog.push(bucket(1.0, c=9))
        assert dog.alerts[0].state == "firing"
        assert dog.alert_exit_code() == 1

    def test_transitions_are_logged(self):
        lines = []
        dog = self.make(for_windows=1, log=lines.append)
        dog.push(bucket(1.0, c=9))
        assert any("pending -> firing" in line for line in lines)

    def test_payload_shape(self):
        dog = self.make()
        dog.push(bucket(1.0, c=9))
        payload = dog.alert_payload()
        (alert,) = payload["alerts"]
        assert alert["name"] == "leak"
        assert alert["state"] == "pending"
        assert payload["transition_count"] == 1

    def test_rejects_zero_windows(self):
        with pytest.raises(ValueError):
            self.make(for_windows=0)


# ----------------------------------------------------------------------
# Published state + HTTP endpoint
# ----------------------------------------------------------------------
class TestEndpoint:
    def test_state_before_first_publish(self):
        state = ServeState()
        assert "no snapshot" in state.render_metrics()
        assert json.loads(state.status_json())["phase"] == "starting"

    def test_routes(self):
        state = ServeState()
        state.publish(
            snapshot={"sim_time": 1.5, "counters": {"x.y": 3},
                      "gauges": {}, "histograms": {}},
            status={"phase": "serving", "sim_time": 1.5},
            alerts={"alerts": [], "transitions": [], "transition_count": 0},
            incidents={"captured": 1, "dropped": 0, "capturing": False,
                       "incidents": [{"incident": 1, "run": "serve"}]},
        )
        server = TelemetryServer(state, port=0).start()
        try:
            host, port = server.address
            base = f"http://{host}:{port}"

            def get(path):
                with urllib.request.urlopen(base + path, timeout=5) as rsp:
                    return rsp.status, rsp.read().decode()

            status, body = get("/metrics")
            assert status == 200
            assert "repro_x_y 3" in body
            assert_prometheus_grammar(body)
            status, body = get("/status")
            assert json.loads(body)["phase"] == "serving"
            status, body = get("/alerts")
            assert json.loads(body)["alerts"] == []
            status, body = get("/incidents")
            incidents = json.loads(body)
            assert incidents["captured"] == 1
            assert incidents["incidents"][0]["incident"] == 1
            status, _ = get("/")
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/nope")
            assert err.value.code == 404
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Integration: the full serve pipeline
# ----------------------------------------------------------------------
ALERT_ARGS = [
    "--alert", "rereg: delta(openloop.reregistrations) <= 0",
    "--alert-for", "1", "--alert-clear", "2",
]
BASE_ARGS = [
    "--no-http", "--pairs", "3", "--seed", "23",
    "--calls-per-hour", "900", "--duration", "25",
    "--avalanche-at", "10", "--avalanche-spread", "1.5",
] + ALERT_ARGS
#: Passing SLO rules: one cumulative, one windowed, and one that shares
#: its name with the alert rule (the two rule sets are separate name
#: spaces).
BOTH_SLO = ("trunks: total(*.international_seizures) <= 0; "
            "busy: delta(openloop.reregistrations) <= 100; "
            "rereg: total(openloop.reregistrations) >= 1")


def run_pipeline(extra):
    echoes = []
    run = build_serve_run(serve_args(BASE_ARGS + extra), echo=echoes.append)
    run.loop.run()
    return run, echoes


class TestServeIntegration:
    def test_alert_fires_and_resolves_then_drains(self):
        run, echoes = run_pipeline(["--rate", "0", "--quantum", "0.5"])
        states = [t["to"] for t in run.watched.watchdog.transitions]
        assert "firing" in states and "resolved" in states
        assert run.loop.drained
        assert run.workload.active == 0
        assert finish_serve_run(run, echo=echoes.append) == 2
        assert any("rereg=resolved" in line for line in echoes)

    def test_paced_run_matches_unpaced_batch_byte_for_byte(self, tmp_path):
        # Same quantum both sides: the drain ends on a quantum boundary,
        # so the slice size is part of the workload definition — the
        # pacing *rate* is what must never leak into the simulation.
        # --trace-out makes both runs retain the trace compared below.
        retain = ["--trace-out", str(tmp_path / "trace.jsonl")]
        batch, _ = run_pipeline(["--rate", "0", "--quantum", "0.5"] + retain)
        paced, _ = run_pipeline(["--rate", "400", "--quantum", "0.5"] + retain)
        assert paced.workload.arrivals == batch.workload.arrivals
        assert (paced.sim.trace.triples()
                == batch.sim.trace.triples())
        assert (paced.state.render_metrics()
                == batch.state.render_metrics())

    def test_mid_run_http_scrape_round_trips_grammar(self):
        args = serve_args([
            "--pairs", "3", "--seed", "23", "--calls-per-hour", "1800",
            "--duration", "30", "--rate", "30", "--quantum", "0.25",
        ])
        run = build_serve_run(args, echo=lambda _line: None)
        server = TelemetryServer(run.state, port=0).start()
        worker = threading.Thread(target=run.loop.run, daemon=True)
        worker.start()
        try:
            host, port = server.address
            base = f"http://{host}:{port}"
            scrapes = 0
            deadline = time.monotonic() + 30.0
            while worker.is_alive() and time.monotonic() < deadline:
                with urllib.request.urlopen(
                    base + "/metrics", timeout=5
                ) as rsp:
                    text = rsp.read().decode()
                if "repro_openloop_offered" in text:
                    assert assert_prometheus_grammar(text) > 10
                    scrapes += 1
                with urllib.request.urlopen(
                    base + "/status", timeout=5
                ) as rsp:
                    status = json.loads(rsp.read().decode())
                assert status["phase"] in ("starting", "serving",
                                           "draining", "stopped")
                time.sleep(0.05)
            worker.join(timeout=30.0)
            assert not worker.is_alive()
            # The run lasted ~1 wall second; we must have scraped a
            # mid-run exposition with live workload counters in it.
            assert scrapes >= 1
            assert run.loop.drained
        finally:
            server.stop()

    def test_incident_capture_endpoint_and_bundle_files(self, tmp_path):
        inc_dir = tmp_path / "incidents"
        run, echoes = run_pipeline([
            "--rate", "0", "--quantum", "0.5",
            "--faults", "at 12 link GK--IPNET down for 4",
            "--incident-dir", str(inc_dir),
        ])
        recorder = run.loop.recorder
        assert recorder is not None and len(recorder.bundles) >= 1
        reasons = [t["reason"]
                   for t in recorder.bundles[0]["triggers"]]
        assert "fault:FAULT_LINK_DOWN:GK--IPNET" in reasons
        # /status carries the capture count and last trigger...
        status = json.loads(run.state.status_json())
        assert status["incidents_captured"] == len(recorder.bundles)
        assert status["last_incident"] == recorder.last_trigger()
        # ...and /incidents serves the published summary payload.
        server = TelemetryServer(run.state, port=0).start()
        try:
            host, port = server.address
            url = f"http://{host}:{port}/incidents"
            with urllib.request.urlopen(url, timeout=5) as rsp:
                payload = json.loads(rsp.read().decode())
        finally:
            server.stop()
        assert payload["captured"] == len(recorder.bundles)
        assert not payload["capturing"]  # drain flushed the capture
        # finish writes one bundle file per incident for repro analyze.
        finish_serve_run(run, echo=echoes.append)
        files = sorted(inc_dir.glob("incident-*.json"))
        assert len(files) == len(recorder.bundles)
        bundle = json.loads(files[0].read_text())
        assert bundle["incident"] == 1
        assert bundle["fault_plan"][0]["link"] == "GK--IPNET"

    def test_slo_and_alert_share_one_watchdog(self, tmp_path):
        no_alert = BASE_ARGS[:-len(ALERT_ARGS)]
        common = ["--rate", "0", "--quantum", "0.5",
                  "--faults", "at 12 link GK--IPNET down for 4"]

        def served(name, extra):
            inc_dir = tmp_path / name
            echoes = []
            run = build_serve_run(
                serve_args(no_alert + common + extra
                           + ["--incident-dir", str(inc_dir)]),
                echo=echoes.append,
            )
            run.loop.run()
            code = finish_serve_run(run, echo=echoes.append)
            bundles = [f.read_text()
                       for f in sorted(inc_dir.glob("incident-*.json"))]
            return run, echoes, code, bundles

        slo_only = served("a", ["--slo", BOTH_SLO])
        alert_only = served("b", ALERT_ARGS)
        both = served("c", ["--slo", BOTH_SLO] + ALERT_ARGS)
        (a_run, a_echo, a_code, a_bundles) = slo_only
        (b_run, b_echo, b_code, b_bundles) = alert_only
        (c_run, c_echo, c_code, c_bundles) = both
        assert (a_code, b_code, c_code) == (0, 2, 2)

        def slo_report(echoes):
            (report,) = [e for e in echoes if e.startswith("SLO [")]
            return report

        def alert_lines(echoes):
            return [e for e in echoes if e.startswith("[alert]")]

        assert "3 rule(s), all passed" in slo_report(c_echo)
        assert slo_report(c_echo) == slo_report(a_echo)
        b_dog, c_dog = b_run.watched.watchdog, c_run.watched.watchdog
        assert c_dog.transitions and c_dog.transitions == b_dog.transitions
        assert alert_lines(c_echo) and alert_lines(c_echo) == alert_lines(b_echo)
        assert c_run.state.alerts_json() == b_run.state.alerts_json()
        assert (a_run.state.render_metrics() == b_run.state.render_metrics()
                == c_run.state.render_metrics())
        # A has no alert rule, so no alert-triggered capture; with the
        # alert rule the bundles match whether or not --slo rides along.
        assert b_bundles and c_bundles == b_bundles
        # One rule subscriber folds each bucket for both rule sets.
        sampler = c_run.watched.sampler
        assert sampler.on_bucket == [c_run.watched.recorder._on_bucket,
                                     c_dog.push]

    def test_alerts_payload_has_one_shape(self):
        """/alerts serves the same keys with and without --alert."""
        no_alert = BASE_ARGS[:-len(ALERT_ARGS)]

        def alert_keys(extra):
            run = build_serve_run(
                serve_args(no_alert + ["--rate", "0", "--quantum", "0.5"] + extra),
                echo=lambda _line: None,
            )
            run.loop.run()
            return sorted(json.loads(run.state.alerts_json()))

        assert alert_keys([]) == alert_keys(ALERT_ARGS) == [
            "alerts", "transition_count", "transitions",
        ]

    def test_sigterm_drains_gracefully(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--no-http", "--pairs", "2", "--seed", "7",
             "--calls-per-hour", "1800", "--rate", "25",
             "--quantum", "0.25"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(2.0)  # let it serve a while
        proc.send_signal(signal.SIGTERM)
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        assert proc.returncode == 0, stderr
        assert "drained=yes" in stderr


# ----------------------------------------------------------------------
# Retention: a served run keeps no history unless an exporter asks
# ----------------------------------------------------------------------
#: A short unpaced served run crossing a GK outage and a storm.
RETENTION_ARGS = [
    "--no-http", "--rate", "0", "--quantum", "0.5", "--pairs", "3",
    "--seed", "23", "--calls-per-hour", "900",
    "--avalanche-at", "10", "--avalanche-spread", "1.5",
    "--faults", "at 12 link GK--IPNET down for 4",
] + ALERT_ARGS
#: Status fields that read the wall clock, so differ between any runs.
WALL_FIELDS = ("wall_runtime", "wall_lag", "event_rate")


class TestServeRetention:
    @pytest.mark.parametrize("duration", [20, 60])
    def test_unexported_run_retains_no_history(self, duration):
        run = build_serve_run(
            serve_args(RETENTION_ARGS + ["--duration", str(duration)]),
            echo=lambda _line: None,
        )
        run.loop.run()
        sim = run.sim
        assert not sim.retain_history
        # Every entry reached the sinks and was counted, none was kept.
        assert sim.trace.entries == [] and sim.trace.dropped > 0
        # Only open spans are held; closed ones were counted and let go.
        spans = sim.spans
        assert len(spans.spans) == spans.open_count
        assert spans.dropped > 0
        # Learned transaction keys point at open spans only.
        assert len(spans._learned) <= spans.open_count
        assert all(span.open for span in spans._learned.values())

    def test_trace_out_changes_no_served_output(self, tmp_path):
        def served(name, extra):
            out = tmp_path / name
            out.mkdir()
            args = RETENTION_ARGS + [
                "--duration", "30",
                "--metrics-out", str(out / "metrics.prom"),
                "--incident-dir", str(out / "incidents"),
            ] + extra
            run = build_serve_run(serve_args(args), echo=lambda _line: None)
            run.loop.run()
            status = json.loads(run.state.status_json())
            code = finish_serve_run(run, echo=lambda _line: None)
            for field in WALL_FIELDS:
                status.pop(field)
            return run, out, code, status

        trace_out = tmp_path / "trace.jsonl"
        bare, bare_dir, bare_code, bare_status = served("bare", [])
        kept, kept_dir, kept_code, kept_status = served(
            "kept", ["--trace-out", str(trace_out)]
        )
        assert not bare.sim.retain_history and kept.sim.retain_history
        assert bare_code == kept_code
        assert ((bare_dir / "metrics.prom").read_text()
                == (kept_dir / "metrics.prom").read_text())
        assert bare.loop.recorder.bundles
        assert (json.dumps(bare.loop.recorder.bundles, sort_keys=True,
                           default=str)
                == json.dumps(kept.loop.recorder.bundles, sort_keys=True,
                              default=str))
        bundle_files = sorted(
            p.name for p in (bare_dir / "incidents").iterdir()
        )
        assert bundle_files
        for name in bundle_files:
            assert ((bare_dir / "incidents" / name).read_text()
                    == (kept_dir / "incidents" / name).read_text())
        assert bare_status == kept_status
        header = json.loads(trace_out.read_text().splitlines()[0])
        assert header["n_entries"] == bare.sim.trace.dropped > 0
        assert len(kept.sim.spans.spans) == (
            bare.sim.spans.dropped + bare.sim.spans.open_count
        )
