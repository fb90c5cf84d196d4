"""Tests for SLO rule parsing, watchdog verdicts and the CLI surface."""

import math

import pytest

from repro.__main__ import main as repro_main
from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.obs.session import ObsSession
from repro.obs.slo import (
    SloError,
    SloWatchdog,
    evaluate_series,
    parse_slo_rule,
    parse_slo_rules,
    render_slo_report,
)
from repro.sim.metrics import summarize_samples


def bucket(t, counters=None, gauges=None, histograms=None):
    return {
        "t": t,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def run_dog(rule_text, buckets, start=0.0):
    dog = SloWatchdog(parse_slo_rules(rule_text), start=start)
    for b in buckets:
        dog.push(b)
    return dog.finalize()


class TestGrammar:
    def test_parse_fields(self):
        rule = parse_slo_rule("p95_setup: p95(calls.setup_delay) <= 0.5")
        assert rule.name == "p95_setup"
        assert rule.func == "p95"
        assert rule.args == ("calls.setup_delay",)
        assert rule.op == "<=" and rule.threshold == 0.5
        assert not rule.windowed

    def test_windowed_classification(self):
        assert parse_slo_rule("r: delta(x) <= 1").windowed
        assert parse_slo_rule("r: rate(x) <= 1").windowed
        assert parse_slo_rule("r: idle(x) <= 1").windowed
        assert parse_slo_rule("r: win_p95(x) <= 1").windowed
        assert not parse_slo_rule("r: total(x) <= 1").windowed
        assert not parse_slo_rule("r: value(x) <= 1").windowed

    def test_ratio_takes_two_globs(self):
        rule = parse_slo_rule("tr: ratio(*.seizures, *.calls) <= 1")
        assert rule.args == ("*.seizures", "*.calls")

    def test_le_wins_over_lt(self):
        assert parse_slo_rule("r: total(x) <= 1").op == "<="
        assert parse_slo_rule("r: total(x) < 1").op == "<"

    def test_separators_and_comments(self):
        rules = parse_slo_rules(
            "a: total(x) <= 1; b: value(g) >= 0\n"
            "# a comment\n"
            "c: p99(h) < 2  # trailing comment\n"
        )
        assert [r.name for r in rules] == ["a", "b", "c"]

    @pytest.mark.parametrize("bad", [
        "total(x) <= 1",               # missing name
        "r: total(x) 1",               # no operator
        "r: total(x) <= fast",         # threshold not a number
        "r: total x <= 1",             # no parentheses
        "r: frobnicate(x) <= 1",       # unknown function
        "r: ratio(x) <= 1",            # ratio wants two globs
        "r: total(x, y) <= 1",         # total wants one glob
    ])
    def test_rejects_bad_rules(self, bad):
        with pytest.raises(SloError):
            parse_slo_rule(bad)

    def test_rejects_duplicate_names(self):
        with pytest.raises(SloError, match="duplicate"):
            parse_slo_rules("a: total(x) <= 1\na: total(y) <= 1")

    def test_holds_all_operators(self):
        cases = [("<=", 1.0, True), ("<", 1.0, False), (">=", 1.0, True),
                 (">", 1.0, False), ("==", 1.0, True)]
        for op, value, expected in cases:
            rule = parse_slo_rule(f"r: total(x) {op} 1")
            assert rule.holds(value) is expected, op


class TestVerdicts:
    def test_total_sums_matched_counters(self):
        results = run_dog("t: total(msgs.*) <= 5", [
            bucket(1.0, counters={"msgs.a": 2, "other": 9}),
            bucket(2.0, counters={"msgs.b": 3}),
        ])
        (r,) = results
        assert r.value == 5.0 and r.ok

    def test_cumulative_rules_judge_final_state_only(self):
        # Early wobble above the budget must not fail a converged p95.
        slow = {"h": summarize_samples([9.0])}
        fast = {"h": summarize_samples([0.1] * 99)}
        results = run_dog("lat: p95(h) <= 1.0", [
            bucket(1.0, histograms=slow),
            bucket(2.0, histograms=fast),
        ])
        (r,) = results
        assert r.ok and r.value <= 1.0

    def test_windowed_rule_fails_sticky_on_one_bad_window(self):
        results = run_dog("leak: delta(ctx) <= 2", [
            bucket(1.0, counters={"ctx": 1}),
            bucket(2.0, counters={"ctx": 5}),   # the violation
            bucket(3.0, counters={"ctx": 0}),
        ])
        (r,) = results
        assert not r.ok
        assert r.violation_count == 1
        assert r.violations == [(2.0, 5.0)]

    def test_rate_divides_by_window_width(self):
        results = run_dog("r: rate(x) <= 1.0", [
            bucket(2.0, counters={"x": 6}),  # 3/s over a 2 s window
        ])
        (r,) = results
        assert not r.ok and r.violations == [(2.0, 3.0)]

    def test_idle_measures_staleness(self):
        results = run_dog("live: idle(x) <= 2", [
            bucket(1.0, counters={"x": 1}),
            bucket(2.0), bucket(3.0), bucket(4.0), bucket(5.0),
        ])
        (r,) = results
        assert not r.ok
        # idle exceeds 2 at t=4 (3 s) and t=5 (4 s).
        assert r.violations == [(4.0, 3.0), (5.0, 4.0)]

    def test_idle_with_no_match_counts_from_start(self):
        results = run_dog("live: idle(never.*) <= 1", [
            bucket(1.0), bucket(2.0),
        ])
        (r,) = results
        assert not r.ok and r.value == 2.0

    def test_gauge_value_and_peak(self):
        gauges = lambda v: {"g": {"value": v, "integral": v}}
        results = run_dog("now: value(g) <= 2; top: peak(g) <= 2", [
            bucket(1.0, gauges=gauges(3.0)),
            bucket(2.0, gauges=gauges(1.0)),
        ])
        now, top = results
        assert now.ok and now.value == 1.0     # judged at the edge
        assert not top.ok and top.value == 3.0  # remembers the excursion

    def test_ratio_edge_cases(self):
        zero = run_dog("r: ratio(a, b) <= 1", [bucket(1.0)])
        assert zero[0].value == 0.0 and zero[0].ok
        inf = run_dog("r: ratio(a, b) <= 1", [
            bucket(1.0, counters={"a": 2}),
        ])
        assert math.isinf(inf[0].value) and not inf[0].ok

    def test_win_histogram_checks_each_window(self):
        results = run_dog("w: win_count(h) <= 1", [
            bucket(1.0, histograms={"h": summarize_samples([1.0])}),
            bucket(2.0, histograms={"h": summarize_samples([1.0, 2.0])}),
        ])
        (r,) = results
        assert not r.ok and r.violations == [(2.0, 2.0)]

    def test_histograms_pool_across_buckets_and_globs(self):
        results = run_dog("c: count(lat.*) >= 3", [
            bucket(1.0, histograms={"lat.a": summarize_samples([1.0, 2.0])}),
            bucket(2.0, histograms={"lat.b": summarize_samples([3.0])}),
        ])
        (r,) = results
        assert r.ok and r.value == 3.0

    def test_evaluate_series_replays_buckets(self):
        series = {
            "interval": 1.0, "start": 0.0, "sim_time": 2.0, "sources": 1,
            "buckets": [bucket(1.0, counters={"x": 1}),
                        bucket(2.0, counters={"x": 2})],
        }
        results = evaluate_series(parse_slo_rules("t: total(x) == 3"), series)
        assert results[0].ok


class TestReport:
    def test_render_marks_pass_and_fail(self):
        results = run_dog("good: total(x) <= 10\nbad: delta(x) <= 0", [
            bucket(1.0, counters={"x": 4}),
        ])
        text = render_slo_report(results, title="SLO [t]")
        assert text.startswith("SLO [t] report: 2 rule(s), 1 FAILED")
        assert "PASS  good" in text
        assert "FAIL  bad" in text
        assert "1 violating window(s), first at t=1 (value=4)" in text

    def test_render_all_passed(self):
        results = run_dog("good: total(x) <= 10", [
            bucket(1.0, counters={"x": 4}),
        ])
        assert "all passed" in render_slo_report(results)


class TestCli:
    def run_session(self, slo):
        obs = ObsSession(slo=slo)
        nw = build_vgprs_network()
        obs.watch(nw.sim, run="t")
        ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
        term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.6)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        scenarios.call_ms_to_terminal(nw, ms, term)
        scenarios.hangup_from_ms(nw, ms)
        nw.sim.run(until=nw.sim.now + 1.0)
        out = []
        code = obs.finish(echo=out.append)
        return code, "\n".join(out)

    def test_passing_rule_exits_zero(self):
        code, report = self.run_session(
            "trunks: total(*.international_seizures) <= 0"
        )
        assert code == 0
        assert "all passed" in report

    def test_failing_rule_exits_one(self):
        code, report = self.run_session("impossible: total(msgs.tx.*) <= 0")
        assert code == 1
        assert "FAIL  impossible" in report

    def test_bad_rule_raises_before_any_run(self):
        with pytest.raises(SloError):
            ObsSession(slo="broken rule")


class TestCliUsageErrors:
    """Bad rule, hysteresis, ``@FILE`` and fault-plan input is an
    argparse usage error (exit 2), raised while the arguments parse:
    no topology is ever built."""

    @pytest.fixture(autouse=True)
    def no_topology(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("topology built before input was checked")

        monkeypatch.setattr("repro.core.network.build_vgprs_network", boom)

    def usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            repro_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}:" in err
        return err

    def test_call_bad_slo_rule(self, capsys):
        err = self.usage_error(capsys, ["call", "--slo", "bad rule"], "--slo")
        assert "needs a 'name:' prefix" in err

    def test_serve_bad_alert_rule(self, capsys):
        err = self.usage_error(
            capsys, ["serve", "--alert", "x total(a) <= 1"], "--alert"
        )
        assert "needs a 'name:' prefix" in err

    def test_serve_zero_alert_for(self, capsys):
        err = self.usage_error(
            capsys, ["serve", "--alert-for", "0"], "--alert-for"
        )
        assert "must be >= 1" in err

    def test_missing_slo_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.slo"
        err = self.usage_error(
            capsys, ["call", "--slo", f"@{missing}"], "--slo"
        )
        assert "No such file" in err

    def test_serve_bad_fault_plan(self, capsys):
        err = self.usage_error(
            capsys, ["serve", "--faults", "sometime link A--B down"],
            "--faults",
        )
        assert "must start with 'at' or 'from'" in err

    def test_at_file_is_read_once(self, tmp_path):
        # The checked text is the file's content; a rule file whose
        # content starts with '@' is not read again as a path.
        from repro.obs.session import checked_text

        path = tmp_path / "rules.slo"
        path.write_text("@x: total(a) <= 1\n")
        assert checked_text(parse_slo_rules)(f"@{path}") == "@x: total(a) <= 1\n"
