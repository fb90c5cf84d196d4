"""Tests for :mod:`repro.faults` — plan grammar, injector semantics,
protocol recovery, PSTN fallback, and determinism (same seed + plan =>
byte-identical traces and metrics, batch or paced or parallel sweep)."""

import functools
import json

import pytest

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.errors import FaultPlanError, TopologyError
from repro.faults import (
    FaultPlan,
    LinkImpairmentFault,
    LinkStateFault,
    NodeCrashFault,
    apply_faults,
)
from repro.net.transactions import ReliableTransaction
from repro.sim.kernel import Simulator
from repro.sim.sweep import run_sweep, sweep_grid

IMSI1 = "466920000000001"
MSISDN1 = "+886935000001"
TERM1 = "+886222000001"
PHONE1 = "+886233000001"


# ----------------------------------------------------------------------
# Plan grammar
# ----------------------------------------------------------------------
class TestPlanGrammar:
    def test_line_grammar(self):
        plan = FaultPlan.parse(
            """
            # gatekeeper outage with auto-restore
            at 120 link VMSC--GK down for 30
            at 200 node SGSN crash restart_after 15
            from 60 until 90 link BSC--VMSC loss 0.05 jitter 0.002
            """
        )
        assert plan.events == (
            LinkImpairmentFault(start=60.0, a="BSC", b="VMSC",
                                loss=0.05, jitter=0.002, until=90.0),
            LinkStateFault(at=120.0, a="VMSC", b="GK", action="down",
                           duration=30.0),
            NodeCrashFault(at=200.0, node="SGSN", restart_after=15.0),
        )

    def test_semicolons_pack_a_plan_into_one_argument(self):
        plan = FaultPlan.parse(
            "at 5 link A--B down; at 9 link A--B up; at 3 node N crash"
        )
        # Stable time-sort.
        assert [type(e).__name__ for e in plan.events] == [
            "NodeCrashFault", "LinkStateFault", "LinkStateFault",
        ]
        assert len(plan) == 3 and bool(plan)

    def test_json_form(self):
        text = json.dumps([
            {"kind": "link", "at": 120, "link": "VMSC--GK",
             "action": "down", "for": 30},
            {"kind": "node", "at": 200, "node": "SGSN",
             "restart_after": 15},
            {"kind": "impair", "from": 60, "until": 90,
             "link": "BSC--VMSC", "loss": 0.05, "jitter": 0.002},
        ])
        assert FaultPlan.parse(text) == FaultPlan.parse(
            "at 120 link VMSC--GK down for 30;"
            "at 200 node SGSN crash restart_after 15;"
            "from 60 until 90 link BSC--VMSC loss 0.05 jitter 0.002"
        )

    def test_json_wrapper_object(self):
        plan = FaultPlan.parse(
            '{"faults": [{"kind": "link", "at": 1, "link": "A--B"}]}'
        )
        assert plan.events[0].action == "down"

    def test_empty_plan(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  # just a comment\n")

    @pytest.mark.parametrize("bad", [
        "at x link A--B down",                 # bad time
        "at -1 link A--B down",                # negative time
        "at 5 link AB down",                   # no -- separator
        "at 5 link A--B sideways",             # unknown action
        "at 5 link A--B down for 0",           # non-positive duration
        "at 5 node N reboot",                  # unknown node action
        "at 5 node N crash restart_after 0",   # non-positive restart
        "at 5 pipe A--B down",                 # unknown target
        "go 5 link A--B down",                 # unknown directive
        "from 5 link A--B",                    # no loss/jitter
        "from 5 link A--B loss 1.5",           # loss > 1
        "from 5 link A--B loss",               # dangling parameter
        "from 9 until 5 link A--B loss 0.1",   # until <= from
        '[{"kind": "warp", "at": 1}]',         # unknown JSON kind
        '[{"kind": "link", "link": "A--B"}]',  # missing "at"
        '{"faults": 3}',                       # non-list JSON
        "[not json",                           # malformed JSON
    ])
    def test_rejects_bad_plans(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)


# ----------------------------------------------------------------------
# Injector semantics
# ----------------------------------------------------------------------
def _quiet_network(seed=11, **kwargs):
    nw = build_vgprs_network(seed=seed, **kwargs)
    nw.sim.run(until=0.5)
    return nw


class TestInjector:
    def test_down_for_duration_then_auto_up(self):
        nw = _quiet_network()
        link = nw.gk.link_to(nw.cloud)
        apply_faults(nw, "at 2 link GK--IPNET down for 3")
        nw.sim.run(until=2.5)
        assert not link.up
        nw.sim.run(until=5.5)
        assert link.up
        assert nw.sim.metrics.counters("fault.link_down") == {
            "fault.link_down": 1
        }
        assert nw.sim.metrics.counters("fault.link_up") == {
            "fault.link_up": 1
        }
        notes = [e.message for e in nw.sim.trace.entries
                 if e.kind == "note" and e.src == "FAULTS"]
        assert notes == ["FAULT_PLAN_ARMED", "FAULT_LINK_DOWN",
                         "FAULT_LINK_UP"]

    def test_flips_are_idempotent(self):
        nw = _quiet_network()
        apply_faults(nw, "at 1 link GK--IPNET down; at 1.5 link GK--IPNET "
                         "down; at 2 link GK--IPNET up; at 3 link "
                         "GK--IPNET up")
        nw.sim.run(until=4)
        assert nw.sim.metrics.counters("fault.link_down") == {
            "fault.link_down": 1
        }
        assert nw.sim.metrics.counters("fault.link_up") == {
            "fault.link_up": 1
        }

    def test_past_times_clamp_to_now(self):
        nw = _quiet_network()   # sim.now is already 0.5
        link = nw.gk.link_to(nw.cloud)
        apply_faults(nw, "at 0 link GK--IPNET down")
        nw.sim.run(until=nw.sim.now + 0.001)
        assert not link.up

    def test_strict_unknown_node_raises(self):
        nw = _quiet_network()
        with pytest.raises(FaultPlanError):
            apply_faults(nw, "at 1 link GK--NOWHERE down")
        with pytest.raises(FaultPlanError):
            apply_faults(nw, "at 1 node NOWHERE crash")

    def test_non_strict_counts_unresolved(self):
        nw = _quiet_network()
        apply_faults(nw, "at 1 node NOWHERE crash", strict=False)
        assert nw.sim.metrics.counters("fault.unresolved") == {
            "fault.unresolved": 1
        }

    def test_double_arm_refused(self):
        nw = _quiet_network()
        (injector,) = apply_faults(nw, "at 1 link GK--IPNET down")
        with pytest.raises(FaultPlanError):
            injector.arm()

    def test_crash_restores_exactly_the_links_it_took(self):
        nw = _quiet_network()
        gb = nw.vmsc.link_to(nw.sgsn)
        gn = nw.sgsn.link_to(nw.ggsn)
        # The Gb link is already down (independent fault) when the SGSN
        # crashes; restart must not resurrect it.
        apply_faults(
            nw,
            "at 1 link VMSC--SGSN down; "
            "at 2 node SGSN crash restart_after 2",
        )
        nw.sim.run(until=3)
        assert not gb.up and not gn.up
        nw.sim.run(until=5)
        assert not gb.up      # still down: the plan owns it
        assert gn.up          # restored by the restart
        assert nw.sim.metrics.counters("fault.node_crash") == {
            "fault.node_crash": 1
        }
        assert nw.sim.metrics.counters("fault.node_restart") == {
            "fault.node_restart": 1
        }

    def test_sgsn_crash_loses_contexts(self):
        nw = _quiet_network(seed=12)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        scenarios.register_ms(nw, ms)
        assert nw.sgsn.context_count() > 0
        t = nw.sim.now
        apply_faults(nw, f"at {t + 1} node SGSN crash restart_after 5")
        nw.sim.run(until=t + 2)
        assert nw.sgsn.context_count() == 0
        assert nw.sim.metrics.counters("SGSN.crash_contexts_lost")

    def test_impairment_loss_drops_frames(self):
        nw = _quiet_network(seed=13)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        term = nw.add_terminal("TERM1", TERM1, answer_delay=0.3)
        scenarios.register_ms(nw, ms)
        scenarios.call_ms_to_terminal(nw, ms, term)
        t = nw.sim.now
        apply_faults(nw, f"from {t} link VMSC--SGSN loss 1.0 jitter 0")
        ms.start_talking(duration=0.5)
        nw.sim.run(until=t + 1.0)
        assert term.frames_received == 0
        drops = nw.sim.metrics.counters("link.Gb.dropped_loss")
        assert drops.get("link.Gb.dropped_loss", 0) > 0

    def test_impairment_window_clears(self):
        nw = _quiet_network()
        link = nw.vmsc.link_to(nw.sgsn)
        apply_faults(nw, "from 1 until 2 link VMSC--SGSN loss 0.5")
        nw.sim.run(until=1.5)
        assert link.impairment is not None
        nw.sim.run(until=2.5)
        assert link.impairment is None
        assert nw.sim.metrics.counters("fault.impair_off") == {
            "fault.impair_off": 1
        }


# ----------------------------------------------------------------------
# ReliableTransaction (the generic retry primitive)
# ----------------------------------------------------------------------
class TestReliableTransaction:
    def make(self, **kwargs):
        sim = Simulator(seed=0)
        sent = []
        txn = ReliableTransaction(
            sim, "t", lambda attempt: sent.append((sim.now, attempt)),
            **kwargs,
        )
        return sim, sent, txn

    def test_exponential_backoff_schedule(self):
        sim, sent, txn = self.make(timeout=1.0, backoff=2.0, max_retries=3)
        txn.start()
        sim.run(until=100)
        # Sends at 0, then after 1, 2, 4 (giving up 8 s after the last).
        assert sent == [(0.0, 1), (1.0, 2), (3.0, 3), (7.0, 4)]
        assert txn.state == "failed"
        assert sim.metrics.counters("txn.t.retries") == {"txn.t.retries": 3}
        assert sim.metrics.counters("txn.t.giveups") == {"txn.t.giveups": 1}

    def test_complete_stops_retries(self):
        sim, sent, txn = self.make(timeout=1.0)
        txn.start()
        sim.run(until=1.5)
        elapsed = txn.complete()
        assert elapsed == pytest.approx(1.5)
        sim.run(until=60)
        assert len(sent) == 2  # the initial send + one retry, no more
        assert txn.complete() is None  # duplicate responses are ignored

    def test_cancel_is_quiet(self):
        sim, sent, txn = self.make(timeout=1.0)
        txn.start()
        txn.cancel()
        sim.run(until=60)
        assert len(sent) == 1
        assert sim.metrics.counters("txn.t.giveups") == {
            "txn.t.giveups": 0
        }

    def test_give_up_callback(self):
        sim = Simulator(seed=0)
        gave_up = []
        txn = ReliableTransaction(
            sim, "t", lambda attempt: None, timeout=0.5, max_retries=0,
            on_give_up=lambda: gave_up.append(sim.now),
        )
        txn.start()
        sim.run(until=10)
        assert gave_up == [0.5]

    def test_bad_policy_rejected(self):
        sim = Simulator(seed=0)
        from repro.errors import ProtocolError
        for kwargs in ({"timeout": 0.0}, {"backoff": 0.5},
                       {"max_retries": -1}):
            with pytest.raises(ProtocolError):
                ReliableTransaction(sim, "t", lambda a: None, **kwargs)


# ----------------------------------------------------------------------
# PSTN fallback during a GK outage
# ----------------------------------------------------------------------
class TestPstnFallback:
    def build(self, seed=21):
        nw = build_vgprs_network(seed=seed, with_pstn=True)
        phone = nw.add_phone("PHONE1", PHONE1, answer_delay=0.5)
        ms = nw.add_ms("MS1", IMSI1, MSISDN1)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        return nw, ms, phone

    def test_add_phone_requires_with_pstn(self):
        nw = build_vgprs_network(seed=20)
        with pytest.raises(TopologyError):
            nw.add_phone("PHONE1", PHONE1)

    def test_call_during_outage_falls_back_to_pstn(self):
        nw, ms, phone = self.build()
        t = nw.sim.now
        apply_faults(nw, f"at {t + 1} link GK--IPNET down for 40")
        nw.sim.run(until=t + 3)
        ms.place_call(PHONE1)
        assert nw.sim.run_until_true(
            lambda: ms.state == "in-call", timeout=20
        )
        assert phone.answered_at is not None
        fb = nw.vmsc.fallback_for(ms.imsi)
        assert fb is not None and fb.state == "in-call"
        assert nw.sim.metrics.counters("VMSC.pstn_fallback_calls") == {
            "VMSC.pstn_fallback_calls": 1
        }
        # Voice is bridged over the trunk in both directions.
        ms.start_talking(duration=0.5)
        nw.sim.run(until=nw.sim.now + 1.0)
        assert phone.frames_received > 0
        ms.hangup()
        assert nw.sim.run_until_true(lambda: ms.state == "idle", timeout=10)
        assert nw.vmsc.fallback_for(ms.imsi) is None
        assert nw.sim.metrics.counters("unhandled") == {}

    def test_rehoming_after_outage_heals(self):
        nw, ms, phone = self.build(seed=22)
        t = nw.sim.now
        apply_faults(nw, f"at {t + 1} link GK--IPNET down for 10")
        nw.sim.run(until=t + 3)
        # The failed admission marks the outage and starts the retry
        # loop; once the link heals the MS re-homes to VoIP.
        ms.place_call(PHONE1)
        nw.sim.run_until_true(lambda: ms.state == "in-call", timeout=20)
        ms.hangup()
        nw.sim.run_until_true(lambda: ms.state == "idle", timeout=10)
        assert nw.sim.run_until_true(
            lambda: nw.vmsc.ms_table.get(ms.imsi).gk_registered,
            timeout=120,
        )
        assert nw.sim.metrics.counters("VMSC.gk_recoveries") == {
            "VMSC.gk_recoveries": 1
        }
        mttr = nw.sim.metrics.get_histogram("fault.mttr.gk_registration")
        assert mttr is not None and mttr.count == 1
        assert mttr.mean > 0

    def test_far_end_hangup_releases_the_ms(self):
        nw, ms, phone = self.build(seed=23)
        t = nw.sim.now
        apply_faults(nw, f"at {t + 1} link GK--IPNET down")
        nw.sim.run(until=t + 3)
        ms.place_call(PHONE1)
        nw.sim.run_until_true(lambda: ms.state == "in-call", timeout=20)
        phone.hangup()
        assert nw.sim.run_until_true(lambda: ms.state == "idle", timeout=10)
        assert nw.vmsc.fallback_for(ms.imsi) is None
        assert nw.sim.metrics.counters("unhandled") == {}


# ----------------------------------------------------------------------
# Determinism: same seed + plan => byte-identical traces and metrics
# ----------------------------------------------------------------------
OUTAGE_PLAN = "at 6 link GK--IPNET down for 12; from 4 until 8 link " \
              "VMSC--SGSN loss 0.2 jitter 0.001"


def _trace_dump(nw):
    return json.dumps(
        [e.to_dict() for e in nw.sim.trace.entries], default=str,
        sort_keys=True,
    )


def _hangup_if_talking(ms):
    if ms.state in ("in-call", "mo-alerting", "mt-ringing"):
        ms.hangup()


def _outage_scenario(seed, plan, paced=False):
    """A fixed scenario under *plan*: register, call into the outage,
    recover.  Returns (metrics snapshot, trace JSON) for comparison."""
    nw = build_vgprs_network(seed=seed, with_pstn=True)
    phone = nw.add_phone("PHONE1", PHONE1, answer_delay=0.5)
    ms = nw.add_ms("MS1", IMSI1, MSISDN1)
    nw.sim.run(until=0.5)
    scenarios.register_ms(nw, ms)
    apply_faults(nw, plan)
    nw.sim.schedule_at(7.0, ms.place_call, PHONE1)
    nw.sim.schedule_at(16.0, _hangup_if_talking, ms)
    if paced:
        nw.sim.run_paced(until=60.0, quantum=0.25, hook=lambda s: None)
    else:
        nw.sim.run(until=60.0)
    return nw.sim.metrics.snapshot(), _trace_dump(nw)


def outage_point(seed, plan=OUTAGE_PLAN):
    """Module-level sweep worker (picklable for --jobs N)."""
    snapshot, trace = _outage_scenario(seed, plan)
    return {"seed": seed, "trace": trace, "metrics": snapshot}


class TestDeterminism:
    def test_same_seed_and_plan_identical(self):
        a = _outage_scenario(31, OUTAGE_PLAN)
        b = _outage_scenario(31, OUTAGE_PLAN)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_paced_matches_batch(self):
        batch = _outage_scenario(31, OUTAGE_PLAN)
        paced = _outage_scenario(31, OUTAGE_PLAN, paced=True)
        assert batch[0] == paced[0]
        assert batch[1] == paced[1]

    def test_different_plans_diverge(self):
        a = _outage_scenario(31, OUTAGE_PLAN)
        b = _outage_scenario(31, "at 6 link GK--IPNET down for 13")
        assert a[1] != b[1]

    def test_parallel_sweep_matches_serial(self):
        points = sweep_grid(seed=(41, 42, 43))
        worker = functools.partial(outage_point, plan=OUTAGE_PLAN)
        serial = run_sweep(worker, points, jobs=1)
        parallel = run_sweep(worker, points, jobs=2)
        assert [(r.point, r.value) for r in serial] == [
            (r.point, r.value) for r in parallel
        ]

    def test_arming_a_noop_plan_never_perturbs_draws(self):
        """A plan whose impairment stream is never drawn from must not
        shift any other consumer's RNG stream."""
        base = _outage_scenario(31, "")
        armed = _outage_scenario(
            31, "from 55 until 56 link VMSC--VLR loss 0.5"
        )
        from repro.faults.injector import FAULT_COUNTERS

        counters_base = dict(base[0]["counters"])
        counters_armed = dict(armed[0]["counters"])
        # Arming pre-registers the fault.* families (at zero) so scrapes
        # see stable names; strip them before comparing draws.
        for key in FAULT_COUNTERS + ("link.B.dropped_loss",):
            counters_armed.pop(key, None)
        assert counters_base == counters_armed
