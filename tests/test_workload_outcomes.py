"""Call outcomes of the shared workload procedure (``run_call``).

A handset that never comes back must be counted, not hidden: a release
swallowed by a cut radio link shows as ``release_timeouts``, not only as
a growing ``skipped_busy``.  The Figure 7 direction (PSTN phone dials
the roamer) runs through the same procedure under the open-loop workload.
"""

import pytest

from repro.core import scenarios
from repro.core.baseline_gsm import build_classic_roaming_network
from repro.core.network import build_vgprs_network
from repro.core.workload import (
    CallWorkload,
    DiurnalProfile,
    OpenLoopWorkload,
    build_classic_population,
    build_population,
)
from repro.faults.injector import apply_faults
from repro.obs.prom import render_prometheus


def closed_loop(faults=None, use_signals=True):
    """One MS/terminal pair at seed 11 calling MO for 60 sim-seconds."""
    nw = build_vgprs_network(seed=11)
    pairs = build_population(nw, size=1, answer_delay=0.4)
    nw.sim.run(until=0.5)
    for ms, _ in pairs:
        scenarios.register_ms(nw, ms)
    if faults:
        apply_faults(nw, faults)
    wl = CallWorkload(nw, pairs, call_rate=0.5, hold_range=(1.0, 2.0),
                      mt_fraction=0.0, talk=False, use_signals=use_signals)
    wl.start()
    nw.sim.run(until=nw.sim.now + 60.0)
    wl.stop()
    return wl


class TestTimeoutCounts:
    @pytest.mark.parametrize("use_signals", [True, False])
    def test_swallowed_release_counts_a_release_timeout(self, use_signals):
        # The first call's release starts at 3.789; the 2 s cut of the
        # radio side swallows it and nothing retransmits it, so the MS
        # stays in "releasing" and every later arrival finds it busy.
        wl = closed_loop("at 3.78 link BTS1--BSC down for 2", use_signals)
        assert wl.stats.connected == 1
        assert wl.stats.release_timeouts == 1
        assert wl.stats.setup_timeouts == 0
        assert wl.stats.skipped_busy > 0
        assert "release_to=1" in wl.progress_line()

    def test_fault_free_run_counts_no_timeouts(self):
        wl = closed_loop()
        assert wl.stats.connected >= 10
        assert wl.stats.failed == 0
        assert wl.stats.setup_timeouts == 0
        assert wl.stats.release_timeouts == 0


def classic_open_loop(seed=5, pairs=3, duration=120.0):
    """Open-loop phone-to-roamer calls on the Figure 7 topology, run to
    *duration* and drained for 30 sim-seconds."""
    nw = build_classic_roaming_network(seed=seed)
    nw.sim.run(until=0.5)
    population = build_classic_population(nw, pairs, answer_delay=0.3)
    for ms, _ in population:
        scenarios.register_ms(nw, ms)
    wl = OpenLoopWorkload(nw=nw, pairs=population,
                          profile=DiurnalProfile.flat(1800.0),
                          hold_range=(1.0, 4.0))
    wl.start()
    end = nw.sim.now + duration
    nw.sim.run(until=end)
    wl.stop_admitting()
    nw.sim.run(until=end + 30.0)
    return wl, nw


class TestClassicDirection:
    @pytest.fixture(scope="class")
    def run(self):
        return classic_open_loop()

    def test_every_admitted_call_connects(self, run):
        wl, _ = run
        assert wl.stats.admitted >= 20
        assert {kind for _t, _ms, kind, _hold in wl.arrivals} == {"mt"}
        assert wl.stats.attempted_mt == wl.stats.admitted
        assert wl.stats.connected == wl.stats.admitted
        assert wl.stats.failed == 0
        assert wl.stats.setup_timeouts == wl.stats.release_timeouts == 0

    def test_run_drains_with_every_roamer_idle(self, run):
        wl, _ = run
        assert wl.active == 0
        assert all(ms.state == "idle" for ms, _ in wl.pairs)
        assert all(phone.state == "idle" for _, phone in wl.pairs)

    def test_same_seed_is_byte_identical(self, run):
        wl, nw = run
        again_wl, again_nw = classic_open_loop()
        assert again_wl.arrivals == wl.arrivals
        assert (render_prometheus(again_nw.sim.metrics.snapshot())
                == render_prometheus(nw.sim.metrics.snapshot()))
