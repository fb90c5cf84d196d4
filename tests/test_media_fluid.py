"""Equivalence and determinism of the fluid media model.

The fluid model (:mod:`repro.media.fluid`) replaces per-frame talk-spurt
events with one calibration probe plus an analytic flush per spurt.  It
is only admissible because these tests hold it to the event path across
the E9 load grid: same blocking decisions, mouth-to-ear means within a
few percent (in practice float epsilon — the model replays the exact
channel arithmetic), and matching p95 jitter.  Re-validate after any
change to the voice path by widening the grid or dropping the
tolerances.
"""

from __future__ import annotations

import json

import pytest

from repro.core import sweeps
from repro.sim.sweep import run_sweep, sweep_grid

#: E9 load grid: one point per (architecture, concurrent calls).
GRID = [(arch, n) for arch in ("vgprs", "tgtr") for n in (1, 2, 3, 4, 5, 6)]

#: Relative tolerance on the mean mouth-to-ear delay, with an absolute
#: floor of 0.05 ms for the uncongested points where the mean is tiny.
M2E_RTOL = 0.05
M2E_ATOL_MS = 0.05

#: Relative tolerance on p95 jitter, with an absolute floor of 1e-3 ms
#: (the uncongested points have jitter at float-rounding level).
JITTER_RTOL = 0.10
JITTER_ATOL_MS = 1e-3


def _load_point(arch: str, num_calls: int, media: str, runs=None) -> dict:
    if arch == "vgprs":
        return sweeps.vgprs_under_load(num_calls, media=media, runs=runs)
    return sweeps.tgtr_under_load(num_calls, media=media, runs=runs)


@pytest.mark.parametrize("arch,num_calls", GRID)
def test_fluid_matches_events_across_e9_grid(arch, num_calls):
    events = _load_point(arch, num_calls, "events")
    fluid = _load_point(arch, num_calls, "fluid")

    # Signalling is decoupled from media, so admission outcomes must be
    # bit-identical, not merely close.
    assert fluid["connected"] == events["connected"]
    assert fluid["blocked"] == events["blocked"]

    m2e_tol = max(M2E_RTOL * abs(events["mean_m2e_ms"]), M2E_ATOL_MS)
    assert fluid["mean_m2e_ms"] == pytest.approx(
        events["mean_m2e_ms"], abs=m2e_tol
    )

    jitter_tol = max(JITTER_RTOL * abs(events["p95_jitter_ms"]), JITTER_ATOL_MS)
    assert fluid["p95_jitter_ms"] == pytest.approx(
        events["p95_jitter_ms"], abs=jitter_tol
    )

    assert fluid["within_budget"] == pytest.approx(
        events["within_budget"], abs=0.05
    )


def test_fluid_frame_counts_match_events():
    """The observation *counts* must agree too — a fluid model that
    drops the in-flight tail of an oversaturated spurt would still pass
    a means-only comparison."""
    for arch in ("vgprs", "tgtr"):
        events, fluid = [], []
        _load_point(arch, 3, "events", runs=events)
        _load_point(arch, 3, "fluid", runs=fluid)
        fluid_hists = fluid[0]["metrics"]["histograms"]
        for name, hist in events[0]["metrics"]["histograms"].items():
            if name.endswith(".mouth_to_ear") or name.endswith(".jitter"):
                assert fluid_hists[name]["count"] == hist["count"], name


def _fluid_snapshot_json(num_calls: int) -> str:
    runs = []
    sweeps.vgprs_under_load(num_calls, media="fluid", runs=runs)
    return json.dumps(runs[0]["metrics"], sort_keys=True)


def test_fluid_is_deterministic_per_seed():
    assert _fluid_snapshot_json(3) == _fluid_snapshot_json(3)


def test_fluid_sweep_merge_stable_under_jobs():
    """A parallel sweep must merge to exactly the serial result — the
    fluid model ships across process boundaries via a picklable
    module-level worker, so any hidden per-process state would show up
    here."""
    points = sweep_grid(num_calls=(1, 2))
    serial = run_sweep(sweeps.voice_quality_point, points, jobs=1)
    parallel = run_sweep(sweeps.voice_quality_point, points, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.point.key == p.point.key
        assert json.dumps(s.value, sort_keys=True) == json.dumps(
            p.value, sort_keys=True
        )
