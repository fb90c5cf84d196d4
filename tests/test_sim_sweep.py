"""Unit tests for the parallel sweep runner, and the ``repro sweep``
artefact path end to end."""

import json
import os

import pytest

from repro.__main__ import main as repro_main
from repro.sim.kernel import Simulator
from repro.sim.sweep import (
    SweepError,
    SweepPoint,
    resolve_jobs,
    run_sweep,
    sweep_grid,
)


def tiny_sim(seed, delay):
    """Picklable worker: a minimal seeded simulation."""
    sim = Simulator(seed=seed)
    fired = []
    sim.schedule(delay, lambda: fired.append(sim.rng.stream("w").random()))
    sim.run()
    return (sim.now, fired[0])


def boom(x):
    raise ValueError(f"bad point {x}")


class TestGrid:
    def test_cartesian_product_row_major(self):
        points = sweep_grid(seed=(0, 1), factor=(1.0, 2.0))
        assert [p.params for p in points] == [
            {"seed": 0, "factor": 1.0},
            {"seed": 0, "factor": 2.0},
            {"seed": 1, "factor": 1.0},
            {"seed": 1, "factor": 2.0},
        ]
        assert points[0].key == (("seed", 0), ("factor", 1.0))

    def test_empty_grid(self):
        assert sweep_grid() == []

    def test_point_from_params(self):
        p = SweepPoint.from_params(b=2, a=1)
        assert p.key == (("a", 1), ("b", 2))
        assert p.params == {"a": 1, "b": 2}


class TestRunSweep:
    POINTS = sweep_grid(seed=(0, 1, 2), delay=(0.5, 1.5))

    def test_serial_evaluates_in_order(self):
        results = run_sweep(tiny_sim, self.POINTS, jobs=1)
        assert [r.point for r in results] == self.POINTS
        assert all(r.value[0] == r.point.params["delay"] for r in results)

    def test_parallel_matches_serial(self):
        serial = run_sweep(tiny_sim, self.POINTS, jobs=1)
        parallel = run_sweep(tiny_sim, self.POINTS, jobs=2)
        assert [(r.point, r.value) for r in serial] == [
            (r.point, r.value) for r in parallel
        ]

    def test_single_point_stays_serial(self):
        (result,) = run_sweep(tiny_sim, sweep_grid(seed=(5,), delay=(1.0,)),
                              jobs=8)
        assert result.value[0] == 1.0

    def test_error_names_the_point(self):
        with pytest.raises(SweepError, match="x=2"):
            run_sweep(boom, sweep_grid(x=(2,)), jobs=1)

    def test_parallel_error_names_the_point(self):
        points = sweep_grid(x=(1, 2))
        with pytest.raises(SweepError, match="bad point"):
            run_sweep(boom, points, jobs=2)


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "4")
        assert resolve_jobs() == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(SweepError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "many")
        with pytest.raises(SweepError):
            resolve_jobs()


#: A GK outage every sweep network sees, so every worker run captures
#: one incident bundle.
SWEEP_FAULTS = "at 2 link GK--IPNET down for 3"
SWEEP_SLO = "trunks: total(*.international_seizures) <= 0"


def _sweep_artefacts(tmp_path, experiment, jobs):
    """Run ``repro sweep`` with every artefact flag; return the paths."""
    out = tmp_path / f"j{jobs}"
    out.mkdir()
    paths = {
        "metrics": str(out / "metrics.prom"),
        "series": str(out / "series.json"),
        "incidents": str(out / "incidents"),
    }
    rc = repro_main([
        "sweep", "--experiment", experiment, "--jobs", str(jobs),
        "--faults", SWEEP_FAULTS, "--slo", SWEEP_SLO,
        "--metrics-out", paths["metrics"],
        "--series-out", paths["series"],
        "--incident-dir", paths["incidents"],
    ])
    assert rc == 0
    return paths


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSweepArtefacts:
    """Every worker network's snapshot, series and bundles reach the
    ``--metrics-out``/``--series-out``/``--incident-dir`` files, in a
    fixed order, whatever the job count."""

    @pytest.mark.parametrize("experiment,runs", [
        ("setup-latency", 16),  # 4 points x 4 measurements
        ("voice-quality", 8),   # 4 points x 2 architectures
        ("residency", 6),       # 3 points x 2 architectures
    ])
    def test_parallel_artefacts_match_serial(self, tmp_path, capsys,
                                             experiment, runs):
        serial = _sweep_artefacts(tmp_path, experiment, 1)
        parallel = _sweep_artefacts(tmp_path, experiment, 2)
        capsys.readouterr()
        for kind in ("metrics", "series"):
            assert _read(serial[kind]) == _read(parallel[kind]), kind
        names = sorted(os.listdir(serial["incidents"]))
        assert names == sorted(os.listdir(parallel["incidents"]))
        for name in names:
            assert _read(os.path.join(serial["incidents"], name)) == _read(
                os.path.join(parallel["incidents"], name)
            ), name
        with open(serial["series"]) as fh:
            assert json.load(fh)["sources"] == runs
        assert len(names) == runs

    def test_voice_quality_ships_3gtr_first(self, tmp_path, capsys):
        paths = _sweep_artefacts(tmp_path, "voice-quality", 1)
        capsys.readouterr()
        first = os.path.join(paths["incidents"], "incident-001.json")
        with open(first) as fh:
            entries = json.load(fh)["entries"]
        assert entries
        # The 3G TR baseline has no VMSC; vGPRS routes through one.
        assert not any("VMSC" in (e["src"], e["dst"]) for e in entries)
