"""Smoke test of the benchmark itself: ``pytest e2ebench/test_e2e.py``.

Runs every workload in ``--quick`` mode (about a minute's budget) and
checks that the checks pass, that the printed metrics are exactly the
ones BENCHMARK.json declares, and that the layer map covers repro.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench.run import ROOT, WORKLOAD_NAMES, bootstrap

bootstrap()

from e2ebench.compare import compare, load_bounds  # noqa: E402
from e2ebench.layers import unmapped_modules  # noqa: E402
from e2ebench.suite import run_suite  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory: pytest.TempPathFactory) -> dict:
    return run_suite(None, tmp_path_factory.mktemp("e2e"), quick=True)


def test_layer_map_covers_every_repro_module() -> None:
    assert unmapped_modules() == []


def test_workloads_match_benchmark_json() -> None:
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]


def test_quick_run_passes_every_check(quick_results: dict) -> None:
    for name, res in quick_results["workloads"].items():
        failed = [k for k, held in res["checks"].items() if not held]
        assert failed == [], f"{name}: {failed}"
        assert isinstance(res["sim_fingerprint"], str)


def test_metric_names_and_units_match_benchmark_json(quick_results: dict) -> None:
    for res in quick_results["workloads"].values():
        e2e = {k: m["unit"] for k, m in res["end_to_end"].items()}
        layer = {k: m["unit"] for k, m in res["per_layer"].items()}
        assert e2e == _declared("end_to_end")
        assert layer == _declared("per_layer")
        assert all(m["value"] > 0 for m in res["end_to_end"].values())


def test_layer_shares_sum_to_one(quick_results: dict) -> None:
    for res in quick_results["workloads"].values():
        shares = [m["value"] for k, m in res["per_layer"].items()
                  if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)


def test_compare_accepts_a_run_against_itself(quick_results: dict) -> None:
    lines, passed = compare(quick_results, quick_results, load_bounds())
    assert passed, "\n".join(lines)


def test_result_line_has_the_documented_keys() -> None:
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "lifecycle",
         "--seed", "3", "--quick", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(_declared("end_to_end"))


def test_fails_without_the_repro_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "signalling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
