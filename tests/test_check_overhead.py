"""Pin ``benchmarks/check_overhead.py``'s verdicts and stdout exactly.

CI gates on this script's exit code and reads its output, so every
line, failure tuple and flag must stay stable across refactors.  The
inputs are synthetic pytest-benchmark dumps; only ``stats.min`` (fresh)
and ``min_s`` / ``derived`` (recorded baseline) are read.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import check_overhead


def _fresh(**mins: float) -> dict:
    return {
        "benchmarks": [
            {"name": name, "stats": {"min": value}}
            for name, value in mins.items()
        ]
    }


BASELINE = {
    "benchmarks": {
        "test_micro_event_throughput": {"min_s": 0.010},
        "test_micro_event_chain": {"min_s": 0.020},
    },
    "derived": {"soak_sim_seconds_per_wall_s": 5000.0},
}

ALL_OK = _fresh(
    test_micro_event_throughput=0.011,
    test_micro_event_chain=0.019,
    test_micro_soak_workload=1.0,
    test_micro_soak_with_series=1.02,
    test_micro_soak_openloop=2.0,
    test_micro_soak_served=2.5,
    test_micro_soak_traced=3.0,
    test_micro_soak_flight_recorder=3.3,
    test_micro_soak_voice=0.125,
)

ALL_SLOW = _fresh(
    test_micro_event_throughput=0.020,
    test_micro_event_chain=0.019,
    test_micro_soak_workload=1.0,
    test_micro_soak_with_series=1.5,
    test_micro_soak_openloop=2.0,
    test_micro_soak_served=3.0,
    test_micro_soak_traced=3.0,
    test_micro_soak_flight_recorder=4.5,
    test_micro_soak_voice=0.25,
)


def _run(tmp_path, capsys, fresh: dict, *flags: str):
    fresh_path = tmp_path / "fresh.json"
    base_path = tmp_path / "base.json"
    fresh_path.write_text(json.dumps(fresh))
    base_path.write_text(json.dumps(BASELINE))
    code = check_overhead.main(
        [str(fresh_path), "--baseline", str(base_path), *flags]
    )
    return code, capsys.readouterr().out


def test_all_within_budget(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, ALL_OK)
    assert code == 0
    assert out == (
        "test_micro_event_throughput: baseline 0.01000s, fresh 0.01100s "
        "(1.10x, budget 1.60x) ok\n"
        "test_micro_event_chain: baseline 0.02000s, fresh 0.01900s "
        "(0.95x, budget 1.60x) ok\n"
        "series sampler overhead: plain 1.00000s, sampled 1.02000s "
        "(1.02x, budget 1.05x) ok\n"
        "serve pacing overhead: plain 2.00000s, served 2.50000s "
        "(1.25x, budget 1.40x) ok\n"
        "flight recorder overhead: traced 3.00000s, recorded 3.30000s "
        "(1.10x, budget 1.15x) ok\n"
        "soak throughput: recorded 5000 sim-s/wall-s, fresh 4800 "
        "(floor 4545 at 1.10x budget) ok\n"
        "kernel overhead within budget\n"
    )


def test_every_gate_fails(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, ALL_SLOW)
    assert code == 1
    assert out == (
        "test_micro_event_throughput: baseline 0.01000s, fresh 0.02000s "
        "(2.00x, budget 1.60x) REGRESSION\n"
        "test_micro_event_chain: baseline 0.02000s, fresh 0.01900s "
        "(0.95x, budget 1.60x) ok\n"
        "series sampler overhead: plain 1.00000s, sampled 1.50000s "
        "(1.50x, budget 1.05x) REGRESSION\n"
        "serve pacing overhead: plain 2.00000s, served 3.00000s "
        "(1.50x, budget 1.40x) REGRESSION\n"
        "flight recorder overhead: traced 3.00000s, recorded 4.50000s "
        "(1.50x, budget 1.15x) REGRESSION\n"
        "soak throughput: recorded 5000 sim-s/wall-s, fresh 2400 "
        "(floor 4545 at 1.10x budget) REGRESSION\n"
        "FAILED: kernel overhead above budget: "
        "test_micro_event_throughput (2.00x), "
        "series_sampler_overhead (1.50x), serve_pacing_overhead (1.50x), "
        "flight_recorder_overhead (1.50x), "
        "soak_sim_seconds_per_wall_s (2.08x)\n"
    )


def test_tolerance_flags_move_each_budget(tmp_path, capsys):
    code, out = _run(
        tmp_path, capsys, ALL_SLOW,
        "--tolerance", "2.5", "--series-tolerance", "1.6",
        "--pacing-tolerance", "1.6", "--recorder-tolerance", "1.6",
        "--soak-tolerance", "2.5",
    )
    assert code == 0
    assert out.splitlines()[2:5] == [
        "series sampler overhead: plain 1.00000s, sampled 1.50000s "
        "(1.50x, budget 1.60x) ok",
        "serve pacing overhead: plain 2.00000s, served 3.00000s "
        "(1.50x, budget 1.60x) ok",
        "flight recorder overhead: traced 3.00000s, recorded 4.50000s "
        "(1.50x, budget 1.60x) ok",
    ]
    assert out.endswith("kernel overhead within budget\n")


def test_missing_benches_are_skipped(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, {"benchmarks": []})
    assert code == 0
    assert out == (
        "test_micro_event_throughput: skipped (not present in both inputs)\n"
        "test_micro_event_chain: skipped (not present in both inputs)\n"
        "series overhead: skipped (soak pair not in input)\n"
        "pacing overhead: skipped (served/plain soak pair not in input)\n"
        "recorder overhead: skipped (traced soak pair not in input)\n"
        "soak throughput: skipped (voice soak not in both inputs)\n"
        "kernel overhead within budget\n"
    )


@pytest.mark.parametrize("missing, skip_line, key", [
    ("test_micro_soak_workload",
     "series overhead: skipped (soak pair not in input)",
     "series_sampler_overhead"),
    ("test_micro_soak_served",
     "pacing overhead: skipped (served/plain soak pair not in input)",
     "serve_pacing_overhead"),
    ("test_micro_soak_traced",
     "recorder overhead: skipped (traced soak pair not in input)",
     "flight_recorder_overhead"),
])
def test_half_a_pair_is_skipped(tmp_path, capsys, missing, skip_line, key):
    fresh = {
        "benchmarks": [
            b for b in ALL_SLOW["benchmarks"] if b["name"] != missing
        ]
    }
    code, out = _run(tmp_path, capsys, fresh)
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if "skipped" in line] == [skip_line]
    assert key not in lines[-1]
    assert lines[-1].count("x)") == 4
