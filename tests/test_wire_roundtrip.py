"""The link round trip against the eager parse, message by message.

Every wire-fidelity hop delivers ``packet.wire_copy()``, which clones
received slices and decodes fresh layers through a per-process memo.
These tests run whole scenarios with each hop checked against
``Packet.parse(packet.build())``, with the memo cleared before every
message and warm, and show that no output depends on what it holds.
"""

import pytest

from repro.__main__ import main as repro_main
from repro.net.link import Link
from repro.packets.base import (
    _DECODED_LIMIT,
    Packet,
    _decode_layer,
    merge_correlation,
)
from repro.serve.cli import build_serve_run, finish_serve_run, make_parser

#: A short unpaced served run crossing a GK outage.
SERVE_ARGS = [
    "--no-http", "--rate", "0", "--quantum", "0.5", "--pairs", "3",
    "--seed", "23", "--calls-per-hour", "1800", "--duration", "12",
    "--faults", "at 6 link GK--IPNET down for 3",
]


def _chain(packet):
    return [(type(layer), layer._values) for layer in packet.layers()]


def run_call(out_dir):
    """``repro call`` with its trace and Prometheus text written to
    *out_dir*; returns the two files' bytes."""
    trace, metrics = out_dir / "trace.jsonl", out_dir / "metrics.prom"
    repro_main(["call", "--trace-out", str(trace),
                "--metrics-out", str(metrics)])
    return trace.read_bytes(), metrics.read_bytes()


def run_serve(out_dir):
    """A short served run, exported the same way."""
    trace, metrics = out_dir / "trace.jsonl", out_dir / "metrics.prom"
    args = make_parser().parse_args([
        *SERVE_ARGS, "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    run = build_serve_run(args, echo=lambda _line: None)
    run.loop.run()
    finish_serve_run(run, echo=lambda _line: None)
    return trace.read_bytes(), metrics.read_bytes()


@pytest.fixture
def cold_memo(monkeypatch):
    """Clear the decode memo before every transmit."""
    transmit = Link.transmit

    def cold_transmit(self, src, packet):
        _decode_layer.cache_clear()
        transmit(self, src, packet)

    monkeypatch.setattr(Link, "transmit", cold_transmit)


@pytest.mark.parametrize("run", [run_call, run_serve],
                         ids=["call", "serve"])
@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_every_hop_matches_the_eager_parse(run, memo, monkeypatch, tmp_path,
                                           request):
    if memo == "cold":
        request.getfixturevalue("cold_memo")
    wire_copy = Packet.wire_copy
    hops = []

    def checked(packet):
        copy, snapshot = wire_copy(packet)
        data, corr = snapshot
        wire = packet.build()
        reference = Packet.parse(wire)
        assert _chain(copy) == _chain(reference)
        assert data == wire
        assert copy.build() == wire
        info = reference.trace_info()
        assert copy.trace_info() == info
        assert merge_correlation(corr) == {
            k: v for k, v in info.items() if k in Packet.CORRELATION_FIELDS
        }
        assert copy.flow_name() == reference.flow_name()
        for layer in copy.layers():
            for value in layer._values.values():
                hash(value)  # immutable values only
        hops.append(type(packet))
        return copy, snapshot

    monkeypatch.setattr(Packet, "wire_copy", checked)
    run(tmp_path)
    assert len(hops) > 100


@pytest.mark.parametrize("run", [run_call, run_serve],
                         ids=["call", "serve"])
def test_outputs_do_not_depend_on_the_memo(run, tmp_path, request):
    (tmp_path / "warm").mkdir()
    (tmp_path / "cold").mkdir()
    warm = run(tmp_path / "warm")
    info = _decode_layer.cache_info()
    assert info.hits > 0
    assert info.maxsize == _DECODED_LIMIT
    assert info.currsize <= _DECODED_LIMIT
    request.getfixturevalue("cold_memo")
    cold = run(tmp_path / "cold")
    assert cold == warm
