"""Trace entries recorded from delivered bytes.

A wire-fidelity link records each message with the bytes it delivered;
the entry builds ``info`` on first read.  These tests check that the
lazy dict is the one an eager record would have built, that nothing a
handler does afterwards can change it, and that ``TraceEntry`` keeps
its value-object API.
"""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.__main__ import main as repro_main
from repro.identities import E164Number, IPv4Address
from repro.net.link import Link
from repro.net.node import Network, Node, handles
from repro.packets.q931 import Q931Setup
from repro.serve.cli import build_serve_run, make_parser
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceEntry, TraceRecorder

NUM = E164Number("886", "935000001")
IP = IPv4Address.parse("10.0.0.1")
OTHER = E164Number("886", "935000002")

#: A short unpaced served run crossing a GK outage; the flight recorder
#: is armed and no history is retained.
SERVE_ARGS = [
    "--no-http", "--rate", "0", "--quantum", "0.5", "--pairs", "3",
    "--seed", "23", "--calls-per-hour", "1800", "--duration", "12",
    "--faults", "at 6 link GK--IPNET down for 3",
]


def _typed(info):
    """*info* as ordered ``(key, type, value)`` items: equal only when
    keys, key order, values and value types all agree."""
    return [(key, type(value), value) for key, value in info.items()]


@pytest.fixture
def delivered(monkeypatch):
    """``(entry, eager info)`` for every message a wire-fidelity link
    records, the eager ``trace_info()`` taken from the delivered packet
    as the link hands it over, before any handler runs."""
    pairs = []
    pending = []
    deliver = Link._deliver
    add = TraceRecorder._add

    def checked_deliver(self, packet, src, dst, snapshot):
        trace = self.sim.trace
        if (snapshot is not None and trace.enabled
                and packet.flow_name() not in trace.quiet_names):
            pending.append(packet.trace_info())
        deliver(self, packet, src, dst, snapshot)
        assert not pending  # the entry was recorded before dispatch

    def paired_add(self, entry):
        if pending:
            pairs.append((entry, pending.pop()))
        add(self, entry)

    monkeypatch.setattr(Link, "_deliver", checked_deliver)
    monkeypatch.setattr(TraceRecorder, "_add", paired_add)
    return pairs


def _run_serve(tmp_path):
    args = make_parser().parse_args(
        [*SERVE_ARGS, "--incident-dir", str(tmp_path / "incidents")]
    )
    run = build_serve_run(args, echo=lambda _line: None)
    assert not run.sim.trace.retain
    run.loop.run()


@pytest.mark.parametrize("scenario", ["call", "flows", "handoff", "serve"])
def test_lazy_info_equals_the_eager_dict(scenario, delivered, tmp_path,
                                         capsys):
    if scenario == "serve":
        _run_serve(tmp_path)
    else:
        repro_main([scenario])
    capsys.readouterr()
    assert len(delivered) > 100
    # Entries nothing read still hold their bytes.
    assert any(type(entry._data) is bytes for entry, _ in delivered)
    for entry, eager in delivered:
        assert entry.kind == "msg"
        assert _typed(entry.info) == _typed(eager)
        assert entry.info is entry.info  # built once, then kept


class _Mutator(Node):
    """Rewrites every Setup it receives, after the link recorded it."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.got = []

    @handles(Q931Setup)
    def on_setup(self, msg, src, interface):
        msg.call_ref = 99
        msg.called = OTHER
        self.got.append(msg)


def _setup():
    return Q931Setup(call_ref=7, called=NUM, calling=NUM, signal_address=IP,
                     media_address=IP)


def _link(wire_fidelity):
    sim = Simulator()
    net = Network(sim)
    a = net.add(Node(sim, "A"))
    b = net.add(_Mutator(sim, "B"))
    net.connect(a, b, "test", latency=0.1, wire_fidelity=wire_fidelity)
    return sim, a, b


class TestWireEntries:
    def test_handler_mutation_does_not_reach_the_entry(self):
        sim, a, b = _link(wire_fidelity=True)
        sent = _setup()
        expected = sent.trace_info()
        span = sim.spans.open("call", {"call_ref": 7})
        a.send(b, sent)
        sim.run()
        (entry,) = sim.trace.messages()
        assert b.got[0].call_ref == 99
        # The entry keeps the delivered bytes, not the packet.
        assert entry._data == sent.build()
        assert entry.info == expected == {"call_ref": 7, "called": str(NUM)}
        # The span tracker matched it by its correlation keys.
        assert span.entries == [entry]

    def test_wire_off_entry_holds_its_eager_dict(self):
        sim, a, b = _link(wire_fidelity=False)
        sent = _setup()
        expected = sent.trace_info()
        a.send(b, sent)
        sim.run()
        (entry,) = sim.trace.messages()
        assert sent.call_ref == 99  # the receiver got the sent object
        assert type(entry._data) is dict
        assert entry.info == expected

    def test_unread_entry_keeps_no_sink_state(self):
        sim, a, b = _link(wire_fidelity=True)
        seen = []
        sim.trace.sinks.append(seen.append)
        a.send(b, _setup())
        sim.run()
        (entry,) = seen
        assert type(entry._data) is bytes
        assert entry.correlation() == entry.info
        assert entry.correlation()["call_ref"] == 7


class TestTraceEntryApi:
    def entry(self, **info):
        return TraceEntry(1.5, "msg", "A", "B", "if", "X", info)

    def test_constructs_positionally_and_by_default(self):
        assert TraceEntry(1.0, "msg", "A", "B", "if", "X", {}).info == {}
        assert TraceEntry(1.0, "msg", "A", "B", "if", "X").info == {}

    def test_equality_and_hash_ignore_info(self):
        a, b = self.entry(call_ref=1), self.entry(call_ref=2)
        assert a == b and hash(a) == hash(b)
        assert a != TraceEntry(1.5, "msg", "A", "B", "if", "Y", {})
        assert a != (1.5, "msg", "A", "B", "if", "X")

    def test_to_dict_and_triple(self):
        entry = self.entry(call_ref=1)
        assert entry.to_dict() == {
            "t": 1.5, "kind": "msg", "src": "A", "dst": "B",
            "interface": "if", "message": "X", "info": {"call_ref": 1},
        }
        assert entry.triple() == ("X", "A", "B")

    def test_pickle_round_trip(self):
        sim, a, b = _link(wire_fidelity=True)
        a.send(b, _setup())
        sim.run()
        (lazy,) = sim.trace.messages()
        for entry in (self.entry(call_ref=1), lazy):
            back = pickle.loads(pickle.dumps(entry))
            assert back == entry
            assert _typed(back.info) == _typed(entry.info)
            assert back.to_dict() == entry.to_dict()

    def test_entries_are_immutable(self):
        entry = self.entry(call_ref=1)
        for name in ("time", "message", "info", "_data", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(entry, name, None)
        with pytest.raises(FrozenInstanceError):
            del entry.time
        assert entry.time == 1.5 and entry.info == {"call_ref": 1}

    def test_repr_names_every_field(self):
        assert repr(self.entry(call_ref=1)) == (
            "TraceEntry(time=1.5, kind='msg', src='A', dst='B', "
            "interface='if', message='X', info={'call_ref': 1})"
        )
