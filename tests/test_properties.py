"""Property-based tests (hypothesis) on codecs, identities, the event
queue and core invariants."""

from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, PacketError
from repro.identities import IMSI, E164Number, IPv4Address, TunnelId
from repro.packets.base import _WIRE_REGISTRY, Packet, _decode_layer
from repro.packets.bssap import UmSetup
from repro.packets.fields import (
    BoolField,
    BytesField,
    DigitsField,
    E164Field,
    EnumField,
    ImsiField,
    IntField,
    IPv4AddressField,
    OptionalField,
    ShortField,
    StrField,
    TunnelIdField,
    UIntField,
    _pack_bcd,
    _unpack_bcd,
)
from repro.packets.ip import IPv4, UDP
from repro.packets.q931 import Q931Setup
from repro.packets.ras import RasArq
from repro.sim.events import EventQueue
from repro.sim.metrics import Gauge, Histogram

digits_st = st.text(alphabet="0123456789", min_size=0, max_size=40)
imsi_st = st.text(alphabet="0123456789", min_size=6, max_size=15).map(IMSI)
cc_st = st.sampled_from(["1", "44", "852", "886"])
e164_st = st.builds(
    E164Number,
    cc_st,
    st.text(alphabet="0123456789", min_size=1, max_size=12),
)
ipv4_st = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)


class TestBcdProperties:
    @given(digits_st)
    def test_bcd_roundtrip(self, digits):
        wire = _pack_bcd(digits)
        back, offset = _unpack_bcd(wire, 0, "t")
        assert back == digits
        assert offset == len(wire)

    @given(digits_st)
    def test_bcd_size_bound(self, digits):
        # length byte + ceil(n/2) nibble bytes
        assert len(_pack_bcd(digits)) == 1 + (len(digits) + 1) // 2


class TestFieldProperties:
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_short_roundtrip(self, value):
        f = ShortField("x")
        assert f.decode(f.encode(value), 0) == (value, 2)

    @given(st.binary(max_size=200))
    def test_bytes_roundtrip(self, value):
        f = BytesField("x")
        decoded, _ = f.decode(f.encode(value), 0)
        assert decoded == value

    @given(st.text(max_size=100))
    def test_str_roundtrip(self, value):
        f = StrField("x")
        decoded, _ = f.decode(f.encode(value), 0)
        assert decoded == value

    @given(imsi_st)
    def test_imsi_roundtrip(self, imsi):
        f = ImsiField("x")
        decoded, _ = f.decode(f.encode(imsi), 0)
        assert decoded == imsi

    @given(e164_st)
    def test_e164_roundtrip(self, number):
        f = E164Field("x")
        decoded, _ = f.decode(f.encode(number), 0)
        assert decoded == number

    @given(ipv4_st)
    def test_ipv4_roundtrip(self, address):
        f = IPv4AddressField("x")
        decoded, _ = f.decode(f.encode(address), 0)
        assert decoded == address

    @given(imsi_st, st.integers(min_value=0, max_value=15))
    def test_tunnel_id_roundtrip(self, imsi, nsapi):
        f = TunnelIdField("x")
        tid = TunnelId(imsi, nsapi)
        decoded, _ = f.decode(f.encode(tid), 0)
        assert decoded == tid

    @given(st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFFFFFF)))
    def test_optional_roundtrip(self, value):
        f = OptionalField(IntField("x"))
        decoded, _ = f.decode(f.encode(value), 0)
        assert decoded == value


class TestPacketProperties:
    @given(ipv4_st, ipv4_st, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_ip_udp_roundtrip(self, src, dst, sport, dport):
        pkt = IPv4(src=src, dst=dst) / UDP(sport=sport, dport=dport)
        assert IPv4.parse(pkt.build()) == pkt

    @given(
        st.integers(0, 0xFFFFFFFF), e164_st, st.one_of(st.none(), e164_st),
        ipv4_st, st.integers(0, 0xFFFF), ipv4_st, st.integers(0, 0xFFFF),
    )
    def test_q931_setup_roundtrip(
        self, ref, called, calling, sig, sport, media, mport
    ):
        pkt = Q931Setup(
            call_ref=ref, called=called, calling=calling,
            signal_address=sig, signal_port=sport,
            media_address=media, media_port=mport,
        )
        assert Q931Setup.parse(pkt.build()) == pkt

    @given(
        st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF), e164_st,
        st.one_of(st.none(), e164_st), st.booleans(),
    )
    def test_ras_arq_roundtrip(self, seq, ref, alias, called, answer):
        pkt = RasArq(
            seq=seq, call_ref=ref, endpoint_alias=alias,
            called_alias=called, answer_call=int(answer),
        )
        assert RasArq.parse(pkt.build()) == pkt

    @given(
        st.integers(0, 0xFFFFFFFF), st.one_of(st.none(), imsi_st),
        st.one_of(st.none(), e164_st), st.one_of(st.none(), e164_st),
    )
    def test_um_setup_roundtrip(self, ti, imsi, called, calling):
        pkt = UmSetup(ti=ti, imsi=imsi, called=called, calling=calling)
        assert UmSetup.parse(pkt.build()) == pkt

    @given(st.integers(0, 0xFFFFFFFF), e164_st, ipv4_st)
    def test_parse_never_accepts_mutations_silently(self, ref, called, sig):
        """Flipping any wire byte must either change the parsed packet or
        fail to parse — never return the original packet unchanged."""
        pkt = Q931Setup(
            call_ref=ref, called=called, signal_address=sig, signal_port=1720,
            media_address=sig, media_port=5004,
        )
        wire = bytearray(pkt.build())
        for i in range(len(wire)):
            mutated = bytearray(wire)
            mutated[i] ^= 0xFF
            try:
                back = Packet.parse(bytes(mutated))
            except Exception:
                continue
            assert back != pkt


def _value_st(field):
    """Strategy for valid values of *field*."""
    if isinstance(field, OptionalField):
        return st.one_of(st.none(), _value_st(field.inner))
    if isinstance(field, EnumField):
        return st.sampled_from(sorted(field.values))
    if isinstance(field, UIntField):
        return st.integers(0, (1 << (8 * field.size)) - 1)
    if isinstance(field, BoolField):
        return st.booleans()
    if isinstance(field, StrField):
        return st.text(max_size=12)
    if isinstance(field, BytesField):
        return st.binary(max_size=12)
    if isinstance(field, DigitsField):
        return st.text(alphabet="0123456789", max_size=12)
    if isinstance(field, ImsiField):
        return imsi_st
    if isinstance(field, E164Field):
        return e164_st
    if isinstance(field, IPv4AddressField):
        return ipv4_st
    if isinstance(field, TunnelIdField):
        return st.builds(TunnelId, imsi_st, st.integers(0, 15))
    raise AssertionError(f"no value strategy for {field!r}")


def _layer_st(cls):
    names = [f.name for f in cls.fields]
    values = st.tuples(*(_value_st(f) for f in cls.fields))
    return values.map(lambda vs: cls(**dict(zip(names, vs))))


def _chain(layers):
    head = layers[0]
    for layer in layers[1:]:
        head = head / layer
    return head


# Every registered class, including test-local ones, in wire-id order.
packet_st = st.lists(
    st.sampled_from(sorted(_WIRE_REGISTRY.values(), key=lambda c: c.wire_id))
    .flatmap(_layer_st),
    min_size=1, max_size=3,
).map(_chain)


def reference_build(packet):
    """Field-by-field fold over ``cls.fields``: what the compiled plan
    must reproduce byte for byte."""
    out = b""
    for layer in packet.layers():
        out += type(layer).wire_id.to_bytes(2, "big")
        for field in type(layer).fields:
            out += field.encode(getattr(layer, field.name))
    return out


def reference_decode(data):
    """Field-by-field parse of *data* into ``[(class, {name: value})]``,
    or the error as ``(type, message)``."""
    try:
        layers, offset = [], 0
        while offset < len(data) or not layers:
            if offset + 2 > len(data):
                raise PacketError("truncated wire id")
            wire_id = int.from_bytes(data[offset : offset + 2], "big")
            cls = _WIRE_REGISTRY.get(wire_id)
            if cls is None:
                raise PacketError(f"unknown wire id {wire_id}")
            offset += 2
            values = {}
            for field in cls.fields:
                values[field.name], offset = field.decode(data, offset)
            layers.append((cls, values))
        return layers
    except (PacketError, AddressError) as exc:
        return type(exc), str(exc)


def compiled_decode(data):
    """``Packet.parse`` in the shape of :func:`reference_decode`."""
    try:
        packet = Packet.parse(data)
    except (PacketError, AddressError) as exc:
        return type(exc), str(exc)
    return [
        (type(layer), {f.name: getattr(layer, f.name) for f in type(layer).fields})
        for layer in packet.layers()
    ]


class TestCompiledCodecOracle:
    """The per-class compiled plans against the per-field reference."""

    @given(packet_st)
    @settings(max_examples=300)
    def test_build_matches_field_fold(self, packet):
        assert packet.build() == reference_build(packet)

    @given(packet_st)
    @settings(max_examples=150)
    def test_eager_and_lazy_parse_agree_and_rebuild(self, packet):
        """The link round trip against the eager parse, with its memo
        cold, warm, and on a copy that re-emits received slices."""
        wire = packet.build()
        eager = Packet.parse(wire)
        _decode_layer.cache_clear()
        cold, (data, _) = packet.wire_copy()
        warm, _ = packet.wire_copy()
        relayed, _ = cold.wire_copy()
        assert eager == cold == warm == relayed == packet
        assert data == wire
        assert compiled_decode(wire) == reference_decode(wire)
        # build(parse(w)) == w is what makes relayed-slice reuse sound.
        assert eager.build() == wire
        assert cold.build() == warm.build() == relayed.build() == wire

    @given(packet_st, st.sampled_from([0x00, 0x01, 0x02, 0xAA, 0xFF]))
    @settings(max_examples=60)
    def test_truncation_and_corruption_raise_as_reference(self, packet, byte):
        wire = packet.build()
        bad = [wire[:cut] for cut in range(len(wire))]
        bad += [wire[:i] + bytes([byte]) + wire[i + 1 :] for i in range(len(wire))]
        for data in bad:
            assert compiled_decode(data) == reference_decode(data), data


class TestIdentityProperties:
    @given(e164_st)
    def test_e164_parse_inverts_str(self, number):
        assert E164Number.parse(str(number)) == number

    @given(ipv4_st)
    def test_ipv4_parse_inverts_str(self, address):
        assert IPv4Address.parse(str(address)) == address

    @given(imsi_st)
    def test_imsi_parts_recompose(self, imsi):
        assert imsi.mcc + imsi.mnc + imsi.msin == imsi.digits


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=60))
    @settings(max_examples=50)
    def test_pop_order_matches_sorted_times(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while q:
            popped.append(q.pop().time)
        assert popped == sorted(times)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.sets(st.integers(min_value=0, max_value=39)),
    )
    @settings(max_examples=50)
    def test_cancellation_removes_exactly_those(self, times, cancel_idx):
        q = EventQueue()
        events = [q.push(t, lambda: None) for t in times]
        cancelled = set()
        for i in cancel_idx:
            if i < len(events) and not events[i].cancelled:
                events[i].cancel()
                q.note_cancelled()
                cancelled.add(i)
        survivors = sorted(
            t for i, t in enumerate(times) if i not in cancelled
        )
        popped = []
        while q:
            popped.append(q.pop().time)
        assert popped == survivors


class TestMetricProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=50)
    def test_quantiles_are_monotone_and_bounded(self, samples):
        h = Histogram("h")
        for s in samples:
            h.observe(s)
        q = [h.quantile(x / 10) for x in range(11)]
        assert q == sorted(q)
        assert q[0] == min(samples)
        assert q[-1] == max(samples)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=10.0),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_gauge_integral_matches_manual_sum(self, steps):
        clock = {"t": 0.0}
        g = Gauge("g", clock=lambda: clock["t"])
        expected = 0.0
        level = 0.0
        for dt, value in steps:
            expected += level * dt
            clock["t"] += dt
            g.set(value)
            level = value
        assert abs(g.integral() - expected) < 1e-6 * max(1.0, abs(expected))
