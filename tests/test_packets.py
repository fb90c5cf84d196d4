"""Unit tests for the packet base class and the protocol message sets."""

import pytest

from repro.errors import FieldError, PacketError
from repro.gsm.relay import rename_packet
from repro.identities import IMSI, E164Number, IPv4Address, TunnelId
from repro.packets.base import (
    _WIRE_REGISTRY,
    Packet,
    Raw,
    _decode_layer,
    merge_correlation,
)
from repro.packets.bssap import (
    AuthenticationRequest,
    TchFrame,
    UmLocationUpdateRequest,
    UmSetup,
)
from repro.packets.fields import (
    BoolField,
    BytesField,
    DigitsField,
    E164Field,
    EnumField,
    ImsiField,
    OptionalField,
    TunnelIdField,
    UIntField,
)
from repro.packets.gmm import ActivatePdpContextRequest, GprsAttachRequest
from repro.packets.gtp import GtpCreatePdpContextRequest, GtpHeader, MSG_T_PDU
from repro.packets.ip import IPv4, TCPLite, UDP
from repro.packets.isup import IsupIam, IsupRel, PcmFrame
from repro.packets.map import MapInsertSubsData, MapUpdateLocationArea
from repro.packets.q931 import Q931Connect, Q931ReleaseComplete, Q931Setup
from repro.packets.ras import RasAcf, RasArq, RasRrq
from repro.packets.rtp import RtpPacket

IMSI1 = IMSI("466920000000001")
NUM = E164Number("886", "935000001")
IP_A = IPv4Address.parse("10.0.0.1")
IP_B = IPv4Address.parse("10.0.0.2")


class TestLayering:
    def test_div_stacks_layers(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=2) / Raw(data=b"x")
        layers = list(pkt.layers())
        assert [type(l) for l in layers] == [IPv4, UDP, Raw]

    def test_div_appends_to_innermost(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=2)
        pkt = pkt / Raw(data=b"y")
        assert isinstance(pkt.innermost(), Raw)

    def test_get_layer_and_haslayer(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / UDP(sport=9, dport=10)
        assert pkt.get_layer(UDP).sport == 9
        assert pkt.haslayer(IPv4)
        assert not pkt.haslayer(Raw)

    def test_flow_name_picks_innermost_visible(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=2) / RasRrq(
            seq=1, alias=NUM, signal_address=IP_A, signal_port=1720
        )
        assert pkt.flow_name() == "RAS_RRQ"

    def test_flow_name_falls_back_to_outermost(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=2)
        assert pkt.flow_name() == "IPv4"

    def test_trace_info_merges_layers(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / Q931Setup(
            call_ref=7, called=NUM, signal_address=IP_A, signal_port=1720,
            media_address=IP_A, media_port=5004,
        )
        info = pkt.trace_info()
        assert info["ip_src"] == "10.0.0.1"
        assert info["call_ref"] == 7


class TestFieldsAccess:
    def test_unknown_field_rejected(self):
        with pytest.raises(PacketError):
            UDP(sport=1, dport=2, bogus=3)

    def test_attribute_read_write(self):
        pkt = UDP(sport=1, dport=2)
        pkt.sport = 99
        assert pkt.sport == 99

    def test_attribute_write_validates(self):
        pkt = UDP(sport=1, dport=2)
        with pytest.raises(Exception):
            pkt.sport = -5

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            UDP(sport=1, dport=2).nonexistent

    def test_defaults_applied(self):
        pkt = IPv4(src=IP_A, dst=IP_B)
        assert pkt.ttl == 64


class TestWireCodec:
    def assert_roundtrip(self, pkt):
        wire = pkt.build()
        back = type(pkt).parse(wire)
        assert back == pkt
        return wire

    def test_single_layer_roundtrip(self):
        self.assert_roundtrip(UDP(sport=1719, dport=1719))

    def test_multi_layer_roundtrip(self):
        self.assert_roundtrip(
            IPv4(src=IP_A, dst=IP_B)
            / TCPLite(sport=1720, dport=1720)
            / Q931Setup(
                call_ref=1, called=NUM, calling=NUM,
                signal_address=IP_A, signal_port=1720,
                media_address=IP_A, media_port=5004,
            )
        )

    def test_unset_mandatory_field_fails_build(self):
        with pytest.raises(PacketError):
            IPv4().build()  # src/dst unset

    def test_parse_wrong_outer_class(self):
        wire = UDP(sport=1, dport=2).build()
        with pytest.raises(PacketError):
            IPv4.parse(wire)

    def test_parse_base_class_dispatches(self):
        wire = UDP(sport=1, dport=2).build()
        assert isinstance(Packet.parse(wire), UDP)

    def test_trailing_garbage_rejected(self):
        wire = UDP(sport=1, dport=2).build() + b"\x00"
        with pytest.raises(PacketError):
            Packet.parse(wire)

    def test_unknown_wire_id(self):
        with pytest.raises(PacketError):
            Packet.parse(b"\xff\xff")

    def test_copy_is_deep_for_chain(self):
        pkt = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=2)
        clone = pkt.copy()
        clone.get_layer(UDP).sport = 42
        assert pkt.get_layer(UDP).sport == 1
        assert clone == IPv4(src=IP_A, dst=IP_B) / UDP(sport=42, dport=2)

    def test_copy_of_unfinished_packet_defers_to_build(self):
        pkt = RasRrq(seq=1)
        clone = pkt.copy()
        assert clone == pkt and clone.alias is None
        with pytest.raises(PacketError, match="alias is unset"):
            clone.build()

    def test_equality_includes_payload(self):
        a = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=2)
        b = IPv4(src=IP_A, dst=IP_B) / UDP(sport=1, dport=3)
        assert a != b

    def test_show_contains_fields(self):
        text = (IPv4(src=IP_A, dst=IP_B) / UDP(sport=7, dport=8)).show()
        assert "IPv4" in text and "sport" in text

    def test_repr_skips_unset(self):
        assert "calling" not in repr(UmSetup(ti=1, imsi=IMSI1, called=NUM))


PROTO_SAMPLES = [
    UmLocationUpdateRequest(imsi=IMSI1, lai="LAI-1"),
    UmSetup(ti=1, imsi=IMSI1, called=NUM, calling=NUM),
    AuthenticationRequest(imsi=IMSI1, rand=b"\x01" * 16),
    TchFrame(ti=1, imsi=IMSI1, seq=3, gen_time_us=123456, voice=b"\x00" * 33),
    MapUpdateLocationArea(invoke_id=1, imsi=IMSI1, lai="LAI-1"),
    MapInsertSubsData(invoke_id=2, imsi=IMSI1, msisdn=NUM),
    GprsAttachRequest(imsi=IMSI1),
    ActivatePdpContextRequest(imsi=IMSI1, nsapi=5),
    GtpHeader(msg_type=MSG_T_PDU, seq=9, tid=TunnelId(IMSI1, 5)),
    GtpCreatePdpContextRequest(nsapi=5, sgsn_address="SGSN"),
    RasRrq(seq=1, alias=NUM, signal_address=IP_A, signal_port=1720),
    RasArq(seq=2, call_ref=10, endpoint_alias=NUM, called_alias=NUM),
    RasAcf(seq=3, call_ref=10, dest_signal_address=IP_B, dest_signal_port=1720),
    Q931Setup(call_ref=5, called=NUM, signal_address=IP_A, signal_port=1720,
              media_address=IP_A, media_port=5004),
    Q931Connect(call_ref=5, media_address=IP_B, media_port=5004),
    Q931ReleaseComplete(call_ref=5),
    IsupIam(cic=77, called=NUM, calling=NUM),
    IsupRel(cic=77),
    PcmFrame(cic=77, seq=2, gen_time_us=55),
    RtpPacket(seq=1, timestamp=160, ssrc=42, gen_time_us=1000, frame=b"\x00" * 160),
]


@pytest.mark.parametrize("pkt", PROTO_SAMPLES, ids=lambda p: type(p).__name__)
def test_protocol_message_roundtrip(pkt):
    wire = pkt.build()
    assert type(pkt).parse(wire) == pkt


@pytest.mark.parametrize("pkt", PROTO_SAMPLES, ids=lambda p: type(p).__name__)
def test_protocol_message_tunnelled_roundtrip(pkt):
    """Every message survives encapsulation in IP/UDP/GTP."""
    tid = TunnelId(IMSI1, 5)
    frame = (
        IPv4(src=IP_A, dst=IP_B)
        / UDP(sport=3386, dport=3386)
        / GtpHeader(msg_type=MSG_T_PDU, seq=0, tid=tid)
        / pkt.copy()
    )
    back = IPv4.parse(frame.build())
    assert back == frame
    assert back.flow_name() == frame.flow_name()
    if pkt.show_in_flow:
        assert back.flow_name() == pkt.flow_name()


def _tunnelled(pkt):
    return (
        IPv4(src=IP_A, dst=IP_B)
        / UDP(sport=3386, dport=3386)
        / GtpHeader(msg_type=MSG_T_PDU, seq=0, tid=TunnelId(IMSI1, 5))
        / pkt.copy()
    )


def _outcome(parse, data):
    """``("ok", packet)`` or the raised error as ``(type, message)``."""
    try:
        return "ok", parse(data)
    except (PacketError, FieldError) as exc:
        return type(exc), str(exc)


def _field_offsets(pkt):
    """``{field name: offset}`` of *pkt*'s own fields in ``pkt.build()``."""
    offsets, offset = {}, 2
    for field in type(pkt).fields:
        offsets[field.name] = offset
        offset += len(field.encode(getattr(pkt, field.name)))
    return offsets


def _changed_value(field, value):
    """A valid value for *field* other than *value*, or ``None``."""
    inner = field.inner if isinstance(field, OptionalField) else field
    if value is None or isinstance(inner, EnumField):
        return None
    if isinstance(inner, UIntField):
        return value ^ 1
    if isinstance(inner, (BytesField, DigitsField)):  # str and bytes alike
        return value + value[:1] if value else None
    if isinstance(inner, ImsiField):
        return IMSI("466920000000002") if value == IMSI1 else IMSI1
    if isinstance(inner, E164Field):
        return E164Number("886", "935000002")
    return None


def _received(frame):
    """*frame* as a wire-fidelity link delivers it."""
    return frame.wire_copy()[0]


@pytest.mark.parametrize("pkt", PROTO_SAMPLES, ids=lambda p: type(p).__name__)
class TestLazyParse:
    """The link round trip, ``Packet.wire_copy``, which every
    wire-fidelity hop runs."""

    def test_lazy_equals_eager(self, pkt):
        for frame in (pkt, _tunnelled(pkt)):
            wire = frame.build()
            _decode_layer.cache_clear()
            keys = {k: v for k, v in frame.trace_info().items()
                    if k in Packet.CORRELATION_FIELDS}
            for _memo in ("miss", "hit"):
                copy, (data, corr) = frame.wire_copy()
                assert copy == Packet.parse(wire) == frame
                assert data == wire
                assert copy.build() == wire
                assert copy.trace_info() == frame.trace_info()
                assert merge_correlation(corr) == keys
                assert copy.flow_name() == frame.flow_name()
            # The next hop clones the received slices.
            relayed, (data, corr) = copy.wire_copy()
            assert relayed == frame and data == wire
            assert merge_correlation(corr) == keys
            assert relayed.build() == wire

    def test_structural_errors_raise_at_lazy_parse(self, pkt):
        """Bytes of one layer that do not decode raise from the round
        trip's decode as from ``Packet.parse``, and are not memoised."""
        wire = pkt.build()
        bad = [wire[:cut] for cut in range(len(wire))]
        bad.append(b"\xff\xff" + wire[2:])
        for name, offset in _field_offsets(pkt).items():
            if isinstance(type(pkt)._field_map[name], OptionalField):
                bad.append(wire[:offset] + b"\x02" + wire[offset + 1 :])
        _decode_layer.cache_clear()
        for data in bad:
            assert _outcome(_decode_layer, data) == _outcome(Packet.parse, data)
        for extra in (b"\x00", b"\x00\x01"):
            with pytest.raises(PacketError, match=f"^{type(pkt).__name__}: "):
                _decode_layer(wire + extra)
        assert _decode_layer.cache_info().currsize == 0

    def test_value_errors_deferred_to_first_read(self, pkt):
        """No value error is deferred past the decode: a corrupt value
        raises from the round trip's decode with the eager message."""
        wire = pkt.build()
        cases = []
        for name, offset in _field_offsets(pkt).items():
            field = type(pkt)._field_map[name]
            if isinstance(field, OptionalField):
                if getattr(pkt, name) is None:
                    continue
                field, offset = field.inner, offset + 1
            if isinstance(field, BoolField):
                cases.append((offset, 0x07))
            elif isinstance(field, (DigitsField, ImsiField, E164Field,
                                    TunnelIdField)) and wire[offset]:
                cases.append((offset + 1, 0xAA))
        for at, byte in cases:
            data = wire[:at] + bytes([byte]) + wire[at + 1 :]
            eager = _outcome(Packet.parse, data)
            assert eager[0] is FieldError
            assert _outcome(_decode_layer, data) == eager

    def test_assignment_after_lazy_parse_changes_build(self, pkt):
        wire = pkt.build()
        changed = 0
        for field in type(pkt).fields:
            new = _changed_value(field, getattr(pkt, field.name))
            if new is None:
                continue
            received = _received(pkt)
            setattr(received, field.name, new)
            expected = pkt.copy()
            setattr(expected, field.name, new)
            assert received.build() == expected.build() != wire
            assert _received(received) == expected
            changed += 1
        assert changed

    def test_payload_reassignment_is_honoured(self, pkt):
        received = _received(pkt)
        received.payload = Raw(data=b"tail")
        expected = pkt.copy() / Raw(data=b"tail")
        assert received.build() == expected.build()
        assert _received(received) == expected
        frame = _received(_tunnelled(pkt))
        frame.get_layer(GtpHeader).payload = Raw(data=b"swap")
        expected = _tunnelled(pkt)
        expected.get_layer(GtpHeader).payload = Raw(data=b"swap")
        assert frame.build() == expected.build()

    def test_copy_of_received_frame_keeps_its_slices(self, pkt):
        frame = _received(_tunnelled(pkt))
        copy = frame.copy()
        assert copy == frame == _tunnelled(pkt)
        assert all("_wire" in layer.__dict__ for layer in copy.layers())
        assert copy.build() == frame.build()
        for field in type(pkt).fields:
            new = _changed_value(field, getattr(pkt, field.name))
            if new is not None:
                setattr(copy.innermost(), field.name, new)
                assert frame == _tunnelled(pkt)
                assert copy.build() != frame.build()
                break

    def test_renamed_clone_builds_with_its_own_wire_id(self, pkt):
        target = next(
            (cls for cls in _WIRE_REGISTRY.values()
             if cls.fields is type(pkt).fields and cls is not type(pkt)),
            type(pkt),
        )
        constructed = target(**{
            name: value for name, value in pkt._values.items()
            if value is not None
        })
        for source in (pkt, _received(pkt)):
            clone = rename_packet(source, target)
            assert clone == constructed
            wire = clone.build()
            assert wire == constructed.build()
            assert wire[:2] == target.wire_id.to_bytes(2, "big")
            assert wire[2:] == pkt.build()[2:]
            assert type(Packet.parse(wire)) is target
            assert _received(clone) == Packet.parse(wire)

    def test_parse_accepts_bytearray(self, pkt):
        wire = _tunnelled(pkt).build()
        back = Packet.parse(bytearray(wire))
        assert back == _tunnelled(pkt)
        built = back.build()
        assert type(built) is bytes and built == wire
        assert _received(back).build() == wire


def test_rename_keeps_constructor_defaults_for_unset_values():
    """Siblings share a plan, but a ``None`` value still meets the
    target's non-``None`` default as construction would have it."""

    class NoneOrDigits(DigitsField):
        def validate(self, value):
            return value if value is None else super().validate(value)

    tag_fields = (NoneOrDigits("tag", "12"),)

    class SiblingA(Packet):
        name = "SIBLING_A"
        fields = tag_fields

    class SiblingB(Packet):
        name = "SIBLING_B"
        fields = tag_fields

    assert SiblingA._plan is SiblingB._plan
    assert rename_packet(SiblingA(tag=None), SiblingB).tag == "12"
    assert rename_packet(SiblingA(tag="7"), SiblingB).tag == "7"


def test_correlation_items_follow_trace_info_precedence():
    """The round trip's correlation items merge as ``trace_info`` does:
    an ``info()`` item overrides an earlier layer's key, and a declared
    field fills only a key no earlier layer set."""
    imsi2 = IMSI("466920000000002")

    class Quiet(Packet):
        name = "CORR_QUIET"
        fields = (ImsiField("imsi"),)

    class Loud(Packet):
        name = "CORR_LOUD"
        fields = Quiet.fields

        def info(self):
            return {"imsi": "loud", "call_ref": None}

    cases = [
        (Quiet(imsi=IMSI1) / Loud(imsi=imsi2), {"imsi": "loud", "call_ref": None}),
        (Loud(imsi=IMSI1) / Quiet(imsi=imsi2), {"imsi": "loud", "call_ref": None}),
        (Quiet(imsi=IMSI1) / Quiet(imsi=imsi2), {"imsi": str(IMSI1)}),
        # A relay rename re-derives the items for the new class.
        (rename_packet(_received(Quiet(imsi=IMSI1)), Loud),
         {"imsi": "loud", "call_ref": None}),
    ]
    for frame, expected in cases:
        assert {k: v for k, v in frame.trace_info().items()
                if k in Packet.CORRELATION_FIELDS} == expected
        _decode_layer.cache_clear()
        for _memo in ("miss", "hit"):
            copy, (_, corr) = frame.wire_copy()
            assert merge_correlation(corr) == expected
        assert merge_correlation(copy.wire_copy()[1][1]) == expected


def test_wire_ids_unique_across_registry():
    assert len(_WIRE_REGISTRY) == len(set(_WIRE_REGISTRY))
    names = [cls.__name__ for cls in _WIRE_REGISTRY.values()]
    assert len(names) == len(set(names))


def test_duplicate_field_names_rejected():
    from repro.packets.fields import ByteField

    with pytest.raises(PacketError):
        class Dup(Packet):  # noqa: F811
            name = "Dup"
            fields = (ByteField("x"), ByteField("x"))
