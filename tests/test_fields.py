"""Unit tests for the packet field codecs."""

import pytest

from repro.errors import FieldError
from repro.identities import IMSI, E164Number, IPv4Address, TunnelId
from repro.packets.fields import (
    BoolField,
    ByteField,
    BytesField,
    DigitsField,
    E164Field,
    EnumField,
    ImsiField,
    IntField,
    IPv4AddressField,
    LongField,
    OptionalField,
    ShortField,
    StrField,
    TunnelIdField,
)


def roundtrip(field, value):
    encoded = field.encode(field.validate(value))
    decoded, offset = field.decode(encoded, 0)
    assert offset == len(encoded)
    return decoded


class TestUIntFields:
    @pytest.mark.parametrize(
        "field_cls,max_value",
        [(ByteField, 0xFF), (ShortField, 0xFFFF), (IntField, 0xFFFFFFFF),
         (LongField, 0xFFFFFFFFFFFFFFFF)],
    )
    def test_roundtrip_bounds(self, field_cls, max_value):
        f = field_cls("x")
        assert roundtrip(f, 0) == 0
        assert roundtrip(f, max_value) == max_value

    def test_overflow_rejected(self):
        with pytest.raises(FieldError):
            ByteField("x").validate(256)

    def test_negative_rejected(self):
        with pytest.raises(FieldError):
            ShortField("x").validate(-1)

    def test_bool_is_not_int(self):
        with pytest.raises(FieldError):
            IntField("x").validate(True)

    def test_non_int_rejected(self):
        with pytest.raises(FieldError):
            IntField("x").validate("5")

    def test_truncated_decode(self):
        with pytest.raises(FieldError):
            IntField("x").decode(b"\x00\x01", 0)


class TestBoolField:
    def test_roundtrip(self):
        assert roundtrip(BoolField("b"), True) is True
        assert roundtrip(BoolField("b"), False) is False

    def test_bad_wire_byte(self):
        with pytest.raises(FieldError):
            BoolField("b").decode(b"\x02", 0)

    def test_non_bool_rejected(self):
        with pytest.raises(FieldError):
            BoolField("b").validate(1)


class TestEnumField:
    def test_allowed_values(self):
        f = EnumField("e", values=(1, 2, 3))
        assert roundtrip(f, 2) == 2

    def test_disallowed_value(self):
        with pytest.raises(FieldError):
            EnumField("e", values=(1, 2)).validate(9)


class TestBytesStr:
    def test_bytes_roundtrip(self):
        assert roundtrip(BytesField("b"), b"\x00\x01\xff") == b"\x00\x01\xff"
        assert roundtrip(BytesField("b"), b"") == b""

    def test_bytearray_accepted(self):
        assert BytesField("b").validate(bytearray(b"ab")) == b"ab"

    def test_str_roundtrip_unicode(self):
        assert roundtrip(StrField("s"), "héllo wörld") == "héllo wörld"

    def test_truncated_body(self):
        f = BytesField("b")
        wire = f.encode(b"abcdef")
        with pytest.raises(FieldError):
            f.decode(wire[:-2], 0)

    def test_truncated_length_prefix(self):
        with pytest.raises(FieldError):
            BytesField("b").decode(b"\x00", 0)


class TestDigits:
    @pytest.mark.parametrize("digits", ["", "1", "12", "123", "0123456789" * 3])
    def test_roundtrip(self, digits):
        assert roundtrip(DigitsField("d"), digits) == digits

    def test_odd_length_padding(self):
        f = DigitsField("d")
        wire = f.encode("123")
        assert wire[0] == 3
        assert len(wire) == 1 + 2  # length byte + 2 nibble-pairs

    def test_non_digits_rejected(self):
        with pytest.raises(FieldError):
            DigitsField("d").validate("12a")
        with pytest.raises(FieldError):
            DigitsField("d").validate(123)

    @pytest.mark.parametrize("digits", ["12\u00b2", "12\u0663", "\uff11\uff12"])
    def test_non_ascii_digits_rejected(self, digits):
        # str.isdigit() accepts these; BCD cannot carry them.  "12²"
        # used to pass validation and fail in build() with a bare
        # ValueError, and "12٣" was silently encoded as "123".
        with pytest.raises(FieldError):
            DigitsField("d").validate(digits)
        with pytest.raises(FieldError):
            DigitsField("d").encode(digits)

    def test_bad_bcd_nibble(self):
        with pytest.raises(FieldError):
            DigitsField("d").decode(b"\x02\xaa", 0)

    def test_decode_accepts_bytearray(self):
        wire = DigitsField("d").encode("12345")
        assert DigitsField("d").decode(bytearray(wire), 0) == ("12345", 4)


class TestDomainFields:
    def test_imsi_roundtrip(self):
        imsi = IMSI("466920000000001")
        assert roundtrip(ImsiField("i"), imsi) == imsi

    def test_imsi_type_checked(self):
        with pytest.raises(FieldError):
            ImsiField("i").validate("466920000000001")

    def test_e164_roundtrip(self):
        n = E164Number("886", "935000001")
        assert roundtrip(E164Field("n"), n) == n

    def test_ipv4_roundtrip(self):
        a = IPv4Address.parse("203.0.113.7")
        assert roundtrip(IPv4AddressField("a"), a) == a
        assert len(IPv4AddressField("a").encode(a)) == 4

    def test_tunnel_id_roundtrip(self):
        tid = TunnelId(IMSI("466920000000001"), 6)
        assert roundtrip(TunnelIdField("t"), tid) == tid

    def test_tunnel_id_truncated_nsapi(self):
        f = TunnelIdField("t")
        wire = f.encode(TunnelId(IMSI("466920000000001"), 6))
        with pytest.raises(FieldError):
            f.decode(wire[:-1], 0)


class TestOptionalField:
    def test_none_roundtrip(self):
        f = OptionalField(IntField("x"))
        assert roundtrip(f, None) is None
        assert f.encode(None) == b"\x00"

    def test_present_roundtrip(self):
        f = OptionalField(IntField("x"))
        assert roundtrip(f, 42) == 42

    def test_validates_inner(self):
        with pytest.raises(FieldError):
            OptionalField(ByteField("x")).validate(300)

    def test_bad_presence_flag(self):
        with pytest.raises(FieldError):
            OptionalField(ByteField("x")).decode(b"\x07\x01", 0)

    def test_name_mirrors_inner(self):
        assert OptionalField(IntField("inner_name")).name == "inner_name"
