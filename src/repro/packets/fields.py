"""Typed packet fields.

Each field knows how to validate a value, encode it to bytes and decode it
back.  Encodings are self-delimiting so a packet's field section can be
parsed without a length prefix:

* fixed-width integers are big-endian;
* digit strings (IMSI, dialled digits) are packed BCD with a length byte,
  as in GSM 04.08 called-party IEs;
* free-form strings/bytes carry a two-byte length prefix;
* optional fields carry a one-byte presence flag.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import FieldError
from repro.identities import E164Number, IMSI, IPv4Address, TunnelId, is_decimal


class Field:
    """Base field: subclasses implement validate/encode/decode."""

    def __init__(self, name: str, default: Any = None) -> None:
        self.name = name
        self.default = default

    def validate(self, value: Any) -> Any:
        return value

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, offset: int) -> Tuple[Any, int]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class UIntField(Field):
    """Unsigned big-endian integer of *size* bytes."""

    size = 0

    def __init__(self, name: str, default: int = 0) -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise FieldError(f"{self.name}: expected int, got {value!r}")
        if not 0 <= value < (1 << (8 * self.size)):
            raise FieldError(
                f"{self.name}: {value} does not fit in {self.size} bytes"
            )
        return value

    def encode(self, value: int) -> bytes:
        return value.to_bytes(self.size, "big")

    def decode(self, data: bytes, offset: int) -> Tuple[int, int]:
        end = offset + self.size
        if end > len(data):
            raise FieldError(f"{self.name}: truncated at offset {offset}")
        return int.from_bytes(data[offset:end], "big"), end


class ByteField(UIntField):
    size = 1


class ShortField(UIntField):
    size = 2


class IntField(UIntField):
    size = 4


class LongField(UIntField):
    size = 8


class BoolField(Field):
    """One byte, 0 or 1."""

    def __init__(self, name: str, default: bool = False) -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> bool:
        if not isinstance(value, bool):
            raise FieldError(f"{self.name}: expected bool, got {value!r}")
        return value

    def encode(self, value: bool) -> bytes:
        return b"\x01" if value else b"\x00"

    def decode(self, data: bytes, offset: int) -> Tuple[bool, int]:
        if offset >= len(data):
            raise FieldError(f"{self.name}: truncated")
        byte = data[offset]
        if byte not in (0, 1):
            raise FieldError(f"{self.name}: bad boolean byte {byte:#x}")
        return bool(byte), offset + 1


class EnumField(ByteField):
    """A byte restricted to a named value set."""

    def __init__(self, name: str, values: Tuple[int, ...], default: int = 0) -> None:
        super().__init__(name, default)
        self.values = frozenset(values)

    def validate(self, value: Any) -> int:
        value = super().validate(value)
        if value not in self.values:
            raise FieldError(f"{self.name}: {value} not in {sorted(self.values)}")
        return value


class BytesField(Field):
    """Raw bytes with a two-byte length prefix (max 65535)."""

    def __init__(self, name: str, default: bytes = b"") -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise FieldError(f"{self.name}: expected bytes, got {value!r}")
        if len(value) > 0xFFFF:
            raise FieldError(f"{self.name}: too long ({len(value)} bytes)")
        return bytes(value)

    def encode(self, value: bytes) -> bytes:
        return len(value).to_bytes(2, "big") + value

    def decode(self, data: bytes, offset: int) -> Tuple[bytes, int]:
        if offset + 2 > len(data):
            raise FieldError(f"{self.name}: truncated length prefix")
        length = int.from_bytes(data[offset : offset + 2], "big")
        end = offset + 2 + length
        if end > len(data):
            raise FieldError(f"{self.name}: truncated body")
        return data[offset + 2 : end], end


class StrField(BytesField):
    """UTF-8 string with a two-byte length prefix."""

    def __init__(self, name: str, default: str = "") -> None:
        Field.__init__(self, name, default)

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise FieldError(f"{self.name}: expected str, got {value!r}")
        if len(value.encode()) > 0xFFFF:
            raise FieldError(f"{self.name}: too long")
        return value

    def encode(self, value: str) -> bytes:
        return BytesField.encode(self, value.encode())

    def decode(self, data: bytes, offset: int) -> Tuple[str, int]:
        raw, end = BytesField.decode(self, data, offset)
        try:
            return raw.decode(), end
        except UnicodeDecodeError as exc:
            raise FieldError(f"{self.name}: invalid UTF-8") from exc


#: Each byte with its two nibbles swapped.  BCD keeps the first digit in
#: the low nibble; ``bytes.hex``/``bytes.fromhex`` keep it in the high one,
#: so one pass through this table turns a BCD body into digit pairs and
#: back (a nibble above 9 comes out as a hex letter).
_NIBBLE_SWAP = bytes(((b & 0xF) << 4) | (b >> 4) for b in range(256))

#: Entry bound of each BCD memo below.  A memo that reaches it is cleared,
#: so memory stays constant whatever the subscriber population.
_BCD_MEMO_LIMIT = 1024

# Digit string -> packed group, and packed group -> digit string.  Both
# hold immutable values only.  They pay off while fewer than
# _BCD_MEMO_LIMIT distinct IMSIs and MSISDNs recur, as they do on every
# message of a procedure (e2ebench lifecycle: 43 distinct groups, 99 %
# hits); a larger working set makes every call a miss plus an insert.
_PACKED: Dict[str, bytes] = {}
_UNPACKED: Dict[bytes, str] = {}


def _pack_bcd(digits: str) -> bytes:
    """Pack a decimal digit string as BCD nibbles, 0xF padded, behind a
    one-byte digit count."""
    packed = _PACKED.get(digits)
    if packed is None:
        if digits and not is_decimal(digits):
            raise FieldError(f"not decimal digits: {digits!r}")
        if len(digits) > 255:
            raise FieldError(f"too many digits for one BCD group: {len(digits)}")
        body = digits + "f" if len(digits) & 1 else digits
        packed = bytes((len(digits),)) + bytes.fromhex(body).translate(_NIBBLE_SWAP)
        if len(_PACKED) >= _BCD_MEMO_LIMIT:
            _PACKED.clear()
        _PACKED[digits] = packed
    return packed


def _unpack_bcd(data: bytes, offset: int, what: str) -> Tuple[str, int]:
    end = _skip_bcd(data, offset, what)
    group = bytes(data[offset:end])
    digits = _UNPACKED.get(group)
    if digits is None:
        digits = group[1:].translate(_NIBBLE_SWAP).hex()[: group[0]]
        if digits and not digits.isdigit():
            raise FieldError(f"{what}: non-decimal BCD nibble")
        if len(_UNPACKED) >= _BCD_MEMO_LIMIT:
            _UNPACKED.clear()
        _UNPACKED[group] = digits
    return digits, end


def _skip_bcd(data: bytes, offset: int, what: str) -> int:
    """Boundary scan over one BCD group: length byte then packed nibbles."""
    if offset >= len(data):
        raise FieldError(f"{what}: truncated BCD length")
    end = offset + 1 + (data[offset] + 1) // 2
    if end > len(data):
        raise FieldError(f"{what}: truncated BCD body")
    return end


class DigitsField(Field):
    """A decimal digit string, BCD packed (length byte + nibbles)."""

    def __init__(self, name: str, default: str = "") -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise FieldError(f"{self.name}: expected digits, got {value!r}")
        if value and not is_decimal(value):
            raise FieldError(f"{self.name}: expected digits, got {value!r}")
        if len(value) > 255:
            raise FieldError(f"{self.name}: too many digits")
        return value

    def encode(self, value: str) -> bytes:
        return _pack_bcd(value)

    def decode(self, data: bytes, offset: int) -> Tuple[str, int]:
        return _unpack_bcd(data, offset, self.name)


class ImsiField(Field):
    """An :class:`IMSI`, BCD packed."""

    def __init__(self, name: str, default: Optional[IMSI] = None) -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> IMSI:
        if not isinstance(value, IMSI):
            raise FieldError(f"{self.name}: expected IMSI, got {value!r}")
        return value

    def encode(self, value: IMSI) -> bytes:
        return _pack_bcd(value.digits)

    def decode(self, data: bytes, offset: int) -> Tuple[IMSI, int]:
        digits, end = _unpack_bcd(data, offset, self.name)
        return IMSI(digits), end


class E164Field(Field):
    """An :class:`E164Number`: BCD country code, then BCD national part."""

    def __init__(self, name: str, default: Optional[E164Number] = None) -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> E164Number:
        if not isinstance(value, E164Number):
            raise FieldError(f"{self.name}: expected E164Number, got {value!r}")
        return value

    def encode(self, value: E164Number) -> bytes:
        return _pack_bcd(value.country_code) + _pack_bcd(value.national)

    def decode(self, data: bytes, offset: int) -> Tuple[E164Number, int]:
        cc, offset = _unpack_bcd(data, offset, self.name + ".cc")
        national, offset = _unpack_bcd(data, offset, self.name + ".national")
        return E164Number(cc, national), offset


class IPv4AddressField(Field):
    """Four raw bytes holding an :class:`IPv4Address`."""

    def __init__(self, name: str, default: Optional[IPv4Address] = None) -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> IPv4Address:
        if not isinstance(value, IPv4Address):
            raise FieldError(f"{self.name}: expected IPv4Address, got {value!r}")
        return value

    def encode(self, value: IPv4Address) -> bytes:
        return value.value.to_bytes(4, "big")

    def decode(self, data: bytes, offset: int) -> Tuple[IPv4Address, int]:
        end = offset + 4
        if end > len(data):
            raise FieldError(f"{self.name}: truncated")
        return IPv4Address(int.from_bytes(data[offset:end], "big")), end


class TunnelIdField(Field):
    """A GTP v0 TID: BCD IMSI plus one NSAPI byte."""

    def __init__(self, name: str, default: Optional[TunnelId] = None) -> None:
        super().__init__(name, default)

    def validate(self, value: Any) -> TunnelId:
        if not isinstance(value, TunnelId):
            raise FieldError(f"{self.name}: expected TunnelId, got {value!r}")
        return value

    def encode(self, value: TunnelId) -> bytes:
        return _pack_bcd(value.imsi.digits) + bytes([value.nsapi])

    def decode(self, data: bytes, offset: int) -> Tuple[TunnelId, int]:
        digits, offset = _unpack_bcd(data, offset, self.name)
        if offset >= len(data):
            raise FieldError(f"{self.name}: truncated NSAPI")
        return TunnelId(IMSI(digits), data[offset]), offset + 1


class OptionalField(Field):
    """Wraps another field with a one-byte presence flag; value may be
    ``None``."""

    def __init__(self, inner: Field) -> None:
        super().__init__(inner.name, None)
        self.inner = inner

    def validate(self, value: Any) -> Any:
        if value is None:
            return None
        return self.inner.validate(value)

    def encode(self, value: Any) -> bytes:
        if value is None:
            return b"\x00"
        return b"\x01" + self.inner.encode(value)

    def decode(self, data: bytes, offset: int) -> Tuple[Any, int]:
        if offset >= len(data):
            raise FieldError(f"{self.name}: truncated presence flag")
        flag = data[offset]
        if flag == 0:
            return None, offset + 1
        if flag != 1:
            raise FieldError(f"{self.name}: bad presence flag {flag:#x}")
        return self.inner.decode(data, offset + 1)
