"""Subscriber and network identities.

Implements the identifier formats the procedures depend on:

* :class:`IMSI` — International Mobile Subscriber Identity (GSM 23.003):
  MCC (3 digits) + MNC (2 digits here) + MSIN, max 15 digits.
* :class:`TMSI` — 32-bit Temporary Mobile Subscriber Identity.
* :class:`MSISDN` / :class:`E164Number` — telephone numbers with country
  codes; tromboning (Figures 7–8) hinges on international vs. local
  routing decisions made on these.
* :class:`IPv4Address` — dotted-quad, int-backed.
* :class:`TunnelId` — GTP v0 tunnel identifier (GSM 09.60): IMSI + NSAPI.
* :class:`LAI` / :class:`CellId` — location area and cell identities.

All identity types are immutable and hashable so they can key HLR/VLR and
PDP-context tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from repro.errors import AddressError


def is_decimal(text: str) -> bool:
    """True when *text* is a non-empty run of ASCII digits ``0``-``9``.

    ``str.isdigit`` alone also accepts superscripts (``"²"``) and other
    scripts' digits (``"٣"``), which BCD cannot carry and ``int`` either
    rejects or silently maps onto ``0``-``9``."""
    return text.isascii() and text.isdigit()


@dataclass(frozen=True, order=True)
class IMSI:
    """International Mobile Subscriber Identity.

    >>> imsi = IMSI("466920000000001")
    >>> imsi.mcc, imsi.mnc
    ('466', '92')
    """

    digits: str

    def __post_init__(self) -> None:
        if not is_decimal(self.digits):
            raise AddressError(f"IMSI must be decimal digits, got {self.digits!r}")
        if not 6 <= len(self.digits) <= 15:
            raise AddressError(f"IMSI must be 6-15 digits, got {len(self.digits)}")

    @property
    def mcc(self) -> str:
        """Mobile country code (first three digits)."""
        return self.digits[:3]

    @property
    def mnc(self) -> str:
        """Mobile network code (two-digit convention)."""
        return self.digits[3:5]

    @property
    def msin(self) -> str:
        """Mobile subscriber identification number."""
        return self.digits[5:]

    def __str__(self) -> str:
        return self.digits


@dataclass(frozen=True, order=True)
class TMSI:
    """32-bit temporary identity allocated by a VLR."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise AddressError(f"TMSI must fit in 32 bits, got {self.value:#x}")

    def __str__(self) -> str:
        return f"TMSI:{self.value:08x}"


@dataclass(frozen=True, order=True)
class E164Number:
    """An international telephone number: ``+<cc><national>``.

    >>> n = E164Number("886", "35712121")
    >>> str(n)
    '+88635712121'
    >>> n.is_international_from("44")
    True
    """

    country_code: str
    national: str

    def __post_init__(self) -> None:
        if not is_decimal(self.country_code) or not 1 <= len(self.country_code) <= 3:
            raise AddressError(f"bad country code {self.country_code!r}")
        if not is_decimal(self.national):
            raise AddressError(f"bad national number {self.national!r}")

    @classmethod
    def parse(cls, text: str, known_ccs: tuple = ("1", "44", "852", "886")) -> "E164Number":
        """Parse ``+<digits>`` by matching the longest known country code."""
        if not text.startswith("+"):
            raise AddressError(f"E.164 numbers start with '+', got {text!r}")
        digits = text[1:]
        for cc in sorted(known_ccs, key=len, reverse=True):
            if digits.startswith(cc):
                return cls(cc, digits[len(cc):])
        raise AddressError(f"no known country code matches {text!r}")

    def is_international_from(self, country_code: str) -> bool:
        """True when dialling this number from *country_code* crosses an
        international boundary — the quantity tromboning is about."""
        return self.country_code != country_code

    def __str__(self) -> str:
        return f"+{self.country_code}{self.national}"


def as_e164(value: "E164Number | str") -> "E164Number":
    """Coerce *value* to an :class:`E164Number` at an API boundary.

    Raises :class:`AddressError` immediately on bad input, so callers
    (``place_call`` and friends) reject misuse before touching any call
    state instead of failing mid-simulation from a field validator.
    """
    if isinstance(value, E164Number):
        return value
    if isinstance(value, str):
        return E164Number.parse(value)
    raise AddressError(
        f"expected E164Number or '+<digits>' string, got {value!r}"
    )


# An MSISDN is the E.164 number of a mobile subscriber; keeping the alias
# makes call sites read like the specs.
MSISDN = E164Number


@dataclass(frozen=True, order=True)
class IPv4Address:
    """Dotted-quad IPv4 address backed by a 32-bit int."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise AddressError(f"IPv4 address out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"bad IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not is_decimal(part) or not 0 <= int(part) <= 255:
                raise AddressError(f"bad IPv4 octet in {text!r}")
            value = (value << 8) | int(part)
        return cls(value)

    def __str__(self) -> str:
        return self._dotted

    @cached_property
    def _dotted(self) -> str:
        # Traces stringify both addresses of every IP header.
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"


@dataclass(frozen=True, order=True)
class TunnelId:
    """GTP v0 tunnel identifier: the IMSI plus the NSAPI selecting one of
    the subscriber's PDP contexts (GSM 09.60 §11.1.1)."""

    imsi: IMSI
    nsapi: int

    def __post_init__(self) -> None:
        if not 0 <= self.nsapi <= 15:
            raise AddressError(f"NSAPI must be 0-15, got {self.nsapi}")

    def __str__(self) -> str:
        return f"TID:{self.imsi}/{self.nsapi}"


@dataclass(frozen=True, order=True)
class LAI:
    """Location area identity: MCC + MNC + LAC."""

    mcc: str
    mnc: str
    lac: int

    def __post_init__(self) -> None:
        if not (is_decimal(self.mcc) and len(self.mcc) == 3):
            raise AddressError(f"bad MCC {self.mcc!r}")
        if not (is_decimal(self.mnc) and 2 <= len(self.mnc) <= 3):
            raise AddressError(f"bad MNC {self.mnc!r}")
        if not 0 <= self.lac <= 0xFFFF:
            raise AddressError(f"LAC must fit in 16 bits, got {self.lac}")

    def __str__(self) -> str:
        return f"LAI:{self.mcc}-{self.mnc}-{self.lac:04x}"


@dataclass(frozen=True, order=True)
class CellId:
    """A cell within a location area."""

    lai: LAI
    ci: int

    def __post_init__(self) -> None:
        if not 0 <= self.ci <= 0xFFFF:
            raise AddressError(f"cell id must fit in 16 bits, got {self.ci}")

    def __str__(self) -> str:
        return f"{self.lai}/ci={self.ci:04x}"


SubscriberId = Union[IMSI, TMSI]
