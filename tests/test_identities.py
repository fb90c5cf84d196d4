"""Unit tests for subscriber and network identities."""

import pickle

import pytest

from repro.errors import AddressError
from repro.identities import (
    IMSI,
    LAI,
    TMSI,
    CellId,
    E164Number,
    IPv4Address,
    TunnelId,
    as_e164,
)


class TestImsi:
    def test_parts(self):
        imsi = IMSI("466920000000001")
        assert imsi.mcc == "466"
        assert imsi.mnc == "92"
        assert imsi.msin == "0000000001"
        assert str(imsi) == "466920000000001"

    def test_non_digits_rejected(self):
        with pytest.raises(AddressError):
            IMSI("46692000000000a")

    @pytest.mark.parametrize("last", ["\u0663", "\u00b2", "\uff13"])
    def test_non_ascii_digits_rejected(self, last):
        with pytest.raises(AddressError):
            IMSI("46692000000000" + last)

    def test_too_long_rejected(self):
        with pytest.raises(AddressError):
            IMSI("4" * 16)

    def test_too_short_rejected(self):
        with pytest.raises(AddressError):
            IMSI("12345")

    def test_hashable_and_equal(self):
        assert IMSI("466920000000001") == IMSI("466920000000001")
        assert len({IMSI("466920000000001"), IMSI("466920000000001")}) == 1


class TestTmsi:
    def test_str(self):
        assert str(TMSI(0xDEADBEEF)) == "TMSI:deadbeef"

    def test_range(self):
        with pytest.raises(AddressError):
            TMSI(1 << 32)
        with pytest.raises(AddressError):
            TMSI(-1)


class TestE164:
    def test_str(self):
        assert str(E164Number("886", "35712121")) == "+88635712121"

    def test_parse_longest_country_code(self):
        n = E164Number.parse("+85221234567")
        assert n.country_code == "852"
        assert n.national == "21234567"

    def test_parse_requires_plus(self):
        with pytest.raises(AddressError):
            E164Number.parse("85221234567")

    def test_parse_unknown_cc(self):
        with pytest.raises(AddressError):
            E164Number.parse("+99912345", known_ccs=("44", "886"))

    def test_is_international_from(self):
        n = E164Number("44", "7700900123")
        assert n.is_international_from("852")
        assert not n.is_international_from("44")

    def test_bad_cc(self):
        with pytest.raises(AddressError):
            E164Number("44445", "123")
        with pytest.raises(AddressError):
            E164Number("4a", "123")

    def test_bad_national(self):
        with pytest.raises(AddressError):
            E164Number("44", "")
        with pytest.raises(AddressError):
            E164Number("44", "12x45")

    @pytest.mark.parametrize("cc, national", [
        ("8\u0668", "35712121"), ("886", "3571212\u00b2"), ("886", "\u0663"),
    ])
    def test_non_ascii_digits_rejected(self, cc, national):
        with pytest.raises(AddressError):
            E164Number(cc, national)


class TestAsE164:
    def test_passthrough(self):
        n = E164Number("886", "935000001")
        assert as_e164(n) is n

    def test_parses_string(self):
        assert as_e164("+85221234567") == E164Number("852", "21234567")

    def test_rejects_bad_input_with_named_error(self):
        for bad in ("+000000000000", "no-plus", 12345, None):
            with pytest.raises(AddressError):
                as_e164(bad)

    def test_place_call_rejects_misuse_before_state_change(self):
        """The sim-facing contract: misuse raises a named error and the
        handset stays usable (no half-opened call state)."""
        from repro.core import scenarios
        from repro.core.network import build_vgprs_network

        nw = build_vgprs_network()
        ms = nw.add_ms("MS1", "466920000000001", "+886935000001")
        term = nw.add_terminal("TERM1", "+886222000001", answer_delay=0.4)
        nw.sim.run(until=0.5)
        scenarios.register_ms(nw, ms)
        with pytest.raises(AddressError):
            ms.place_call("+000000000000")
        assert ms.state == "idle"
        outcome = scenarios.call_ms_to_terminal(nw, ms, term)
        assert outcome.connected_at is not None


class TestIPv4:
    def test_parse_and_str_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "192.0.2.1", "255.255.255.255"):
            assert str(IPv4Address.parse(text)) == text

    def test_value_backing(self):
        assert IPv4Address.parse("10.0.0.1").value == 0x0A000001

    def test_bad_formats(self):
        for text in ("10.0.0", "10.0.0.0.1", "10.0.0.256", "a.b.c.d", "",
                     "10.0.0.\u0661", "10.0.0.\u00b2"):
            with pytest.raises(AddressError):
                IPv4Address.parse(text)

    def test_out_of_range_value(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")

    def test_str_cache_keeps_repr_eq_and_pickle(self):
        address = IPv4Address.parse("192.0.2.1")
        assert str(address) == "192.0.2.1"
        assert repr(address) == "IPv4Address(value=3221225985)"
        copy = pickle.loads(pickle.dumps(address))
        assert copy == address and hash(copy) == hash(address)
        assert str(copy) == "192.0.2.1"
        assert not copy < address


class TestTunnelId:
    def test_str(self):
        tid = TunnelId(IMSI("466920000000001"), 5)
        assert str(tid) == "TID:466920000000001/5"

    def test_nsapi_range(self):
        with pytest.raises(AddressError):
            TunnelId(IMSI("466920000000001"), 16)

    def test_equality_keys_dicts(self):
        a = TunnelId(IMSI("466920000000001"), 5)
        b = TunnelId(IMSI("466920000000001"), 5)
        c = TunnelId(IMSI("466920000000001"), 6)
        assert a == b and a != c
        assert {a: 1}[b] == 1


class TestLaiCell:
    def test_lai_str(self):
        assert str(LAI("466", "92", 0x1234)) == "LAI:466-92-1234"

    def test_lai_validation(self):
        with pytest.raises(AddressError):
            LAI("46", "92", 1)
        with pytest.raises(AddressError):
            LAI("466", "9", 1)
        with pytest.raises(AddressError):
            LAI("466", "92", 1 << 16)
        with pytest.raises(AddressError):
            LAI("46\u0666", "92", 1)

    def test_cell_id(self):
        lai = LAI("466", "92", 1)
        cell = CellId(lai, 7)
        assert str(cell).endswith("ci=0007")
        with pytest.raises(AddressError):
            CellId(lai, 1 << 16)
