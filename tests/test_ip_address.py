"""Unit and property tests for addresses and prefixes."""

import pytest
from hypothesis import given, strategies as st

from repro.ip.address import Address, AddressError, Prefix, BROADCAST, UNSPECIFIED


# ----------------------------------------------------------------------
# Address
# ----------------------------------------------------------------------
def test_parse_dotted_quad():
    assert int(Address("10.0.1.2")) == (10 << 24) | (1 << 8) | 2


def test_str_round_trip():
    assert str(Address("192.168.255.1")) == "192.168.255.1"


def test_from_int():
    assert str(Address(0x0A000102)) == "10.0.1.2"


def test_copy_constructor():
    a = Address("1.2.3.4")
    assert Address(a) == a


def test_equality_with_string_and_int():
    a = Address("1.2.3.4")
    assert a == "1.2.3.4"
    assert a == int(a)
    assert a != "1.2.3.5"


def test_ordering():
    assert Address("1.0.0.1") < Address("1.0.0.2")
    assert Address("2.0.0.0") > Address("1.255.255.255")


def test_hashable():
    assert len({Address("1.1.1.1"), Address("1.1.1.1")}) == 1


def test_addition():
    assert Address("10.0.0.1") + 1 == Address("10.0.0.2")


def test_wire_round_trip():
    a = Address("172.16.5.9")
    assert Address.from_bytes(a.to_bytes()) == a


def test_broadcast_and_unspecified_flags():
    assert BROADCAST.is_broadcast
    assert UNSPECIFIED.is_unspecified
    assert not Address("1.2.3.4").is_broadcast


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1",
                                 "a.b.c.d", "", "1..2.3"])
def test_malformed_addresses_rejected(bad):
    with pytest.raises(AddressError):
        Address(bad)


def test_out_of_range_int_rejected():
    with pytest.raises(AddressError):
        Address(1 << 32)
    with pytest.raises(AddressError):
        Address(-1)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_int_str_round_trip_property(value):
    assert int(Address(str(Address(value)))) == value


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_bytes_round_trip_property(value):
    a = Address(value)
    assert Address.from_bytes(a.to_bytes()) == a


def reference_eq(address, other):
    """``Address.__eq__`` as it was before its exact-type fast branch."""
    if isinstance(other, (Address, int)):
        return address._value == int(other)
    if isinstance(other, str):
        try:
            return address._value == Address(other)._value
        except AddressError:
            return NotImplemented
    return NotImplemented


class SubAddress(Address):
    __slots__ = ()


values = st.integers(min_value=0, max_value=0xFFFFFFFF)
dotted = values.map(lambda v: str(Address(v)))
others = st.one_of(
    values.map(Address),
    values.map(SubAddress),
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.booleans(),
    dotted,
    st.text(max_size=20),
    st.from_regex(r"\A\d{1,4}\.\d{1,4}\.\d{1,4}(\.\d{1,4}){0,2}\Z"),
    st.floats(allow_nan=True),
    st.none(),
    st.binary(max_size=4),
    st.tuples(values),
)


@given(values, others)
def test_eq_matches_the_reference_for_any_operand(value, other):
    address = Address(value)
    assert address.__eq__(other) == reference_eq(address, other)
    expected = reference_eq(address, other)
    assert (address == other) == (expected is True)
    assert (address != other) == (expected is not True)


@given(values, values)
def test_eq_and_hash_between_addresses(a, b):
    x, y = Address(a), Address(b)
    assert (x == y) == (a == b) == (x == SubAddress(b))
    assert hash(x) == hash(a)
    if x == y:
        assert hash(x) == hash(y)


@given(values)
def test_eq_against_its_own_int_and_str(value):
    address = Address(value)
    assert address == value and address == str(address)
    assert address != value + 1 and address != (value ^ 1)
    assert address.__eq__(str(address) + ".0") is NotImplemented


# ----------------------------------------------------------------------
# Prefix
# ----------------------------------------------------------------------
def test_prefix_parse():
    p = Prefix.parse("10.1.0.0/16")
    assert p.length == 16
    assert str(p) == "10.1.0.0/16"


def test_bare_address_parses_as_host_prefix():
    assert Prefix.parse("10.1.2.3").length == 32


def test_contains():
    p = Prefix.parse("10.1.0.0/16")
    assert p.contains("10.1.200.3")
    assert not p.contains("10.2.0.1")


def test_host_bits_rejected():
    with pytest.raises(AddressError):
        Prefix(Address("10.1.0.1"), 16)


def test_prefix_of_masks_host_bits():
    p = Prefix.of("10.1.200.3", 16)
    assert p == Prefix.parse("10.1.0.0/16")


def test_netmask():
    assert Prefix.parse("10.0.0.0/8").netmask == Address("255.0.0.0")
    assert Prefix.parse("10.1.2.0/24").netmask == Address("255.255.255.0")
    assert Prefix.parse("0.0.0.0/0").netmask == Address("0.0.0.0")


def test_broadcast_address():
    assert Prefix.parse("10.1.2.0/24").broadcast == Address("10.1.2.255")


def test_hosts_iteration_skips_network_and_broadcast():
    hosts = list(Prefix.parse("10.0.0.0/30").hosts())
    assert hosts == [Address("10.0.0.1"), Address("10.0.0.2")]


def test_hosts_for_point_to_point_31():
    hosts = list(Prefix.parse("10.0.0.0/31").hosts())
    assert len(hosts) == 2


def test_host_indexing():
    p = Prefix.parse("10.0.1.0/24")
    assert p.host(1) == Address("10.0.1.1")
    with pytest.raises(AddressError):
        p.host(500)


def test_covers():
    outer = Prefix.parse("10.0.0.0/8")
    inner = Prefix.parse("10.1.0.0/16")
    assert outer.covers(inner)
    assert not inner.covers(outer)
    assert outer.covers(outer)


def test_default_prefix_contains_everything():
    p = Prefix.parse("0.0.0.0/0")
    assert p.contains("255.255.255.255")
    assert p.contains("0.0.0.0")


def test_invalid_length_rejected():
    with pytest.raises(AddressError):
        Prefix(Address("0.0.0.0"), 33)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=32))
def test_prefix_of_always_contains_source_address(value, length):
    addr = Address(value)
    assert Prefix.of(addr, length).contains(addr)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=1, max_value=32))
def test_broadcast_is_in_prefix(value, length):
    p = Prefix.of(Address(value), length)
    assert p.contains(p.broadcast)
