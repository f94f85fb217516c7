"""Unit and property tests for the IP datagram wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.ip.address import Address
from repro.ip.packet import (
    Datagram,
    HeaderError,
    IP_HEADER_LEN,
    PROTO_TCP,
    PROTO_UDP,
)


def make(payload=b"hello", **kwargs):
    defaults = dict(src=Address("10.0.0.1"), dst=Address("10.0.0.2"),
                    protocol=PROTO_UDP, payload=payload)
    defaults.update(kwargs)
    return Datagram(**defaults)


def test_total_length():
    d = make(payload=b"12345")
    assert d.total_length == IP_HEADER_LEN + 5


def test_wire_round_trip():
    d = make(payload=b"payload bytes", ttl=17, ident=99, tos=4)
    parsed = Datagram.from_bytes(d.to_bytes())
    assert parsed.src == d.src
    assert parsed.dst == d.dst
    assert parsed.protocol == d.protocol
    assert parsed.payload == d.payload
    assert parsed.ttl == 17
    assert parsed.ident == 99
    assert parsed.tos == 4


def test_fragment_flags_round_trip():
    d = make(more_fragments=True, fragment_offset=185)
    parsed = Datagram.from_bytes(d.to_bytes())
    assert parsed.more_fragments
    assert parsed.fragment_offset == 185
    assert parsed.is_fragment


def test_df_flag_round_trip():
    parsed = Datagram.from_bytes(make(dont_fragment=True).to_bytes())
    assert parsed.dont_fragment


def test_not_fragment_by_default():
    assert not make().is_fragment


def test_header_checksum_corruption_detected():
    wire = bytearray(make().to_bytes())
    wire[8] ^= 0x42  # mangle the TTL field
    with pytest.raises(HeaderError):
        Datagram.from_bytes(bytes(wire))


def test_payload_corruption_not_covered_by_header_checksum():
    # The IP checksum covers only the header — transports protect payloads.
    wire = bytearray(make(payload=b"abcdef").to_bytes())
    wire[-1] ^= 0xFF
    parsed = Datagram.from_bytes(bytes(wire))
    assert parsed.payload != b"abcdef"


def test_short_data_rejected():
    with pytest.raises(HeaderError):
        Datagram.from_bytes(b"\x45\x00\x00")


def test_truncated_datagram_rejected():
    wire = make(payload=b"x" * 50).to_bytes()
    with pytest.raises(HeaderError):
        Datagram.from_bytes(wire[:30])


def test_bad_version_rejected():
    wire = bytearray(make().to_bytes())
    wire[0] = (6 << 4) | 5
    with pytest.raises(HeaderError):
        Datagram.from_bytes(bytes(wire))


def test_trailing_padding_ignored():
    d = make(payload=b"data")
    parsed = Datagram.from_bytes(d.to_bytes() + b"\x00" * 8)
    assert parsed.payload == b"data"


def test_ttl_out_of_range_rejected_on_serialize():
    with pytest.raises(HeaderError):
        make(ttl=300).to_bytes()


def test_fragment_offset_out_of_range_rejected_on_serialize():
    with pytest.raises(HeaderError):
        make(fragment_offset=8192).to_bytes()


def test_negative_fragment_offset_rejected_on_serialize():
    # Regression: only the high bound was checked, so a negative offset
    # two's-complemented into the flags field and serialized as corrupt
    # (but checksum-valid) wire bytes instead of raising.
    with pytest.raises(HeaderError):
        make(fragment_offset=-1).to_bytes()


def test_copy_changes_only_given_fields():
    d = make(ttl=10)
    d2 = d.copy(ttl=9)
    assert d2.ttl == 9
    assert d2.payload == d.payload
    assert d.ttl == 10


@given(payload=st.binary(max_size=512),
       ttl=st.integers(min_value=0, max_value=255),
       ident=st.integers(min_value=0, max_value=0xFFFF),
       tos=st.integers(min_value=0, max_value=255),
       offset=st.integers(min_value=0, max_value=8191),
       mf=st.booleans(), df=st.booleans(),
       src=st.integers(min_value=0, max_value=0xFFFFFFFF),
       dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
       proto=st.integers(min_value=0, max_value=255))
def test_round_trip_property(payload, ttl, ident, tos, offset, mf, df,
                             src, dst, proto):
    d = Datagram(src=Address(src), dst=Address(dst), protocol=proto,
                 payload=payload, ttl=ttl, ident=ident, tos=tos,
                 fragment_offset=offset, more_fragments=mf, dont_fragment=df)
    parsed = Datagram.from_bytes(d.to_bytes())
    assert parsed == d


@given(payload=st.binary(max_size=512),
       ttl=st.integers(min_value=1, max_value=255),
       ident=st.integers(min_value=0, max_value=0xFFFF),
       tos=st.integers(min_value=0, max_value=255),
       offset=st.integers(min_value=0, max_value=8191),
       mf=st.booleans(), df=st.booleans(),
       src=st.integers(min_value=0, max_value=0xFFFFFFFF),
       dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
       proto=st.integers(min_value=0, max_value=255),
       trace_id=st.integers(min_value=0, max_value=2**63))
def test_forward_copy_is_copy_with_ttl_decremented(payload, ttl, ident, tos,
                                                   offset, mf, df, src, dst,
                                                   proto, trace_id):
    d = Datagram(src=Address(src), dst=Address(dst), protocol=proto,
                 payload=payload, ttl=ttl, ident=ident, tos=tos,
                 fragment_offset=offset, more_fragments=mf, dont_fragment=df,
                 trace_id=trace_id)
    before = d.copy()
    forwarded = d.forward_copy()
    assert forwarded == d.copy(ttl=ttl - 1)
    assert forwarded is not d
    assert forwarded.payload is d.payload
    assert d == before and d.ttl == ttl
