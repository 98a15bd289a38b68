"""Unit tests for repro.utils.crc."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import bytes_to_bits
from repro.utils.crc import CRC16_CCITT, CRC16_IBM, Crc16, crc16_ccitt, crc16_ibm


class TestKnownVectors:
    """Check values against the published check words for '123456789'."""

    def test_ccitt_false_check(self):
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_ibm_arc_check(self):
        assert crc16_ibm(b"123456789") == 0xBB3D

    def test_empty_ccitt(self):
        assert crc16_ccitt(b"") == 0xFFFF  # init value, no data processed

    def test_single_byte_changes_crc(self):
        assert crc16_ccitt(b"a") != crc16_ccitt(b"b")


class TestBitsInterface:
    def test_compute_bits_matches_bytes(self):
        data = b"\x01\x02\x03"
        bits = bytes_to_bits(data)
        crc_bits = CRC16_CCITT.compute_bits(bits)
        expected = crc16_ccitt(data)
        value = int("".join(str(b) for b in crc_bits), 2)
        assert value == expected

    def test_check_bits_accepts(self):
        bits = bytes_to_bits(b"hello123")
        crc_bits = CRC16_CCITT.compute_bits(bits)
        assert CRC16_CCITT.check_bits(bits, crc_bits)

    def test_check_bits_rejects_flip(self):
        bits = bytes_to_bits(b"hello123").copy()
        crc_bits = CRC16_CCITT.compute_bits(bits)
        bits[3] ^= 1
        assert not CRC16_CCITT.check_bits(bits, crc_bits)

    def test_check_bits_wrong_width(self):
        bits = bytes_to_bits(b"xy")
        with pytest.raises(ValueError):
            CRC16_CCITT.check_bits(bits, np.zeros(8, dtype=np.uint8))


class TestErrorDetection:
    """CRC-16 must catch all single- and double-bit errors and any
    burst shorter than 17 bits -- the guarantees framing relies on."""

    @given(st.binary(min_size=2, max_size=32), st.data())
    def test_detects_single_bit_error(self, data, draw):
        bits = bytes_to_bits(data).copy()
        crc = CRC16_CCITT.compute_bits(bits)
        pos = draw.draw(st.integers(0, bits.size - 1))
        bits[pos] ^= 1
        assert not CRC16_CCITT.check_bits(bits, crc)

    @given(st.binary(min_size=3, max_size=32), st.data())
    def test_detects_burst_up_to_16(self, data, draw):
        bits = bytes_to_bits(data).copy()
        crc = CRC16_CCITT.compute_bits(bits)
        burst_len = draw.draw(st.integers(1, min(16, bits.size)))
        start = draw.draw(st.integers(0, bits.size - burst_len))
        # A burst flips its first and last bit (a single flip when
        # burst_len is 1).
        bits[start] ^= 1
        if burst_len > 1:
            bits[start + burst_len - 1] ^= 1
        assert not CRC16_CCITT.check_bits(bits, crc)

    def test_check_method(self):
        assert CRC16_IBM.check(b"123456789", 0xBB3D)
        assert not CRC16_IBM.check(b"123456789", 0xBB3E)


class TestCustomPolynomial:
    def test_custom_instance(self):
        crc = Crc16(poly=0x1021, init=0x0000, reflect=False, name="xmodem")
        assert crc.compute(b"123456789") == 0x31C3  # CRC-16/XMODEM check value

    def test_repr_contains_name(self):
        assert "xmodem" in repr(Crc16(poly=0x1021, init=0, reflect=False, name="xmodem"))


class TestValueEquality:
    def test_equal_parameters_compare_and_hash_equal(self):
        twin = Crc16(poly=0x1021, init=0xFFFF, reflect=False, name="another label")
        assert twin == CRC16_CCITT
        assert hash(twin) == hash(CRC16_CCITT)

    def test_different_parameters_compare_unequal(self):
        assert CRC16_CCITT != CRC16_IBM
        assert Crc16(poly=0x1021, init=0x0000, reflect=False) != CRC16_CCITT
