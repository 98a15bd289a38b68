"""Unit tests for repro.tag.framing."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tag.framing import (
    DEFAULT_PREAMBLE,
    Frame,
    FrameError,
    FrameFormat,
    MAX_PAYLOAD_BYTES,
)
from repro.utils.bits import as_bit_array
from repro.utils.crc import CRC16_IBM


class TestFrameFormat:
    def test_default_preamble_is_paper_byte(self):
        fmt = FrameFormat()
        assert "".join(str(b) for b in fmt.preamble) == "10101010" == DEFAULT_PREAMBLE

    def test_with_preamble_bits_alternating(self):
        fmt = FrameFormat.with_preamble_bits(5)
        assert fmt.preamble.tolist() == [1, 0, 1, 0, 1]

    def test_with_preamble_bits_invalid(self):
        with pytest.raises(ValueError):
            FrameFormat.with_preamble_bits(0)

    @pytest.mark.parametrize("preamble", [[1, 0, 1, 0], "1010", (1, 0, 1, 0), np.array([1, 0, 1, 0])])
    def test_preamble_coerced_at_construction(self, preamble):
        fmt = FrameFormat(preamble=preamble)
        assert fmt.preamble.dtype == np.uint8
        assert fmt.preamble.tolist() == [1, 0, 1, 0]
        assert fmt.preamble_bits == 4
        assert fmt.parse(fmt.build(b"hi")).payload == b"hi"

    @pytest.mark.parametrize("preamble", [np.array([1, 2, 0]), "10x1", [1, -1]])
    def test_non_binary_preamble_rejected_at_construction(self, preamble):
        with pytest.raises(ValueError):
            FrameFormat(preamble=preamble)

    def test_overhead_bits(self):
        fmt = FrameFormat()
        # 8 preamble + 8 length + 16 CRC.
        assert fmt.overhead_bits() == 32

    def test_frame_bits(self):
        fmt = FrameFormat()
        assert fmt.frame_bits(10) == 32 + 80

    def test_frame_bits_bounds(self):
        with pytest.raises(ValueError):
            FrameFormat().frame_bits(127)


class TestFrameFormatValue:
    def test_equal_formats_compare_and_hash_equal(self):
        a, b = FrameFormat(), FrameFormat(preamble=[1, 0, 1, 0, 1, 0, 1, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_preambles_compare_unequal(self):
        assert FrameFormat() != FrameFormat.with_preamble_bits(4)
        assert FrameFormat(preamble="1010") != FrameFormat(preamble="0101")
        assert FrameFormat() != "10101010"

    def test_different_crc_compares_unequal(self):
        assert FrameFormat() != FrameFormat(crc=CRC16_IBM)

    def test_preamble_is_read_only(self):
        fmt = FrameFormat()
        with pytest.raises(ValueError):
            fmt.preamble[0] = 0
        assert hash(fmt) == hash(FrameFormat())

    def test_caller_array_stays_writable(self):
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        FrameFormat(preamble=bits)
        bits[0] = 0  # the format keeps its own copy

    def test_pickle_round_trip_is_equal_and_read_only(self):
        fmt = FrameFormat.with_preamble_bits(6)
        clone = pickle.loads(pickle.dumps(fmt))
        assert clone == fmt and hash(clone) == hash(fmt)
        assert not clone.preamble.flags.writeable


class TestBuildParse:
    def test_roundtrip(self):
        fmt = FrameFormat()
        payload = b"hello, backscatter"
        frame = fmt.parse(fmt.build(payload))
        assert frame.payload == payload

    def test_empty_payload(self):
        fmt = FrameFormat()
        assert fmt.parse(fmt.build(b"")).payload == b""

    def test_max_payload(self):
        fmt = FrameFormat()
        payload = bytes(range(256))[:MAX_PAYLOAD_BYTES]
        assert fmt.parse(fmt.build(payload)).payload == payload

    def test_oversize_payload_rejected(self):
        with pytest.raises(ValueError):
            FrameFormat().build(b"x" * (MAX_PAYLOAD_BYTES + 1))

    def test_corrupt_payload_fails_crc(self):
        fmt = FrameFormat()
        bits = fmt.build(b"abcdef").copy()
        bits[fmt.header_bits() + 5] ^= 1
        with pytest.raises(FrameError, match="CRC"):
            fmt.parse(bits)

    def test_corrupt_length_detected(self):
        fmt = FrameFormat()
        bits = fmt.build(b"abcdef").copy()
        # Flip the MSB of the length byte -> implausible or truncated.
        bits[fmt.preamble_bits] ^= 1
        with pytest.raises(FrameError):
            fmt.parse(bits)

    def test_bad_preamble_rejected(self):
        fmt = FrameFormat()
        bits = fmt.build(b"xyz").copy()
        bits[0] ^= 1
        with pytest.raises(FrameError, match="preamble"):
            fmt.parse(bits)

    def test_preamble_check_can_be_skipped(self):
        fmt = FrameFormat()
        bits = fmt.build(b"xyz").copy()
        bits[0] ^= 1
        assert fmt.parse(bits, check_preamble=False).payload == b"xyz"

    def test_truncated(self):
        fmt = FrameFormat()
        bits = fmt.build(b"a long enough payload")
        with pytest.raises(FrameError):
            fmt.parse(bits[:40])

    def test_too_short_for_header(self):
        with pytest.raises(FrameError):
            FrameFormat().parse(as_bit_array("1010"))

    def test_trailing_bits_ignored(self):
        """Extra bits after the CRC (next frame, noise) must not break parsing."""
        fmt = FrameFormat()
        bits = np.concatenate([fmt.build(b"data"), as_bit_array("10110011")])
        assert fmt.parse(bits).payload == b"data"

    @given(st.binary(max_size=MAX_PAYLOAD_BYTES))
    def test_roundtrip_property(self, payload):
        fmt = FrameFormat()
        assert fmt.parse(fmt.build(payload)).payload == payload

    @given(st.binary(min_size=1, max_size=32), st.data())
    def test_single_bit_flip_never_accepted_quietly(self, payload, draw):
        """Any single-bit corruption after the preamble must raise."""
        fmt = FrameFormat()
        bits = fmt.build(payload).copy()
        pos = draw.draw(st.integers(fmt.preamble_bits, bits.size - 1))
        bits[pos] ^= 1
        try:
            frame = fmt.parse(bits)
        except FrameError:
            return
        # Parsing may only succeed if it decoded the original payload
        # (impossible with a flipped bit covered by the CRC).
        assert frame.payload != payload or False, "corrupted frame accepted"


class TestFrame:
    def test_to_bits_roundtrip(self):
        frame = Frame(payload=b"ping")
        fmt = frame.fmt
        assert fmt.parse(frame.to_bits()).payload == b"ping"

    def test_n_bits(self):
        frame = Frame(payload=b"ping")
        assert frame.n_bits == frame.to_bits().size

    def test_varied_preamble_roundtrip(self):
        for n in (4, 16, 64):
            fmt = FrameFormat.with_preamble_bits(n)
            assert fmt.parse(fmt.build(b"zz")).payload == b"zz"
