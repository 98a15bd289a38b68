"""Differential test: the progressive decoder agrees with ``parse``.

The receiver never calls :meth:`FrameFormat.parse`: it slices the
length field, then the body, and opens it through the format.  Fed the
same bits -- here by a slicer that returns a built frame, with bit
flips after the preamble and a cut tail -- both must accept exactly the
same frames, with the same payload, and fail for the same reason.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.receiver.decoder import ChipDecoder
from repro.tag.framing import MAX_PAYLOAD_BYTES, FrameError, FrameFormat

#: FrameError message prefix -> the decoder's ``reason``.
REASONS = {"length byte": "length", "frame truncated": "truncated", "CRC mismatch": "crc"}


def _slicer(bits: np.ndarray):
    """A slicer over *bits* at one sample per bit."""

    def slice_bits(start: int, n_bits: int):
        if start + n_bits > bits.size:
            return None
        return bits[start : start + n_bits]

    return slice_bits


@given(
    payload=st.binary(max_size=MAX_PAYLOAD_BYTES),
    preamble=st.sampled_from([4, 8, 16, 64]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_decoder_agrees_with_parse(payload, preamble, data):
    fmt = FrameFormat.with_preamble_bits(preamble)
    bits = fmt.build(payload)
    body = bits.size - preamble
    flips = data.draw(st.lists(st.integers(0, body - 1), max_size=4, unique=True), label="flips")
    bits[[preamble + i for i in flips]] ^= 1
    bits = bits[: bits.size - data.draw(st.integers(0, 24), label="cut")]

    decoded = ChipDecoder(np.ones(1, dtype=np.uint8), fmt).parse_frame(_slicer(bits), 0, user_id=5)
    try:
        parsed = fmt.parse(bits)
    except FrameError as exc:
        assert not decoded.success
        assert decoded.payload is None
        if bits.size >= fmt.overhead_bits():
            prefix = next(p for p in REASONS if str(exc).startswith(p))
            assert decoded.reason == REASONS[prefix]
    else:
        assert decoded.success and decoded.reason == "ok"
        assert decoded.payload == parsed.payload
        assert np.array_equal(decoded.raw_bits, bits[preamble : fmt.frame_bits(len(payload))])
    assert decoded.user_id == 5
