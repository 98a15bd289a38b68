"""Cross-correlation chip decoding (paper Sec. III-B).

"After user detection, we use the PN sequences of the detected users to
perform cross-correlation with each chip (the spread symbols to
represent one bit) from the synchronized frame.  If the correlation
with the PN sequence representing '1' is higher than that with the PN
sequence representing '0', the chip is decoded to '1', and vice versa."

Because CBMA's bit-0 chips are the exact negation of the bit-1 chips,
"correlate with both and compare" reduces to the sign of a single
coherent correlation against the bipolar code template, phase-aligned
with the channel estimate from user detection.  Decoding is
*progressive*: the 8-bit length field is decoded first, which bounds
how many further bits the frame contains, then payload + CRC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.obs.taxonomy import C
from repro.obs.tracer import as_tracer
from repro.phy.modulation import upsample_chips
from repro.tag.framing import FrameFormat
from repro.utils.bits import bits_to_bipolar
from repro.utils.contracts import array_contract

__all__ = ["ChipDecoder", "DecodedFrame"]

#: ``slice_bits(start, n_bits)``: decide *n_bits* uint8 0/1 bits from
#: sample *start* on, or ``None`` when the window ends first.
Slicer = Callable[[int, int], Optional[np.ndarray]]


@dataclass(frozen=True)
class DecodedFrame:
    """Outcome of decoding one user's frame from a collision."""

    user_id: int
    success: bool
    payload: Optional[bytes]
    reason: str
    """"ok", "length" (implausible length field), "truncated", or "crc"."""
    raw_bits: Optional[np.ndarray] = None
    """Post-preamble bits as decoded (for BER analysis), if available."""


class ChipDecoder:
    """Decodes one user's bits from a synchronised sample window.

    Parameters
    ----------
    code:
        The user's PN code (0/1 chips).
    fmt:
        Frame format (for field geometry and CRC).
    samples_per_chip:
        Oversampling factor of the receive buffer.
    tracer:
        Optional :class:`repro.obs.Tracer`; the CRC check records a
        ``crc`` span and ``crc.ok`` / ``crc.fail`` counters.
    """

    def __init__(self, code: np.ndarray, fmt: Optional[FrameFormat] = None, samples_per_chip: int = 1, tracer=None):
        self.tracer = as_tracer(tracer)
        self.fmt = fmt or FrameFormat()
        self.samples_per_chip = int(samples_per_chip)
        if self.samples_per_chip < 1:
            raise ValueError("samples_per_chip must be >= 1")
        self.code = np.asarray(code, dtype=np.uint8)
        self._template = upsample_chips(bits_to_bipolar(self.code), self.samples_per_chip)
        self.block_samples = self._template.size

    def decision_statistics(self, window: np.ndarray, start: int, n_bits: int) -> Optional[np.ndarray]:
        """Raw complex correlation statistic per bit (no decision).

        Exposed for diversity combining: a multi-antenna receiver sums
        ``Re(conj(h_k) * stats_k)`` across branches before slicing.
        Returns ``None`` when the window is too short.
        """
        x = np.asarray(window)
        end = start + n_bits * self.block_samples
        if start < 0 or end > x.size:
            return None
        blocks = x[start:end].reshape(n_bits, self.block_samples)
        return blocks @ np.conj(self._template)

    def slicer(self, window: np.ndarray, channel: complex) -> Slicer:
        """The per-bit slicing step for one frame in *window*.

        Returns ``slice_bits(start, n_bits)``, which decides *n_bits*
        consecutive bits beginning at sample *start* (``None`` when the
        window is too short).  Each bit's statistic is
        ``Re(conj(h) * <template, block>)``; the bit is 1 when it is
        positive (bit-0 chips are the negated code, so the statistic is
        symmetric).  :meth:`parse_frame` calls the slicer once for the
        length field and once for the rest, so a slicer that updates
        its channel estimate as it goes carries it across both.
        """
        x = np.asarray(window)
        if channel == 0:
            channel = 1.0 + 0j

        def slice_bits(start: int, n_bits: int) -> Optional[np.ndarray]:
            stats = self.decision_statistics(x, start, n_bits)
            if stats is None:
                return None
            return (np.real(np.conj(channel) * stats) > 0).astype(np.uint8)

        return slice_bits

    def decode_bits(self, window: np.ndarray, start: int, n_bits: int, channel: complex) -> Optional[np.ndarray]:
        """Decode *n_bits* consecutive bits beginning at sample *start*
        (``None`` when the window is too short)."""
        return self.slicer(window, channel)(start, n_bits)

    @array_contract(window="(n) complex128")
    def decode_frame(self, window: np.ndarray, preamble_start: int, channel: complex, user_id: int = -1) -> DecodedFrame:
        """Progressively decode a full frame.

        *preamble_start* is the sample where the spread preamble begins
        (the user-detection peak).  The preamble itself is not
        re-decoded -- it served as the synchronisation anchor -- so
        decoding starts at the length field.
        """
        return self.parse_frame(self.slicer(window, channel), preamble_start, user_id)

    def parse_frame(self, slice_bits: Slicer, preamble_start: int, user_id: int = -1) -> DecodedFrame:
        """Progressive frame parse over any per-bit slicing step.

        The 8-bit length field is sliced first, which bounds how many
        further bits the frame holds, then payload + CRC.
        """
        body_start = preamble_start + self.fmt.preamble_bits * self.block_samples

        length_bits = slice_bits(body_start, 8)
        if length_bits is None:
            return DecodedFrame(user_id, False, None, "truncated")
        need = self.fmt.rest_bits(length_bits)
        if need is None:
            return DecodedFrame(user_id, False, None, "length", raw_bits=length_bits)

        rest_bits = slice_bits(body_start + 8 * self.block_samples, need)
        if rest_bits is None:
            return DecodedFrame(user_id, False, None, "truncated", raw_bits=length_bits)

        raw_bits = np.concatenate([length_bits, rest_bits])
        with self.tracer.span("crc"):
            payload = self.fmt.open_body(raw_bits)
        if payload is None:
            self.tracer.count(C.CRC_FAIL)
            return DecodedFrame(user_id, False, None, "crc", raw_bits=raw_bits)
        self.tracer.count(C.CRC_OK)
        return DecodedFrame(user_id, True, payload, "ok", raw_bits=raw_bits)
