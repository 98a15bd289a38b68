"""Phase-tracking receiver: surviving carrier frequency offset (CFO).

The baseband model usually assumes the tag's 20 MHz square wave sits
exactly where the receiver expects.  A real tag clock with ppm error
``e`` shifts the subcarrier by ``e * 20 MHz`` -- 400 Hz at crystal-grade
20 ppm -- which rotates the constellation continuously: over a 10 ms
frame that is several *full turns*, and a decoder that trusts the
preamble's single phase estimate decodes garbage beyond the first
fraction of a turn.

:class:`PhaseTrackingReceiver` adds the standard cure, decision-
directed phase tracking: after each bit decision the channel estimate
is updated from that bit's own correlation statistic, so the estimate
rotates along with the signal.  The loop bandwidth (``alpha``) trades
noise averaging against the maximum trackable CFO (~``alpha / (2 pi
T_bit)`` before the loop lags a turn).

Enable the matching impairment with ``CbmaConfig(cfo_hz_sigma=...)``;
both default off so the calibrated paper pipeline is unchanged.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.receiver.decoder import ChipDecoder, Slicer
from repro.receiver.receiver import CbmaReceiver
from repro.tag.framing import FrameFormat

__all__ = ["PhaseTrackingReceiver"]


class PhaseTrackingReceiver(CbmaReceiver):
    """CBMA receiver with decision-directed per-bit phase tracking.

    Parameters match :class:`CbmaReceiver` plus *alpha*, the tracking
    loop gain in (0, 1]: each decided bit pulls the channel estimate
    ``h`` toward that bit's measured phase by a factor *alpha*.  Only
    the decoders' slicing step differs from the base pipeline.
    """

    def __init__(self, *args, alpha: float = 0.35, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._decoders = {
            uid: _TrackingDecoder(code, self.fmt, self.samples_per_chip, alpha, tracer=self.tracer)
            for uid, code in self.codes.items()
        }


class _TrackingDecoder(ChipDecoder):
    """A :class:`ChipDecoder` whose slicer carries ``h`` forward."""

    def __init__(
        self,
        code: np.ndarray,
        fmt: FrameFormat,
        samples_per_chip: int,
        alpha: float,
        tracer: Any = None,
    ):
        super().__init__(code, fmt, samples_per_chip, tracer=tracer)
        self.alpha = alpha
        self._w_eff = float(np.sum(np.abs(self._template) ** 2)) / 2.0  # ~ones count x spc

    def slicer(self, window: np.ndarray, channel: complex) -> Slicer:
        """Slice bits, updating ``h`` after every decision."""
        x = np.asarray(window)
        h = channel if channel != 0 else 1.0 + 0j
        template = self._template
        block_samples = self.block_samples

        def slice_bits(start: int, n_bits: int) -> Optional[np.ndarray]:
            nonlocal h
            if start < 0 or start + n_bits * block_samples > x.size:
                return None
            bits = np.empty(n_bits, dtype=np.uint8)
            for k in range(n_bits):
                block = x[start + k * block_samples : start + (k + 1) * block_samples]
                z = complex(block @ np.conj(template))
                bit = 1 if np.real(np.conj(h) * z) > 0 else 0
                bits[k] = bit
                # The statistic of a correct decision is ~ h * W * (+/-1);
                # fold its phase back into h (decision-directed update).
                sign = 1.0 if bit else -1.0
                observed = z * sign / max(self._w_eff, 1e-30)
                h = (1.0 - self.alpha) * h + self.alpha * observed
            return bits

        return slice_bits
