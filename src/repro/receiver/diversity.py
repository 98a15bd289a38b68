"""Multi-antenna (MRC) receiver extension.

The USRP RIO used by the paper has two receive chains; receive
diversity is the cheapest upgrade path the prototype leaves on the
table.  This module implements maximal-ratio combining:

- user detection runs per branch and combines correlation energies
  non-coherently (phases differ across antennas);
- each detected user's channel is estimated per branch;
- chip decisions slice ``sum_k Re(conj(h_k) * z_k)`` -- the matched
  combiner that is optimal for independent-branch AWGN.

Independent small-scale fading per antenna gives the usual diversity
gain against the deep-fade failures that dominate CBMA's error floor
at the knee.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from functools import partial
from typing import List, Optional, Sequence, cast

import numpy as np

from repro.receiver.decoder import ChipDecoder, DecodedFrame
from repro.receiver.frame_sync import FrameSyncResult
from repro.receiver.receiver import CbmaReceiver, ReceptionReport
from repro.receiver.user_detection import UserDetection

__all__ = ["DiversityReceiver"]


class DiversityReceiver(CbmaReceiver):
    """MRC receiver over ``n_antennas`` independent branches.

    ``process_branches`` accepts a list of per-antenna sample buffers
    (equal length) and runs the base receiver's stages with a combined
    detector and an MRC slicing step; the single-buffer :meth:`process`
    still works and degenerates to the base receiver.
    """

    def __init__(self, *args, n_antennas: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        if n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        self.n_antennas = n_antennas

    def process_branches(self, branches: Sequence[np.ndarray], round_index: int = 0) -> ReceptionReport:
        """Full pipeline over per-antenna buffers.

        Every branch passes the same front end as :meth:`process`
        (sanitiser, optional DC block), and each stage is contained the
        same way.
        """
        if len(branches) != self.n_antennas:
            raise ValueError(f"expected {self.n_antennas} branches, got {len(branches)}")
        report = ReceptionReport(sync=FrameSyncResult(detections=[]))
        xs = [self._front_end(b, report.failures) for b in branches]
        if len({x.size for x in xs}) != 1:
            raise ValueError("branches must share one length")
        if not self._sync(report, xs, round_index):
            return report
        self._detect(report, partial(self._detect_combined, xs))
        for det in report.detections:
            attempt = partial(_decode_mrc, self._decoders[det.user_id], xs, det.user_id)
            report.frames.append(self._decode(report, det, attempt)[0])
        return self._finish(report, round_index)

    def _combined_correlations(
        self, branches: Sequence[np.ndarray]
    ) -> "OrderedDict[int, np.ndarray]":
        """Square-law-combined correlation per user, batched per branch.

        Each branch takes **one** batched FFT pass over the stacked
        template bank; the per-user rows are then combined
        non-coherently across branches (phases differ across antennas).
        """
        combined: "OrderedDict[int, np.ndarray]" = OrderedDict()
        for x in branches:
            for uid, corr in self.user_detector.correlation_rows(x):
                prev = combined.get(uid)
                combined[uid] = corr**2 if prev is None else prev + corr**2
        # Root-SUM, not root-mean: a deeply faded branch must never
        # drag the detection statistic below what the good branch
        # alone would give (non-coherent square-law combining).
        return OrderedDict((uid, np.sqrt(acc)) for uid, acc in combined.items())

    def _detect_combined(self, branches: Sequence[np.ndarray]) -> List[UserDetection]:
        """User detection on the combined correlations; each candidate
        carries one channel estimate per branch."""

        def channels_at(template: np.ndarray, k: int) -> tuple:
            t_energy = float(np.vdot(template, template).real)
            return tuple(
                complex(np.vdot(template, x[k : k + template.size]) / t_energy) for x in branches
            )

        detections = self.user_detector.rank(self._combined_correlations(branches).items(), channels_at)
        # The headline channel is branch 0's estimate.
        return [replace(d, channel=cast(tuple, d.channel)[0]) for d in detections]


def _decode_mrc(
    decoder: ChipDecoder,
    branches: Sequence[np.ndarray],
    user_id: int,
    preamble_start: int,
    channels: Sequence[complex],
) -> DecodedFrame:
    """Decode one frame with the MRC slicing step: each bit slices
    ``sum_k Re(conj(h_k) * z_k)`` over the branches."""

    def slice_bits(start: int, n_bits: int) -> Optional[np.ndarray]:
        acc = None
        for x, h in zip(branches, channels):
            stats = decoder.decision_statistics(x, start, n_bits)
            if stats is None:
                return None
            contrib = np.real(np.conj(h if h != 0 else 1.0) * stats)
            acc = contrib if acc is None else acc + contrib
        return (acc > 0).astype(np.uint8)

    return decoder.parse_frame(slice_bits, preamble_start, user_id)
