"""Golden digests of the frame codec and of every decode attempt.

``tests/test_receiver_goldens.py`` pins each reception report's final
frames by (user, success, reason, payload).  These digests pin what
those leave out:

* every frame :meth:`FrameFormat.build` makes (bits and dtype), for
  each payload length 0..126 under 4/8/16/64-bit preambles;
* the outcome of :meth:`FrameFormat.parse` -- the payload, or the
  :class:`FrameError` message -- over a seeded corpus of built frames
  with 1-4 bit flips, truncations and trailing bits;
* every :class:`DecodedFrame` the receiver makes, including failed
  attempts, with its ``reason`` and ``raw_bits``, on seeded 10-tag
  2NC-64 rounds of the standard receiver and near-far rounds of the
  SIC receiver.

INTENTIONAL codec or receiver changes will break these.  Regenerate by
printing the digest each test computes and mention the change in
CHANGELOG.md.
"""

import hashlib

import numpy as np

from repro.channel.geometry import Deployment
from repro.receiver import CbmaReceiver, ChipDecoder, SicReceiver
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.tag import FrameError, FrameFormat, MAX_PAYLOAD_BYTES

from tests.test_receiver_goldens import _near_far_deployment, _recording

PREAMBLES = (4, 8, 16, 64)
ERROR_KINDS = ("shorter than minimum", "preamble mismatch", "exceeds max payload", "truncated", "CRC mismatch")


def _frame_key(f) -> tuple:
    raw = None if f.raw_bits is None else (str(f.raw_bits.dtype), f.raw_bits.tobytes())
    return (f.user_id, f.success, f.reason, f.payload, raw)


def _parse_outcome(fmt: FrameFormat, bits: np.ndarray, check_preamble: bool) -> str:
    try:
        return fmt.parse(bits, check_preamble=check_preamble).payload.hex()
    except FrameError as exc:
        return f"FrameError: {exc}"


def _damage(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One seeded corruption of *bits*: flips, a cut, or trailing bits."""
    out = bits.copy()
    kind = int(rng.integers(0, 4))
    if kind == 0:
        n_flips = int(rng.integers(1, 5))
        out[rng.choice(out.size, size=n_flips, replace=False)] ^= 1
    elif kind == 1:
        out = out[: int(rng.integers(0, out.size))]
    elif kind == 2:
        out = np.concatenate([out, rng.integers(0, 2, int(rng.integers(1, 40)), dtype=np.uint8)])
    return out  # kind 3: intact


def _recording_parses(monkeypatch) -> list:
    """Every ``ChipDecoder.parse_frame`` result, in call order."""
    attempts = []
    original = ChipDecoder.parse_frame

    def parse_frame(self, slice_bits, preamble_start, user_id=-1):
        frame = original(self, slice_bits, preamble_start, user_id)
        attempts.append(frame)
        return frame

    monkeypatch.setattr(ChipDecoder, "parse_frame", parse_frame)
    return attempts


def _attempts_digest(attempts, reports) -> str:
    m = hashlib.sha256()
    for f in attempts:
        m.update(repr(("attempt",) + _frame_key(f)).encode())
    for report in reports:
        for f in report.frames:
            m.update(repr(("frame",) + _frame_key(f)).encode())
    return m.hexdigest()[:16]


class TestFrameCodecGoldens:
    def test_build_bits(self):
        rng = np.random.default_rng(20)
        m = hashlib.sha256()
        for n_bits in PREAMBLES:
            fmt = FrameFormat.with_preamble_bits(n_bits)
            for length in range(MAX_PAYLOAD_BYTES + 1):
                payload = bytes(rng.integers(0, 256, length, dtype=np.uint8))
                bits = fmt.build(payload)
                m.update(repr((n_bits, length, str(bits.dtype), bits.size)).encode())
                m.update(bits.tobytes())
        assert m.hexdigest()[:16] == "0efbbdf0f279f831"

    def test_parse_outcomes(self):
        rng = np.random.default_rng(21)
        m = hashlib.sha256()
        seen = set()
        for case in range(1500):
            fmt = FrameFormat.with_preamble_bits(PREAMBLES[case % len(PREAMBLES)])
            length = int(rng.integers(0, MAX_PAYLOAD_BYTES + 1))
            bits = _damage(fmt.build(bytes(rng.integers(0, 256, length, dtype=np.uint8))), rng)
            for check in (True, False):
                outcome = _parse_outcome(fmt, bits, check)
                seen.update(k for k in ERROR_KINDS if k in outcome)
                m.update(repr((case, check, outcome)).encode())
        # The corpus reaches every error path, not just the CRC check.
        assert seen == set(ERROR_KINDS)
        assert m.hexdigest()[:16] == "f0b6f52669ad0449"


class TestDecodeAttemptGoldens:
    def test_standard_receiver_ten_tags(self, monkeypatch):
        attempts = _recording_parses(monkeypatch)
        net = CbmaNetwork(
            CbmaConfig(n_tags=10, seed=23),
            Deployment.linear(10, tag_to_rx=2.0),
            receiver_cls=_recording(CbmaReceiver),
        )
        net.run_rounds(6)
        assert {f.reason for f in attempts} == {"ok", "length", "truncated", "crc"}
        assert _attempts_digest(attempts, net.receiver.reports) == "20023e6b3cf78067"

    def test_sic_near_far(self, monkeypatch):
        attempts = _recording_parses(monkeypatch)
        net = CbmaNetwork(
            CbmaConfig(n_tags=4, seed=7), _near_far_deployment(), receiver_cls=_recording(SicReceiver)
        )
        net.run_rounds(8)
        assert _attempts_digest(attempts, net.receiver.reports) == "92b4c47d2f8f8bab"
