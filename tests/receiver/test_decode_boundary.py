"""Bits are validated at the public boundary, never inside decoding.

:func:`repro.utils.bits.as_bit_array` checks that every element is 0/1.
The receiver makes its bits itself (the slicer emits uint8 0/1), so the
decode path -- length field, body, CRC, SIC re-encoding -- must not
run that check again.  The counter is installed in every loaded
``repro`` module that bound the function by name, so a caller that did
``from repro.utils.bits import as_bit_array`` is counted too.
"""

import sys

import numpy as np
import pytest

from repro.codes import twonc_codes
from repro.phy.modulation import fractional_delay, ook_baseband
from repro.receiver import CbmaReceiver, SessionSupervisor
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream
from repro.tag import FrameFormat, Tag
from repro.utils import bits

SPC = 2


@pytest.fixture
def as_bit_array_calls(monkeypatch):
    """A list that grows by one on every ``as_bit_array`` call."""
    calls = []
    original = bits.as_bit_array

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _four_tag_round():
    codes = twonc_codes(4, 64)
    fmt = FrameFormat()
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(4)]
    rx = CbmaReceiver({i: codes[i] for i in range(4)}, fmt=fmt, samples_per_chip=SPC)
    rng = np.random.default_rng(31)
    payloads = {i: bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for i in range(4)}
    streams = [
        fractional_delay(
            ook_baseband(tag.chip_stream(payloads[tag.tag_id], SPC), amplitude=np.exp(2j * tag.tag_id)),
            128 + float(rng.uniform(0, 8)),
        )
        for tag in tags
    ]
    n = max(s.size for s in streams) + 64
    buf = 1e-6 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    for s in streams:
        buf[: s.size] += s
    return rx, buf, payloads


def test_receiver_process_never_revalidates(as_bit_array_calls):
    rx, buf, payloads = _four_tag_round()
    rx.process(buf)  # builds the cached template bank
    as_bit_array_calls.clear()
    report = rx.process(buf)
    assert report.decoded_payloads() == payloads
    assert len(report.frames) == 4
    assert as_bit_array_calls == []


def test_session_pump_never_revalidates(as_bit_array_calls):
    cfg = SoakConfig(n_windows=40, traffic_rate=0.5, seed=3)
    tags, stream = build_soak_stack(cfg)
    capture, offered = build_soak_stream(cfg, stream=stream, tags=tags)
    session = SessionSupervisor(stream)
    session.ingest(capture)
    as_bit_array_calls.clear()
    frames = session.pump(drain_tail=True)
    assert offered and frames
    assert as_bit_array_calls == []
