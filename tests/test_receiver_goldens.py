"""Golden digests of the receiver extensions.

``tests/test_regression_goldens.py`` pins the standard receiver end to
end.  These tests pin the three extensions built on its stages -- SIC,
multi-antenna MRC and phase tracking -- over fixed, seeded, finite
collisions, so a drift in any of them shows up as a digest change.

Each digest hashes, per reception report: every frame's (user,
success, reason, payload), every detection's (user, offset, score to
1e-12) and the ACK's decoded ids.

INTENTIONAL receiver changes will break these.  Regenerate by printing
``_report_digest(...)`` for each scenario and mention the change in
CHANGELOG.md.
"""

import hashlib

import numpy as np

from repro.channel.fading import FadingModel
from repro.channel.geometry import Deployment, Point
from repro.channel.noise import NoiseModel
from repro.codes import twonc_codes
from repro.receiver import DiversityReceiver, PhaseTrackingReceiver, SicReceiver
from repro.sim.collision import CollisionScenario, simulate_diversity_round
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.tag import Tag, TagOscillator

SPC = 2


def _report_digest(reports) -> str:
    m = hashlib.sha256()
    for report in reports:
        for f in report.frames:
            m.update(repr(("frame", f.user_id, f.success, f.reason, f.payload)).encode())
        for d in report.detections:
            m.update(repr(("det", d.user_id, d.offset, f"{d.score:.12f}")).encode())
        m.update(repr(("ack", sorted(report.ack.decoded_ids))).encode())
    return m.hexdigest()[:16]


def _recording(cls):
    """*cls* with every ``process`` report kept on ``self.reports``."""

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.reports = []

        def process(self, iq, round_index=0, skip_energy_gate=False):
            report = super().process(iq, round_index, skip_energy_gate)
            self.reports.append(report)
            return report

    return Recording


def _near_far_deployment() -> Deployment:
    """4 tags 0.4-2.4 m from the receiver on the excitation axis."""
    dep = Deployment(excitation=Point(-0.5, 0.0), receiver=Point(0.5, 0.0))
    for k, d in enumerate((0.4, 0.8, 1.6, 2.4)):
        dep.tags.append(Point(0.5 - d, 0.1 * (k % 2 == 0)))
    return dep


class TestReceiverExtensionGoldens:
    def test_sic_near_far_rounds(self):
        net = CbmaNetwork(
            CbmaConfig(n_tags=4, seed=7),
            _near_far_deployment(),
            receiver_cls=_recording(SicReceiver),
        )
        net.run_rounds(8)
        assert len(net.receiver.reports) == 8
        assert _report_digest(net.receiver.reports) == "7c9f0ca84035984d"

    def test_phase_tracking_with_cfo(self):
        net = CbmaNetwork(
            CbmaConfig(n_tags=4, seed=11, cfo_hz_sigma=500.0),
            Deployment.linear(4, tag_to_rx=2.0),
            receiver_cls=_recording(PhaseTrackingReceiver),
        )
        net.run_rounds(8)
        assert len(net.receiver.reports) == 8
        assert _report_digest(net.receiver.reports) == "c28b1d7fa1044331"

    def test_diversity_process_branches(self):
        codes = twonc_codes(3, 64)
        rng = np.random.default_rng(8)
        noise = NoiseModel()
        fading = FadingModel(k_factor=3.0, shadowing_sigma_db=0.0)
        rx = DiversityReceiver(
            {i: codes[i] for i in range(3)}, samples_per_chip=SPC, n_antennas=2
        )
        reports = []
        for snr_db in (-16.0, -13.0, -10.0, 5.0, -13.0, -16.0):
            amp = np.sqrt(noise.power_w * 10 ** (snr_db / 10)) / 0.432
            tags = [
                Tag(i, codes[i], oscillator=TagOscillator(offset_chips=float(rng.uniform(0, 8))))
                for i in range(3)
            ]
            scenario = CollisionScenario(
                tags=tags, amplitudes=[amp] * 3, noise=noise, samples_per_chip=SPC
            )
            payloads = {
                i: bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for i in range(3)
            }
            gains = np.array([[fading.sample_gain(rng) for _ in range(3)] for _ in range(2)])
            branches, _ = simulate_diversity_round(scenario, payloads, gains, rng)
            reports.append(rx.process_branches(branches, round_index=len(reports)))
        # One round with nothing on the air (frame-sync miss).
        quiet = [1e-9 * (rng.normal(size=4000) + 1j * rng.normal(size=4000)) for _ in range(2)]
        reports.append(rx.process_branches(quiet))
        assert _report_digest(reports) == "fbbba1c2af9ee7f2"
