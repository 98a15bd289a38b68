"""Cross-session batched gating: bit-identity of the stacked kernels.

``sliding_correlation_many`` must equal per-row
``sliding_correlation_batch`` to the last bit (both backends, single
and overlap-save blocks), and ``StreamingReceiver.windows_are_live``
must reproduce the per-window pre-gate rule -- any user's correlation
row reaching the margin-scaled threshold -- on every window.  That
identity is what makes the farm's co-scheduled gate an optimisation
rather than a behaviour change.
"""

import numpy as np
import pytest

from repro.receiver.streaming import _PREGATE_MARGIN, StreamingReceiver
from repro.utils.correlation_batch import (
    _OVERLAP_SAVE_THRESHOLD,
    TemplateBank,
    sliding_correlation_batch,
    sliding_correlation_many,
)


def _stack(rng, n_signals, n, complex_signals=True):
    x = rng.normal(size=(n_signals, n))
    if complex_signals:
        x = x + 1j * rng.normal(size=(n_signals, n))
    return x


class TestStackedKernel:
    @pytest.mark.parametrize("backend", ["fft", "direct"])
    @pytest.mark.parametrize("complex_signals", [True, False])
    def test_matches_per_row_batch(self, backend, complex_signals):
        rng = np.random.default_rng(5)
        templates = rng.normal(size=(4, 24))
        # One single-block stack and one long enough for overlap-save.
        for n_signals, n in ((3, 200), (2, _OVERLAP_SAVE_THRESHOLD + 1000)):
            signals = _stack(rng, n_signals, n, complex_signals)
            many = sliding_correlation_many(signals, templates, backend=backend)
            rows = np.stack(
                [
                    sliding_correlation_batch(row, templates, backend=backend)
                    for row in signals
                ]
            )
            assert many.shape == (n_signals, 4, n - 24 + 1)
            np.testing.assert_array_equal(many, rows)

    @pytest.mark.parametrize("backend", ["fft", "direct"])
    def test_unnormalized_matches_per_row(self, backend):
        rng = np.random.default_rng(6)
        signals = _stack(rng, 2, 120)
        templates = rng.normal(size=(3, 16))
        many = sliding_correlation_many(
            signals, templates, normalize=False, backend=backend
        )
        rows = np.stack(
            [
                sliding_correlation_batch(
                    row, templates, normalize=False, backend=backend
                )
                for row in signals
            ]
        )
        np.testing.assert_array_equal(many, rows)

    def test_short_signals_empty_lag_axis(self):
        signals = np.zeros((2, 10), dtype=np.complex128)
        templates = np.ones((3, 24))
        out = sliding_correlation_many(signals, templates)
        assert out.shape == (2, 3, 0)

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError):
            sliding_correlation_many(np.zeros((1, 8)), np.zeros((2, 0)))

    def test_requires_2d_signals(self):
        with pytest.raises(ValueError):
            sliding_correlation_many(np.zeros(16), np.ones((2, 4)))

    def test_bank_correlate_many(self):
        rng = np.random.default_rng(7)
        templates = rng.normal(size=(4, 20))
        bank = TemplateBank((0, 1, 2, 3), templates, samples_per_chip=1)
        windows = _stack(rng, 3, 90)
        np.testing.assert_array_equal(
            bank.correlate_many(windows),
            sliding_correlation_many(windows, bank.matrix),
        )


class TestBatchedGate:
    @pytest.fixture(scope="class")
    def stream(self, net_config):
        return StreamingReceiver.from_config(net_config)

    def test_matches_scalar_gate(self, stream, soak_capture):
        detector = stream.receiver.user_detector
        threshold = detector.threshold * _PREGATE_MARGIN

        def reference(window):
            # The per-window rule: some user's row reaches the threshold.
            return any(
                row.max() >= threshold for _uid, row in detector.correlation_rows(window)
            )

        buffer, _chunks, _chunk = soak_capture
        w = stream.window_samples
        m = detector.bank.template_samples
        windows = np.stack([buffer[i * w : (i + 1) * w] for i in range(12)])
        expected = np.array([reference(win) for win in windows])
        np.testing.assert_array_equal(stream.windows_are_live(windows), expected)
        assert [stream.window_is_live(win) for win in windows] == list(expected)
        # The capture is busy enough that both branches are exercised.
        assert expected.any() and not expected.all()
        # Capture-edge tails: sub-template, exactly one template, empty.
        live_at = int(np.argmax(expected)) * w
        for n in (m - 1, m, m + 7, 0):
            tails = np.stack([buffer[live_at : live_at + n], buffer[:n]])
            want = [reference(tail) for tail in tails]
            assert list(stream.windows_are_live(tails)) == want
            assert [stream.window_is_live(tail) for tail in tails] == want

    def test_empty_stack(self, stream):
        out = stream.windows_are_live(
            np.zeros((0, stream.window_samples), dtype=np.complex128)
        )
        assert out.shape == (0,)
        assert out.dtype == np.bool_

    def test_rejects_1d(self, stream):
        with pytest.raises(ValueError):
            stream.windows_are_live(np.zeros(stream.window_samples))
