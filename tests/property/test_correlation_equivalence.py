"""Property-based equivalence: batched FFT kernel vs. the direct loop.

The batched kernel (:mod:`repro.utils.correlation_batch`) promises to be
*numerically interchangeable* with its direct per-template backend -- same
scores to FFT rounding, same detections, same candidate alignments.
These properties pin that promise over generated input spaces instead
of hand-picked examples:

- raw kernel scores agree within 1e-9 for float64 and complex128
  signals, normalised and not, 1-10 stacked templates;
- the direct backend reproduces a textbook single-template reference
  (``np.convolve`` plus cumulative-sum energy normalisation)
  bit-for-bit;
- on synthesized collisions (1-10 tags, samples_per_chip in {1, 2, 4})
  :class:`UserDetector` reports identical user sets, identical offsets
  and identical candidate-alignment sets under either backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes import twonc_codes
from repro.receiver.user_detection import UserDetector
from repro.sim.collision import CollisionScenario, simulate_round
from repro.tag.framing import FrameFormat
from repro.tag.tag import Tag
from repro.utils.correlation import guard_denominator
from repro.utils.correlation_batch import TemplateBank, sliding_correlation_batch

SCORE_TOL = 1e-9


def _reference_correlation(signal: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Normalised sliding correlation of one template, written out."""
    m = template.size
    mags = np.abs(np.convolve(signal, np.conj(template[::-1]), mode="valid"))
    csum = np.concatenate(([0.0], np.cumsum(np.abs(signal) ** 2)))
    window_energy = guard_denominator(csum[m:] - csum[:-m])
    return mags / guard_denominator(np.sqrt(window_energy) * np.linalg.norm(template))


def _detect_with(name: str, detector: UserDetector, iq: np.ndarray):
    """``detector.detect(iq)`` with every bank correlation forced onto
    backend *name* (``detect`` itself always runs the default fft)."""
    correlate = TemplateBank.correlate
    calls = []

    def forced(self, window, normalize=True, backend="fft"):
        calls.append(name)
        return correlate(self, window, normalize=normalize, backend=name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TemplateBank, "correlate", forced)
        detections = {d.user_id: d for d in detector.detect(iq)}
    assert calls, "detect() no longer correlates through TemplateBank.correlate"
    return detections


def _collision(n_tags: int, samples_per_chip: int, seed: int):
    """A clean synthesized *n_tags*-collision round."""
    rng = np.random.default_rng(seed)
    fmt = FrameFormat()
    codes = twonc_codes(n_tags, 64)
    tags = [Tag(i, codes[i], fmt=fmt) for i in range(n_tags)]
    scenario = CollisionScenario(
        tags=tags,
        amplitudes=[1.0 + 0.0j] * n_tags,
        samples_per_chip=samples_per_chip,
    )
    payloads = {
        i: rng.integers(0, 256, size=2).astype(np.uint8).tobytes() for i in range(n_tags)
    }
    iq, _truth = simulate_round(scenario, payloads, rng=rng)
    return np.asarray(iq), {i: codes[i] for i in range(n_tags)}, fmt


class TestKernelEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_templates=st.integers(1, 10),
        normalize=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_fft_scores_match_direct(self, dtype, seed, n_templates, normalize):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(8, 96))
        n = int(rng.integers(m, 2048))
        signal = rng.normal(size=n)
        if dtype is np.complex128:
            signal = signal + 1j * rng.normal(size=n)
        assert np.asarray(signal).dtype == dtype
        templates = np.sign(rng.normal(size=(n_templates, m))) + 0.0
        direct = sliding_correlation_batch(signal, templates, normalize=normalize, backend="direct")
        fft = sliding_correlation_batch(signal, templates, normalize=normalize, backend="fft")
        assert fft.shape == direct.shape
        if normalize:
            # Normalised scores live in [0, ~1]: absolute tolerance.
            assert float(np.abs(fft - direct).max()) < SCORE_TOL
        else:
            scale = max(float(np.abs(direct).max()), 1.0)
            assert float(np.abs(fft - direct).max()) / scale < SCORE_TOL

    @given(seed=st.integers(0, 2**32 - 1), n_templates=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_direct_backend_is_bitwise_legacy(self, seed, n_templates):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 64))
        n = int(rng.integers(m, 1024))
        signal = rng.normal(size=n) + 1j * rng.normal(size=n)
        templates = np.sign(rng.normal(size=(n_templates, m))) + 0.0
        batch = sliding_correlation_batch(signal, templates, backend="direct")
        for row, template in enumerate(templates):
            assert np.array_equal(batch[row], _reference_correlation(signal, template))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_argmax_offsets_agree(self, seed):
        """The peak alignment of every row is the same under either
        backend (a 1e-9 score agreement is useless if the *offset*
        moved)."""
        rng = np.random.default_rng(seed)
        m = 32
        templates = np.sign(rng.normal(size=(5, m))) + 0.0
        # Embed each template in its own 300-sample stratum: distinct
        # offsets alone allow plants to overlap and corrupt each other,
        # which would move a row's global peak off its planted copy.
        signal = 0.05 * rng.normal(size=1500)
        offsets = rng.permutation(5) * 300 + rng.integers(0, 300 - m, size=5)
        for row, k in enumerate(offsets):
            signal[k : k + m] += templates[row]
        direct = sliding_correlation_batch(signal, templates, backend="direct")
        fft = sliding_correlation_batch(signal, templates, backend="fft")
        assert np.array_equal(np.argmax(direct, axis=1), np.argmax(fft, axis=1))
        assert np.array_equal(np.argmax(direct, axis=1), np.asarray(offsets))


class TestDetectorEquivalence:
    @pytest.mark.parametrize("samples_per_chip", [1, 2, 4])
    @given(seed=st.integers(0, 10_000), n_tags=st.integers(1, 10))
    @settings(max_examples=6, deadline=None)
    def test_detections_identical_across_backends(self, samples_per_chip, seed, n_tags):
        iq, code_map, fmt = _collision(n_tags, samples_per_chip, seed)
        detector = UserDetector(code_map, fmt, samples_per_chip=samples_per_chip)

        rows_direct = dict(detector.correlation_rows(iq, backend="direct"))
        rows_fft = dict(detector.correlation_rows(iq, backend="fft"))
        assert rows_direct.keys() == rows_fft.keys() == code_map.keys()
        for uid in rows_direct:
            assert float(np.abs(rows_direct[uid] - rows_fft[uid]).max()) < SCORE_TOL

        by_direct = _detect_with("direct", detector, iq)
        by_fft = _detect_with("fft", detector, iq)
        assert by_direct.keys() == by_fft.keys()
        for uid, a in by_direct.items():
            b = by_fft[uid]
            assert a.offset == b.offset
            assert a.score == pytest.approx(b.score, abs=SCORE_TOL)
            # Candidate alignment sets are identical, in order.
            assert [c[0] for c in a.candidates] == [c[0] for c in b.candidates]
            for (_, sa, ha), (_, sb, hb) in zip(a.candidates, b.candidates):
                assert sa == pytest.approx(sb, abs=SCORE_TOL)
                assert ha == pytest.approx(hb, abs=SCORE_TOL)
