"""Spectral kernels — numpy periodogram / band power / SNR / entropy.

Re-statement of the reference's frequency-domain aggregates
(/root/reference/LONG_features.py:121-191).  scipy is not available, so the
periodogram is implemented directly: one-sided power spectral density with a
boxcar window, matching ``scipy.signal.periodogram`` defaults
(``Pxx = |rfft(x)|^2 / (fs * n)``, interior bins doubled).
"""

from __future__ import annotations

import numpy as np

DEFAULT_BANDS = (0.0, 1.5, 4.0, 8.0, 20.0, 100.0, 150.0)


def periodogram(x: np.ndarray, fs: float = 300.0, nfft: int | None = None):
    """One-sided PSD (freqs, Pxx), scipy.signal.periodogram semantics."""
    n = x.size
    if n == 0:
        return np.array([0.0]), np.array([0.0])
    if nfft is None or nfft < n:
        nfft = n if nfft is None else nfft
    X = np.fft.rfft(x, n=nfft)
    pxx = (np.abs(X) ** 2) / (fs * n)
    if nfft % 2 == 0:
        pxx[1:-1] *= 2
    else:
        pxx[1:] *= 2
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    return freqs, pxx


def band_power(x: np.ndarray, fs: float = 300.0, bands=DEFAULT_BANDS) -> np.ndarray:
    """Summed PSD per band [b_i, b_{i+1}).

    Reference ``LongFFTBandPower`` (/root/reference/LONG_features.py:121-138);
    note the reference composition calls this THREE times
    (/root/reference/LONG_features.py:272-276) — callers replicate that.
    """
    freqs, pxx = periodogram(x, fs)
    out = np.zeros(len(bands) - 1)
    for i in range(len(bands) - 1):
        m = (freqs >= bands[i]) & (freqs < bands[i + 1])
        out[i] = pxx[m].sum()
    return out


def fft_power(x: np.ndarray, fs: float = 300.0, nfft: int = 4500) -> float:
    """Total periodogram power (/root/reference/LONG_features.py:140-151)."""
    _, pxx = periodogram(x, fs, nfft=max(nfft, x.size))
    return float(pxx.sum())


def snr_low_high(x: np.ndarray, fs: float = 300.0, split_hz: float = 5.0) -> float:
    """power(<split)/power(>=split) (/root/reference/LONG_features.py:173-191)."""
    freqs, pxx = periodogram(x, fs)
    hi = pxx[freqs >= split_hz].sum()
    lo = pxx[freqs < split_hz].sum()
    return float(lo / hi) if hi > 0 else 0.0


def spectrogram_tiles(x: np.ndarray, fs: float = 300.0, nperseg: int = 64, noverlap: int = 32) -> np.ndarray:
    """log-power spectrogram tile (n_bins × n_frames).

    Reference ``getSpecSet`` (/root/reference/challenge2020/preprocess/preprocess-300hz.py:254-269).
    Frames are boxcar-windowed periodograms of hops; log10(p + 1e-12).
    """
    step = nperseg - noverlap
    if x.size < nperseg:
        x = np.pad(x, (0, nperseg - x.size))
    n_frames = 1 + (x.size - nperseg) // step
    idx = np.arange(nperseg)[None, :] + step * np.arange(n_frames)[:, None]
    frames = x[idx]
    X = np.fft.rfft(frames, axis=1)
    p = (np.abs(X) ** 2) / (fs * nperseg)
    return np.log10(p.T + 1e-12)
