"""Loss and objective quality metrics.

The training loss is a compressed complex MSE evaluated after reconstructing
the predicted spectrogram and transforming it again (so only consistent
spectrograms are scored), with both signals normalized by the target's active
level.  PESQ and DNSMOS are accepted as externally supplied scores; siSDR and
cepstral distance are computed here.
"""

from __future__ import annotations

import math

import numpy as np

from .datagen import _active_frames, _csv_float, _csv_rows, active_rms
from .dsp import StftConfig, istft, log_power_features, stft

SISDR_CAP_DB = 100.0
CEPSTRAL_ORDER = 24

# The paper's loss: magnitudes compressed by |X|**0.3, and the complex term
# blended in with weight 0.3.
LOSS_COMPRESSION = 0.3
LOSS_BLEND = 0.3


def level_normalize_pair(pred: np.ndarray, target: np.ndarray):
    """Divide both signals by the target's linear active level.

    Scaling both inputs by a common factor leaves the outputs unchanged.
    """
    norm = active_rms(target)
    return np.asarray(pred, dtype=np.float64) / norm, np.asarray(target, dtype=np.float64) / norm


def _compressed(spec: np.ndarray):
    mag = np.abs(spec)
    mag_c = mag**LOSS_COMPRESSION
    unit = np.divide(spec, mag, out=np.zeros_like(spec, dtype=complex), where=mag > 0)
    return mag_c, mag_c * unit


def ccmse_terms(spec_ref: np.ndarray, spec_est: np.ndarray):
    """The two raw sums of the compressed complex MSE.

    Returns:
        ``(magnitude_term, complex_term)``, each summed over all bins and
        frames.  Zero magnitudes compress to zero with a zero phase term.
    """
    spec_ref = np.asarray(spec_ref)
    spec_est = np.asarray(spec_est)
    if spec_ref.shape != spec_est.shape:
        raise ValueError(f"shape mismatch: {spec_ref.shape} vs {spec_est.shape}")
    mag_r, comp_r = _compressed(spec_ref)
    mag_e, comp_e = _compressed(spec_est)
    mag_term = float(np.sum((mag_r - mag_e) ** 2))
    complex_term = float(np.sum(np.abs(comp_r - comp_e) ** 2))
    return mag_term, complex_term


def loss_ccmse(spec_ref: np.ndarray, spec_est: np.ndarray) -> float:
    """Compressed complex MSE blending magnitude-only and phase-aware terms."""
    mag_term, complex_term = ccmse_terms(spec_ref, spec_est)
    return (1.0 - LOSS_BLEND) * mag_term + LOSS_BLEND * complex_term


def training_loss(pred_spec: np.ndarray, target_time: np.ndarray,
                  stft_cfg: StftConfig = StftConfig()) -> float:
    """Loss of a predicted spectrogram against a time-domain target.

    The prediction is reconstructed and re-transformed (consistency path),
    both signals are normalized by the target's active level, then scored
    with :func:`loss_ccmse`.
    """
    recon = istft(np.asarray(pred_spec), stft_cfg)
    target_time = np.asarray(target_time, dtype=np.float64)
    n = min(len(recon), len(target_time) // stft_cfg.hop_len * stft_cfg.hop_len)
    pred_n, target_n = level_normalize_pair(recon[:n], target_time[:n])
    return loss_ccmse(stft(target_n, stft_cfg), stft(pred_n, stft_cfg))


def si_sdr(est: np.ndarray, ref: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, capped at +/-100.

    The reference is scaled to the least-squares projection of the estimate;
    the ratio of projection energy to residual energy gives the score.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy <= 0.0:
        raise ValueError("silent reference")
    proj = (float(np.dot(est, ref)) / ref_energy) * ref
    target_energy = float(np.dot(proj, proj))
    residual = est - proj
    residual_energy = float(np.dot(residual, residual))
    if residual_energy == 0.0:
        return SISDR_CAP_DB
    if target_energy == 0.0:
        return -SISDR_CAP_DB
    value = 10.0 * math.log10(target_energy / residual_energy)
    return float(np.clip(value, -SISDR_CAP_DB, SISDR_CAP_DB))


def _log_spectra(samples: np.ndarray, stft_cfg: StftConfig):
    spec = stft(samples, stft_cfg)
    return 0.5 * log_power_features(spec), (np.abs(spec) ** 2).sum(axis=1)


def cepstral_distance(est: np.ndarray, ref: np.ndarray,
                      stft_cfg: StftConfig = StftConfig()) -> float:
    """Mean truncated-cepstrum distance in dB over jointly active frames.

    Uses real cepstra of orders 1..24 (``CEPSTRAL_ORDER``) from floored log
    magnitude spectra; order 0 is excluded, which makes the measure
    gain-invariant.  Frames must be active (within 40 dB of the loudest) in
    both signals to count.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    log_e, energy_e = _log_spectra(est, stft_cfg)
    log_r, energy_r = _log_spectra(ref, stft_cfg)
    if log_e.shape != log_r.shape:
        raise ValueError(f"signals disagree on frame count: {log_e.shape} vs {log_r.shape}")
    active = _active_frames(energy_e) & _active_frames(energy_r)
    if not active.any():
        raise ValueError("no jointly active frames")

    ceps_e = np.fft.irfft(log_e[active], n=stft_cfg.fft_len, axis=1)[:, 1 : CEPSTRAL_ORDER + 1]
    ceps_r = np.fft.irfft(log_r[active], n=stft_cfg.fft_len, axis=1)[:, 1 : CEPSTRAL_ORDER + 1]
    diff = ceps_e - ceps_r
    per_frame = (10.0 / math.log(10.0)) * np.sqrt(2.0 * np.sum(diff * diff, axis=1))
    return float(per_frame.mean())


def validation_q(pesq: float, sisdr: float, cd: float) -> float:
    """Model-selection criterion: PESQ + 0.2 * siSDR - CD."""
    return pesq + 0.2 * sisdr - cd


def read_scores_file(path) -> dict[str, dict[str, float]]:
    """Read externally supplied scores: delimited columns id, pesq[, dnsmos].

    Raises:
        ValueError: naming the file, line and column of a score that is not
            a finite float, the file and both lines of a repeated id, or a
            missing id or pesq column.
    """
    out: dict[str, dict[str, float]] = {}
    for line, row in _csv_rows(path, ("id", "pesq"), "id"):
        rec = {"pesq": _csv_float(path, line, row, "pesq")}
        if row.get("dnsmos"):
            rec["dnsmos"] = _csv_float(path, line, row, "dnsmos")
        out[row["id"].strip()] = rec
    return out
