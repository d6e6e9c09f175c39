"""Independent reference values and output parsers for the benchmark checks.

Nothing here calls into demixeval: the formulas are restated from the README
in plain numpy (and scipy for correlations), so a wrong result in the
package cannot also be wrong in its own check.
"""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np

EPSILON = 1e-7  # the CLI's default stabilizer
ENERGY_FLOOR = 1e-12
DB_CLAMP = 120.0
REL_TOL = 1e-5  # the CLI prints 6 significant digits


def close(expected, printed: str, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    """True when a printed cell matches the expected value (None means empty)."""
    if expected is None or printed == "":
        return expected is None and printed == ""
    value = float(printed)
    return abs(value - expected) <= rel * max(abs(value), abs(expected)) + abs_tol


def _energy(x: np.ndarray) -> float:
    flat = x.ravel()
    return float(np.dot(flat, flat))


def sdr(ref: np.ndarray, est: np.ndarray, repeats: int = 1) -> float:
    """Stabilized global SDR, README formula, of signals that repeat the
    given segments `repeats` times."""
    signal = repeats * _energy(ref)
    noise = repeats * _energy(ref - est)
    return 10.0 * math.log10((signal + EPSILON) / (noise + EPSILON))


def song_mean(values: dict, silent: set) -> float:
    """Per-song mean over the stems that are not declared silent."""
    kept = [value for stem, value in values.items() if stem not in silent]
    return sum(kept) / len(kept)


# --- metric suite -----------------------------------------------------------

def _frames(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """(channels, n_frames, frame) view of full frames at stride hop."""
    view = np.lib.stride_tricks.sliding_window_view(x, frame, axis=1)[:, ::hop, :]
    return view[:, : (x.shape[1] - frame) // hop + 1, :]


def _per_frame(ref: np.ndarray, est: np.ndarray, frame: int, hop: int) -> dict:
    """Per-frame values of each base metric, silent and undefined frames dropped."""
    r = _frames(ref, frame, hop)
    e = _frames(est, frame, hop)
    diff = r - e
    signal = np.einsum("cfn,cfn->f", r, r)
    noise = np.einsum("cfn,cfn->f", diff, diff)
    cross = np.einsum("cfn,cfn->f", e, r)
    keep = signal > ENERGY_FLOOR
    count = r.shape[0] * r.shape[2]
    values = {
        "sdr": 10.0 * np.log10((signal + EPSILON) / (noise + EPSILON)),
        "mae": np.abs(diff).sum(axis=(0, 2)) / count,
        "mse": noise / count,
    }
    si, bss = [], []
    for index in np.flatnonzero(keep):
        si.append(_si_sdr(r[:, index], e[:, index], signal[index], cross[index]))
        bss.append(_bss(signal[index], noise[index]))
    out = {name: list(v[keep]) for name, v in values.items()}
    out["si_sdr"] = si
    out["bss"] = bss
    return out


def _si_sdr(ref, est, energy: float, cross: float):
    target = (cross / energy) * ref
    residual = est - target
    target_energy = _energy(target)
    residual_energy = _energy(residual)
    if residual_energy == 0.0:
        return DB_CLAMP
    if target_energy == 0.0:
        return -DB_CLAMP
    return max(-DB_CLAMP, min(DB_CLAMP, 10.0 * math.log10(target_energy / residual_energy)))


def _bss(signal: float, noise: float):
    if noise == 0.0:
        return DB_CLAMP
    return max(-DB_CLAMP, min(DB_CLAMP, 10.0 * math.log10(signal / noise)))


def suite(ref: np.ndarray, est: np.ndarray, rate: int) -> dict:
    """Expected `suite` output: {metric name: value or None when absent}."""
    signal = _energy(ref)
    noise = _energy(ref - est)
    out = {
        "global_sdr": 10.0 * math.log10((signal + EPSILON) / (noise + EPSILON)),
        "global_mae": float(np.mean(np.abs(ref - est))),
        "global_mse": noise / ref.size,
        "global_si_sdr": None,
        "bsseval_v3_sdr": None,
    }
    if signal > ENERGY_FLOOR:
        out["global_si_sdr"] = _si_sdr(ref.ravel(), est.ravel(), signal, float(np.dot(est.ravel(), ref.ravel())))
    if signal != 0.0:
        out["bsseval_v3_sdr"] = _bss(signal, noise)
    second = _per_frame(ref, est, rate, rate)
    long = _per_frame(ref, est, 30 * rate, 15 * rate) if ref.shape[1] >= 30 * rate else {"bss": []}
    families = {
        "framewise_sdr": second["sdr"],
        "framewise_mae": second["mae"],
        "framewise_mse": second["mse"],
        "framewise_si_sdr": second["si_sdr"],
        "bsseval_v3_framewise_sdr": long["bss"],
        "bsseval_v4_framewise_sdr": second["bss"],
    }
    for name, values in families.items():
        out[f"{name}_mean"] = float(sum(values) / len(values)) if values else None
        out[f"{name}_median"] = float(np.median(values)) if values else None
    return out


# --- correlations -----------------------------------------------------------

def correlations(rows: list, kind: str) -> dict:
    """{(i, j): value or None} over co-present rows, via scipy.stats."""
    from scipy import stats

    columns = len(rows[0])
    data = np.array([[np.nan if cell is None else cell for cell in row] for row in rows])
    correlate = stats.pearsonr if kind == "pearson" else stats.spearmanr
    out = {}
    for i in range(columns):
        for j in range(i, columns):
            mask = ~np.isnan(data[:, i]) & ~np.isnan(data[:, j])
            x, y = data[mask, i], data[mask, j]
            value = None
            if len(x) >= 2 and np.ptp(x) > 0 and np.ptp(y) > 0:
                value = float(correlate(x, y)[0])
            out[(i, j)] = out[(j, i)] = value
    return out


# --- parsers ----------------------------------------------------------------

def csv_rows(stdout: str) -> list:
    """CSV records of a CLI report: config lines skipped, stops at a blank line."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            break
        lines.append(line)
    return list(csv.reader(io.StringIO("\n".join(lines))))


def read_float_wav(path) -> np.ndarray:
    """Samples of an IEEE float32 WAVE file as (channels, frames) float64."""
    raw = open(path, "rb").read()
    pos, channels, data = 12, None, None
    while pos + 8 <= len(raw):
        chunk, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        if chunk == b"fmt ":
            tag, channels = struct.unpack_from("<HH", raw, pos + 8)
            if tag != 3:
                raise ValueError(f"{path}: format tag {tag}, expected float")
        elif chunk == b"data":
            data = np.frombuffer(raw, dtype="<f4", count=size // 4, offset=pos + 8)
        pos += 8 + size + (size & 1)
    return data.reshape(-1, channels).T.astype(np.float64)
