"""Background texture fields for synthetic scenes.

Texture level is the lever the paper's classifier keys on (Intra_SAD),
so each generator documents roughly where its output lands: "flat"
backgrounds give near-zero Intra_SAD, "detail" fields with many octaves
give the high-Intra_SAD regime where ACBM must fall back to full search
unless the predictive SAD is already near-minimal.
"""

from __future__ import annotations

import numpy as np

from repro.video.synthesis.noise import value_noise


def flat_field(height: int, width: int, level: float = 128.0) -> np.ndarray:
    """Uniform luma — the zero-texture extreme."""
    return np.full((height, width), float(level))


def gradient_field(
    height: int,
    width: int,
    low: float = 80.0,
    high: float = 180.0,
    axis: int = 1,
) -> np.ndarray:
    """Linear luma ramp along ``axis`` (0 = vertical, 1 = horizontal).

    Very low per-block Intra_SAD (a 16-wide block only spans a small
    luma range), mimicking the smooth studio backdrops of Miss America.
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    n = height if axis == 0 else width
    ramp = np.linspace(low, high, n)
    if axis == 0:
        return np.repeat(ramp[:, None], width, axis=1)
    return np.repeat(ramp[None, :], height, axis=0)


def noise_texture(
    height: int,
    width: int,
    seed: int,
    cell: int = 24,
    octaves: int = 3,
    amplitude: float = 60.0,
    base: float = 120.0,
    persistence: float = 0.5,
) -> np.ndarray:
    """Natural-looking texture: multi-octave value noise around ``base``.

    ``amplitude`` is the peak deviation; per-block Intra_SAD scales
    roughly linearly with it.  ``octaves >= 4`` with small ``cell`` and
    high ``persistence`` gives the fine high-frequency content of the
    Foreman wall (per-16x16-block Intra_SAD of several thousand).
    Output is clipped to the 8-bit luma range.
    """
    field = value_noise(
        height, width, cell=cell, octaves=octaves, persistence=persistence, seed=seed
    )
    return np.clip(base + amplitude * (field - 0.5) * 2.0, 0.0, 255.0)


def stripe_field(
    height: int,
    width: int,
    period: int = 12,
    low: float = 90.0,
    high: float = 170.0,
    axis: int = 1,
) -> np.ndarray:
    """Sinusoidal stripes — periodic texture that creates the multiple
    near-equal SAD minima where naive matchers pick false vectors."""
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    n = height if axis == 0 else width
    phase = 2.0 * np.pi * np.arange(n) / period
    wave = 0.5 * (1.0 + np.sin(phase))
    line = low + (high - low) * wave
    if axis == 0:
        return np.repeat(line[:, None], width, axis=1)
    return np.repeat(line[None, :], height, axis=0)
