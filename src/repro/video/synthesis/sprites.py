"""Moving scene elements (heads, hands, balls, paddles).

A :class:`Sprite` owns a texture patch, a soft alpha mask and a
per-frame world-coordinate trajectory; rendering alpha-composites it
onto the world plane at a (float) subpixel position.  Trajectories are
plain callables ``frame_index -> (y, x)`` so tests can use exact linear
paths while the sequence presets use eased or oscillating ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.video.synthesis.motion_models import translate

Trajectory = Callable[[int], tuple[float, float]]


def ellipse_mask(height: int, width: int, softness: float = 1.5) -> np.ndarray:
    """Alpha mask of an axis-aligned ellipse inscribed in the patch.

    ``softness`` is the width in pixels of the antialiased edge ramp;
    soft edges keep synthetic frames free of the single-pixel staircase
    artifacts that would inflate Intra_SAD along every contour.
    """
    if softness <= 0:
        raise ValueError(f"softness must be positive, got {softness}")
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    ry, rx = height / 2.0, width / 2.0
    ys = (np.arange(height)[:, None] - cy) / ry
    xs = (np.arange(width)[None, :] - cx) / rx
    # Radial distance in normalized ellipse coordinates; 1.0 = boundary.
    r = np.sqrt(ys * ys + xs * xs)
    edge = softness / min(ry, rx)
    return np.clip((1.0 - r) / edge, 0.0, 1.0)


def rect_mask(height: int, width: int, softness: float = 1.0) -> np.ndarray:
    """Alpha mask of a soft-edged rectangle filling the patch."""
    if softness <= 0:
        raise ValueError(f"softness must be positive, got {softness}")
    ys = np.minimum(np.arange(height), np.arange(height)[::-1])[:, None]
    xs = np.minimum(np.arange(width), np.arange(width)[::-1])[None, :]
    d = np.minimum(ys, xs).astype(np.float64)
    return np.clip((d + 1.0) / softness, 0.0, 1.0)


def disc_mask(diameter: int, softness: float = 1.0) -> np.ndarray:
    """Alpha mask of a circle (table-tennis ball)."""
    return ellipse_mask(diameter, diameter, softness=softness)


@dataclass
class Sprite:
    """A textured patch composited along a trajectory.

    Parameters
    ----------
    texture:
        Float luma patch, shape ``(h, w)``.
    mask:
        Alpha in [0, 1], same shape as ``texture``.
    trajectory:
        ``frame_index -> (world_y, world_x)`` of the patch top-left.
    chroma:
        Optional (cb_offset, cr_offset) tint applied where the sprite
        is opaque, in signed chroma units.
    """

    texture: np.ndarray
    mask: np.ndarray
    trajectory: Trajectory
    chroma: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        self.texture = np.asarray(self.texture, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.texture.shape != self.mask.shape:
            raise ValueError(
                f"texture {self.texture.shape} and mask {self.mask.shape} differ"
            )
        if self.mask.min() < 0.0 or self.mask.max() > 1.0:
            raise ValueError("mask values must lie in [0, 1]")

    def position(self, frame_index: int) -> tuple[float, float]:
        return self.trajectory(frame_index)

    def render_onto(self, world: np.ndarray, frame_index: int) -> None:
        """Composite the sprite onto ``world`` (float, modified in place)
        at its frame-``frame_index`` position with subpixel accuracy."""
        y, x = self.trajectory(frame_index)
        h, w = self.texture.shape
        iy, ix = int(np.floor(y)), int(np.floor(x))
        fy, fx = y - iy, x - ix
        # Shift texture+mask by the fractional part, then blit at the
        # integer cell.  One extra row/col absorbs the spill-over.
        tex = np.zeros((h + 1, w + 1))
        msk = np.zeros((h + 1, w + 1))
        tex[:h, :w] = self.texture
        msk[:h, :w] = self.mask
        tex = translate(tex, fy, fx)
        msk = translate(msk, fy, fx)
        # Clip the blit rectangle against the world bounds.
        wy0, wx0 = max(iy, 0), max(ix, 0)
        wy1 = min(iy + h + 1, world.shape[0])
        wx1 = min(ix + w + 1, world.shape[1])
        if wy1 <= wy0 or wx1 <= wx0:
            return
        sy0, sx0 = wy0 - iy, wx0 - ix
        sy1, sx1 = sy0 + (wy1 - wy0), sx0 + (wx1 - wx0)
        region = world[wy0:wy1, wx0:wx1]
        a = msk[sy0:sy1, sx0:sx1]
        region *= 1.0 - a
        region += a * tex[sy0:sy1, sx0:sx1]


# -- trajectory builders ----------------------------------------------


def linear_path(start: tuple[float, float], velocity: tuple[float, float]) -> Trajectory:
    """Constant-velocity straight line."""
    sy, sx = start
    vy, vx = velocity

    def path(i: int) -> tuple[float, float]:
        return (sy + vy * i, sx + vx * i)

    return path


def sway_path(
    centre: tuple[float, float],
    amplitude: tuple[float, float],
    period: float,
    phase: float = 0.0,
) -> Trajectory:
    """Sinusoidal sway around a fixed centre (talking heads)."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    cy, cx = centre
    ay, ax = amplitude

    def path(i: int) -> tuple[float, float]:
        t = 2.0 * np.pi * i / period + phase
        return (cy + ay * np.sin(t), cx + ax * np.sin(t + np.pi / 3.0))

    return path


def bounce_path(
    start: tuple[float, float],
    velocity: tuple[float, float],
    bounds: tuple[float, float, float, float],
) -> Trajectory:
    """Ballistic bounce inside ``(y_min, y_max, x_min, x_max)`` —
    large per-frame displacement with abrupt reversals (the ball in the
    Table sequence), precisely the motion that breaks predictors."""
    y_min, y_max, x_min, x_max = bounds
    if y_min >= y_max or x_min >= x_max:
        raise ValueError(f"degenerate bounce bounds {bounds}")

    def reflect(value: float, lo: float, hi: float) -> float:
        span = hi - lo
        v = (value - lo) % (2.0 * span)
        return lo + (v if v <= span else 2.0 * span - v)

    sy, sx = start
    vy, vx = velocity

    def path(i: int) -> tuple[float, float]:
        return (
            reflect(sy + vy * i, y_min, y_max),
            reflect(sx + vx * i, x_min, x_max),
        )

    return path
