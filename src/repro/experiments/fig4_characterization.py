"""The Fig. 3 experimental rig and Fig. 4 characterization data.

Methodology (paper Section 3.1): build a ten-frame sequence from one
reference frame by applying nine *known* global motion vectors, run
FSBM over consecutive frame pairs, and classify every 16x16 block by
the error between the FSBM vector and the ground truth.  For each
block, record Intra_SAD and SAD_deviation; Fig. 4 scatters those per
error class.

Here the known global motion is produced exactly: the frames are
camera windows cropped at integer offsets from one large textured
world plane, so inner content translates by precisely the commanded
displacement (no border wrap artifacts).

The paper's two conclusions become checkable properties of the result:

1. blocks with true vectors (error = 0) have *higher* mean Intra_SAD
   and SAD_deviation than erroneous blocks;
2. erroneous vectors concentrate on low-texture blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.analysis.reporting import format_table
from repro.me.engine import frame_sad_surfaces, sad_deviations, select_minima
from repro.me.metrics import block_activity_map
from repro.video.frame import QCIF, FrameGeometry
from repro.video.synthesis.texture import (
    flat_field,
    gradient_field,
    noise_texture,
    stripe_field,
)

#: The nine commanded global displacements (dx, dy) in pixels, mixing
#: magnitudes and directions inside the ±15 window as the rig requires.
DEFAULT_GLOBAL_MOTIONS: tuple[tuple[int, int], ...] = (
    (1, 0),
    (0, -1),
    (-2, 1),
    (3, 2),
    (-4, -3),
    (5, -2),
    (-7, 4),
    (8, 6),
    (-10, -8),
)


def default_world(geometry: FrameGeometry = QCIF, margin: int = 32, seed: int = 0) -> np.ndarray:
    """A world plane with all four texture regimes side by side —
    flat, gradient, stripes and fine noise — so both the high- and
    low-Intra_SAD populations of Fig. 4 appear."""
    h = geometry.height + 2 * margin
    w = geometry.width + 2 * margin
    half_h, half_w = h // 2, w - w // 2
    top_left = flat_field(h - h // 2, w // 2, level=120.0)
    top_right = gradient_field(h - h // 2, half_w, low=70.0, high=190.0, axis=1)
    bottom_left = stripe_field(h // 2, w // 2, period=14, low=80.0, high=180.0)
    bottom_right = noise_texture(h // 2, half_w, seed=seed + 7, cell=10, octaves=4, amplitude=55.0)
    world = np.empty((h, w), dtype=np.float64)
    world[: h - h // 2, : w // 2] = top_left
    world[: h - h // 2, w // 2 :] = top_right
    world[h - h // 2 :, : w // 2] = bottom_left
    world[h - h // 2 :, w // 2 :] = bottom_right
    # Mild global blur-free noise so "flat" is near-flat, not exactly
    # flat (real sensors never are); keeps SADs strictly positive.
    rng = np.random.default_rng(seed + 99)
    world += rng.normal(0.0, 0.7, size=world.shape)
    return np.clip(world, 0.0, 255.0)


@dataclass(frozen=True)
class BlockObservation:
    """One dot of the Fig. 4 scatter."""

    frame_pair: int
    mb_row: int
    mb_col: int
    error_class: int  # Chebyshev pixels, capped at 5 ("error >= 5")
    intra_sad: float
    sad_deviation: int
    sad_min: int


@dataclass
class Fig4Result:
    """All block observations plus per-class aggregates."""

    observations: list[BlockObservation] = field(default_factory=list)

    def classes(self) -> dict[int, list[BlockObservation]]:
        grouped: dict[int, list[BlockObservation]] = {}
        for obs in self.observations:
            grouped.setdefault(obs.error_class, []).append(obs)
        return grouped

    def class_counts(self) -> dict[int, int]:
        return {cls: len(obs) for cls, obs in self.classes().items()}

    def class_means(self) -> dict[int, tuple[float, float]]:
        """error class → (mean Intra_SAD, mean SAD_deviation)."""
        return {
            cls: (
                float(np.mean([o.intra_sad for o in obs])),
                float(np.mean([o.sad_deviation for o in obs])),
            )
            for cls, obs in self.classes().items()
        }

    def true_fraction(self) -> float:
        """Fraction of blocks whose FSBM vector matched the commanded
        global motion exactly."""
        if not self.observations:
            raise ValueError("no observations recorded")
        return self.class_counts().get(0, 0) / len(self.observations)

    def as_text(self) -> str:
        rows = []
        means = self.class_means()
        counts = self.class_counts()
        for cls in sorted(counts):
            label = f"error>={cls}" if cls >= 5 else f"error={cls}"
            mean_isad, mean_dev = means[cls]
            rows.append((label, counts[cls], mean_isad, mean_dev))
        return format_table(
            ["class", "blocks", "mean Intra_SAD", "mean SAD_deviation"],
            rows,
            title="Fig. 4 characterization (per error class)",
            float_format="{:.0f}",
        )


def render_rig_frames(
    motions: tuple[tuple[int, int], ...],
    geometry: FrameGeometry = QCIF,
    p: int = 15,
    seed: int = 0,
    world: np.ndarray | None = None,
) -> list[np.ndarray]:
    """The rig's frame stack: camera windows cropped from the world
    plane at the accumulated commanded offsets.

    Camera offsets start centred and accumulate the commanded
    displacements.  Moving the window by (+dy, +dx) means the current
    frame's content matches the previous frame at displacement
    (+dx, +dy) — i.e. the measured motion vector equals the command
    (paper Fig. 1 convention: best match at (x+u, y+v)).
    """
    if any(max(abs(dx), abs(dy)) > p for dx, dy in motions):
        raise ValueError(f"commanded motions must stay within +-{p}")
    offsets = [(0, 0)]
    for dx, dy in motions:
        oy, ox = offsets[-1]
        offsets.append((oy + dy, ox + dx))
    max_oy = max(abs(oy) for oy, _ in offsets)
    max_ox = max(abs(ox) for _, ox in offsets)
    margin = max(max_oy, max_ox) + p + 2
    if world is None:
        world = default_world(geometry, margin=margin, seed=seed)
    wh, ww = world.shape
    if wh < geometry.height + 2 * margin or ww < geometry.width + 2 * margin:
        raise ValueError(
            f"world {world.shape} too small for margin {margin} around "
            f"{geometry.width}x{geometry.height}"
        )
    centre_y = (wh - geometry.height) // 2
    centre_x = (ww - geometry.width) // 2
    frames = []
    for oy, ox in offsets:
        window = world[
            centre_y + oy : centre_y + oy + geometry.height,
            centre_x + ox : centre_x + ox + geometry.width,
        ]
        frames.append(np.clip(np.rint(window), 0, 255).astype(np.uint8))
    return frames


@lru_cache(maxsize=4)
def rig_frames_cached(
    motions: tuple[tuple[int, int], ...],
    geometry: FrameGeometry,
    p: int,
    seed: int,
) -> list[np.ndarray]:
    """Memoized :func:`render_rig_frames` for the default world — a
    worker executing several pairs of one rig (the
    :class:`repro.parallel.Fig4PairJob` identity fields are the key)
    renders the frame stack once per process."""
    return render_rig_frames(tuple(motions), geometry, p=p, seed=seed)


def observe_pair(
    frames: list[np.ndarray],
    pair_index: int,
    motion: tuple[int, int],
    p: int = 15,
) -> list[BlockObservation]:
    """Every block's Fig. 4 observation for one consecutive frame pair
    of a full rig stack.

    One engine pass per frame pair: every block's full SAD surface
    (also the backing store of SAD_deviation), the FSBM minima with
    the standard tie-break, and the Intra_SAD activity map —
    block-for-block identical to running full_search_sads /
    select_minimum / sad_deviation per macroblock.
    """
    reference, current = frames[pair_index], frames[pair_index + 1]
    dx, dy = motion
    surfaces = frame_sad_surfaces(current, reference, p)
    best_dx, best_dy, sad_mins, _ = select_minima(surfaces)
    deviations = sad_deviations(surfaces)
    activity = block_activity_map(current)
    error_classes = np.minimum(np.maximum(abs(best_dx - dx), abs(best_dy - dy)), 5)
    mb_rows, mb_cols = activity.shape
    observations = []
    for r in range(mb_rows):
        for c in range(mb_cols):
            observations.append(
                BlockObservation(
                    frame_pair=pair_index,
                    mb_row=r,
                    mb_col=c,
                    error_class=int(error_classes[r, c]),
                    intra_sad=float(activity[r, c]),
                    sad_deviation=int(deviations[r, c]),
                    sad_min=int(sad_mins[r, c]),
                )
            )
    return observations


def run_fig4(
    world: np.ndarray | None = None,
    motions: tuple[tuple[int, int], ...] = DEFAULT_GLOBAL_MOTIONS,
    geometry: FrameGeometry = QCIF,
    p: int = 15,
    seed: int = 0,
    jobs: int = 1,
    progress=None,
) -> Fig4Result:
    """Run the Fig. 3 rig and return the Fig. 4 observations.

    Parameters
    ----------
    world:
        Optional world plane; defaults to :func:`default_world` with a
        margin able to absorb the cumulative commanded displacement.
        An explicit world is processed in-process (arrays are not part
        of the hashable job identity), so ``jobs`` then has no effect.
    motions:
        The nine known (dx, dy) global displacements between the ten
        consecutive frames.
    jobs:
        Worker processes sharding the frame pairs; observations merge
        in pair order, so the result is identical for any value.
    progress:
        Optional per-pair progress callable.
    """
    motions = tuple(motions)
    result = Fig4Result()
    if world is not None:
        frames = render_rig_frames(motions, geometry, p=p, seed=seed, world=world)
        for pair_index, motion in enumerate(motions):
            if progress is not None:
                progress(f"fig4 pair {pair_index}")
            result.observations.extend(
                observe_pair(frames, pair_index, motion, p=p)
            )
        return result

    from repro.parallel import Fig4PairJob, run_jobs

    # Fail fast (and in this process) on bad commands; the default
    # world always satisfies the rig's margin requirement.
    if any(max(abs(dx), abs(dy)) > p for dx, dy in motions):
        raise ValueError(f"commanded motions must stay within +-{p}")
    pair_jobs = [
        Fig4PairJob(
            pair_index=i,
            motions=motions,
            geometry=geometry,
            p=p,
            seed=seed,
        )
        for i in range(len(motions))
    ]
    for observations in run_jobs(pair_jobs, workers=jobs, base_seed=seed, progress=progress):
        result.observations.extend(observations)
    return result
