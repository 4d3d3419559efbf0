"""Shared experiment configuration.

Defaults mirror the paper's setup — QCIF, p = 15, half-pel, Qp sweep
{30, 28, …, 16}, the four test sequences at 30 and 10 fps, α=1000,
β=8, γ=¼ — with knobs (frame count, seed) for fast CI runs versus full
benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.parameters import ACBMParameters
from repro.me.engine.kernels import check_search_envelope
from repro.video.frame import QCIF, FrameGeometry

#: The paper's Qp rows in Table 1 (descending, as printed).
PAPER_QPS: tuple[int, ...] = (30, 28, 26, 24, 22, 20, 18, 16)

#: The paper's evaluation sequences.
PAPER_SEQUENCES: tuple[str, ...] = ("carphone", "foreman", "miss_america", "table")

#: Frame rates evaluated in Table 1 and Figs. 5-6 (fps → temporal
#: subsampling factor from the 30 fps source).
PAPER_FPS: dict[int, int] = {30: 1, 10: 3}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs common to the RD and complexity experiments."""

    sequences: tuple[str, ...] = PAPER_SEQUENCES
    qps: tuple[int, ...] = PAPER_QPS
    fps_list: tuple[int, ...] = (30, 10)
    #: Frames rendered at the 30 fps source rate.  21 gives 7 frames at
    #: 10 fps — enough for the temporal effects while keeping sweep
    #: runtimes sane; raise for publication-grade curves.
    frames: int = 21
    seed: int = 0
    geometry: FrameGeometry = QCIF
    p: int = 15
    acbm_params: ACBMParameters = field(default_factory=ACBMParameters.paper_defaults)

    def __post_init__(self) -> None:
        if self.frames < 4:
            raise ValueError(f"need at least 4 source frames, got {self.frames}")
        unknown_fps = set(self.fps_list) - set(PAPER_FPS)
        if unknown_fps:
            raise ValueError(f"unsupported fps values {sorted(unknown_fps)}; known: {sorted(PAPER_FPS)}")
        if not self.qps:
            raise ValueError("qps must be non-empty")
        check_search_envelope(self.p)

    def subsample_factor(self, fps: int) -> int:
        return PAPER_FPS[fps]
