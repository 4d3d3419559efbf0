"""Rate-distortion sweeps — Figures 5 (30 fps) and 6 (10 fps).

For every (sequence, fps, estimator, Qp) cell, encode the clip with the
H.263-style encoder and record rate (kbit/s), luma PSNR (dB) and the
search-cost statistics.  The per-cell records feed three consumers:

* RD curves per sequence/fps (the figures),
* Table 1 (ACBM average positions/MB, from the same runs — no separate
  sweep needed),
* the paper's verbal claims, expressed as the comparison helpers on
  :class:`RDSweepResult`.

The sweep itself is a flat list of independent
:class:`repro.parallel.EncodeJob` specs executed through
:func:`repro.parallel.run_jobs` — serially in-process for ``jobs=1``
(the default, identical to the historical loop) or sharded across
worker processes for ``jobs>1``.  Cells always merge back in the
canonical (sequence, fps, estimator, Qp) job order, so every consumer
of the result — and the printed figures — is byte-identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.rd import RDCurve, RDPoint
from repro.analysis.reporting import format_rd_series
from repro.core.acbm import ACBMEstimator
from repro.experiments.config import ExperimentConfig
from repro.me.estimator import MotionEstimator
from repro.me.full_search import FullSearchEstimator
from repro.me.predictive import PredictiveEstimator
from repro.parallel import EncodeJob, borrowed_renders, run_jobs
from repro.video.sequence import Sequence

#: The figures' three curves.
PAPER_ESTIMATORS: tuple[str, ...] = ("acbm", "fsbm", "pbm")


@dataclass(frozen=True)
class SweepCell:
    """One encode's summary."""

    sequence: str
    fps: int
    estimator: str
    qp: int
    rate_kbps: float
    psnr_y: float
    avg_positions: float
    full_search_fraction: float
    skipped_mbs: int
    mv_bits: int
    coefficient_bits: int


@dataclass
class RDSweepResult:
    """All cells of one sweep plus curve/claim accessors."""

    config: ExperimentConfig
    cells: list[SweepCell] = field(default_factory=list)

    def curve(self, sequence: str, fps: int, estimator: str) -> RDCurve:
        points = [
            RDPoint(qp=c.qp, rate_kbps=c.rate_kbps, psnr_db=c.psnr_y)
            for c in self.cells
            if c.sequence == sequence and c.fps == fps and c.estimator == estimator
        ]
        if not points:
            raise ValueError(f"no cells for ({sequence}, {fps} fps, {estimator})")
        return RDCurve(f"{estimator}/{sequence}@{fps}", points)

    def figure(self, fps: int) -> dict[str, dict[str, RDCurve]]:
        """``sequence → estimator → RDCurve`` for one frame rate: the
        data behind Fig. 5 (fps=30) or Fig. 6 (fps=10)."""
        sequences = sorted({c.sequence for c in self.cells if c.fps == fps})
        estimators = sorted({c.estimator for c in self.cells if c.fps == fps})
        if not sequences:
            raise ValueError(f"no cells at {fps} fps")
        return {
            seq: {est: self.curve(seq, fps, est) for est in estimators}
            for seq in sequences
        }

    def psnr_gain(self, sequence: str, fps: int, estimator_a: str, estimator_b: str) -> float:
        """Average PSNR advantage of a over b at matched rate (dB)."""
        return self.curve(sequence, fps, estimator_a).average_psnr_gain_over(
            self.curve(sequence, fps, estimator_b)
        )

    def as_text(self, fps: int) -> str:
        blocks = []
        for seq, curves in self.figure(fps).items():
            ordered = [curves[e] for e in PAPER_ESTIMATORS if e in curves]
            ordered += [c for e, c in sorted(curves.items()) if e not in PAPER_ESTIMATORS]
            blocks.append(
                format_rd_series(ordered, title=f"== {seq} sequence, QCIF@{fps} fps ==")
            )
        return "\n\n".join(blocks)


def build_estimator(name: str, config: ExperimentConfig) -> MotionEstimator:
    """The paper's three contenders, configured per the experiment."""
    if name == "acbm":
        return ACBMEstimator(p=config.p, params=config.acbm_params)
    if name == "fsbm":
        return FullSearchEstimator(p=config.p)
    if name == "pbm":
        return PredictiveEstimator(p=config.p)
    from repro.me.estimator import create_estimator

    return create_estimator(name, p=config.p)


def sweep_jobs(
    config: ExperimentConfig, estimators: tuple[str, ...] = PAPER_ESTIMATORS
) -> tuple[EncodeJob, ...]:
    """The sweep's per-cell :class:`EncodeJob` list in the canonical
    (sequence, fps, estimator, Qp) order every consumer merges by."""
    return tuple(
        EncodeJob(sequence=name, fps=fps, estimator=estimator, qp=qp, config=config)
        for name in config.sequences
        for fps in config.fps_list
        for estimator in estimators
        for qp in config.qps
    )


def run_rd_sweep(
    config: ExperimentConfig | None = None,
    estimators: tuple[str, ...] = PAPER_ESTIMATORS,
    sequences_cache: dict[str, Sequence] | None = None,
    progress=None,
    jobs: int = 1,
) -> RDSweepResult:
    """Run the full sweep.

    Parameters
    ----------
    config:
        Experiment knobs; paper defaults when omitted.
    estimators:
        Registry names to compare (default: the figures' three).
    sequences_cache:
        Optional pre-rendered 30 fps sources keyed by name (the Table 1
        bench shares renders with the figure benches through this).
        Only short-circuits rendering in the calling process; workers
        re-render (memoized per worker).
    progress:
        Optional callable ``(message: str) -> None`` for live progress.
    jobs:
        Worker processes; 1 (the default) runs in-process.  The result
        is byte-identical for any value — cells merge in job order and
        every job's inputs are derived from explicit seeds.
    """
    config = config or ExperimentConfig()
    with borrowed_renders(sequences_cache or {}, config):
        cells = run_jobs(
            sweep_jobs(config, estimators),
            workers=jobs,
            base_seed=config.seed,
            progress=progress,
        )
    return RDSweepResult(config=config, cells=list(cells))
